// Command netibis-bench regenerates the tables and figures of the
// paper's evaluation section from the NetIbis reproduction. Each
// subcommand prints one experiment; "all" prints everything, in the
// order the paper presents it.
//
// Usage:
//
//	netibis-bench [table1|lan|fig9|fig10|crossover|streams|zlib|matrix|scale|all]
//
// The scale suite takes its own flags (not part of "all" — it is a
// scenario run, not a paper figure):
//
//	netibis-bench scale [-seed N] [-soak] [-schedule file] [-log]
//
// Throughput, latency and allocation measurements of the real stack
// live in ./benchmark (go run ./benchmark), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"netibis/internal/bench"
	"netibis/internal/churn"
)

// experiments are the subcommands "all" runs, in the order the paper
// presents them.
var experiments = []struct {
	name string
	run  func()
}{
	{"table1", table1},
	{"lan", lan},
	{"fig9", fig9},
	{"fig10", fig10},
	{"crossover", crossover},
	{"streams", streams},
	{"zlib", zlib},
	{"matrix", matrix},
}

// resolve maps a subcommand to the experiments it runs; nil means the
// name is unknown.
func resolve(cmd string, args []string) []func() {
	switch cmd {
	case "scale":
		return []func(){func() { scale(args) }}
	case "all":
		all := make([]func(), len(experiments))
		for i, e := range experiments {
			all[i] = e.run
		}
		return all
	}
	for _, e := range experiments {
		if e.name == cmd {
			return []func(){e.run}
		}
	}
	return nil
}

func main() {
	cmd, args := "all", os.Args[1:]
	if len(args) > 0 {
		cmd, args = args[0], args[1:]
	}
	runs := resolve(cmd, args)
	if runs == nil {
		names := make([]string, len(experiments))
		for i, e := range experiments {
			names[i] = e.name
		}
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", cmd)
		fmt.Fprintf(os.Stderr, "experiments: %s scale all\n", strings.Join(names, " "))
		os.Exit(2)
	}
	for _, run := range runs {
		run()
	}
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func table1() {
	header("Table 1: connection establishment methods summary")
	fmt.Print(bench.FormatTable1(bench.Table1()))
}

func fig9() {
	header("Figure 9: bandwidth between Amsterdam and Rennes (1.6 MB/s, 30 ms)")
	fmt.Print(bench.FormatRows(bench.Fig9()))
}

func fig10() {
	header("Figure 10: bandwidth between Delft and Sophia (9 MB/s, 43 ms)")
	fmt.Print(bench.FormatRows(bench.Fig10()))
}

func lan() {
	header("Section 4.1: block aggregation on a 100 Mbit/s LAN")
	for _, r := range bench.LANAggregation() {
		mode := "per-message blocks"
		if r.Aggregated {
			mode = "aggregated + flush"
		}
		fmt.Printf("  %5d-byte messages, %-20s %6.2f MB/s\n", r.MessageSize, mode, r.BandwidthMBps)
	}
}

func crossover() {
	header("Section 6: compression crossover (capacity sweep: compression vs 4 plain streams)")
	rows := bench.Crossover()
	for _, r := range rows {
		verdict := "compression hurts"
		if r.CompressionHelps {
			verdict = "compression helps"
		}
		fmt.Printf("  capacity %5.1f MB/s: without %5.2f MB/s, with %5.2f MB/s  (%s)\n",
			r.CapacityMBps, r.WithoutMBps, r.WithMBps, verdict)
	}
	fmt.Printf("  -> compression stops helping above ~%.0f MB/s (paper: ~6 MB/s)\n", bench.CrossoverCapacity(rows))
}

func matrix() {
	header("Section 6 (qualitative): connectivity matrix across site archetypes")
	entries, err := bench.ConnectivityMatrix(nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "matrix failed: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(bench.FormatMatrix(entries))
	fmt.Printf("full connectivity: %v, methods used: %v\n",
		bench.FullConnectivity(entries), bench.MethodHistogram(entries))
}

func streams() {
	header("Ablation: parallel stream count on the Delft-Sophia link")
	for _, r := range bench.StreamSweep(16) {
		fmt.Printf("  %2d streams: %5.2f MB/s (%3.0f%% of capacity)\n", r.Streams, r.BandwidthMBps, r.Utilization*100)
	}
}

func zlib() {
	header("Ablation: compression level (Section 4.3)")
	for _, r := range bench.ZlibLevels() {
		fmt.Printf("  level %d: ratio %4.2f, compressor %7.1f MB/s (this machine), effective on Amsterdam-Rennes %5.2f MB/s\n",
			r.Level, r.Ratio, r.CompressMBps, r.EffectiveMBps)
	}
}

// scale runs the churn/scale suite: a seeded chaos scenario (attach
// storm, partition, impairment, crash) with continuous invariant
// checking, reporting attach throughput, convergence, open-latency and
// failover numbers to BENCH_scale.json. Exit status 1 if any invariant
// was violated, so CI soak jobs fail loudly.
func scale(args []string) {
	fs := flag.NewFlagSet("scale", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "scenario seed (replays a failing run exactly)")
	soak := fs.Bool("soak", false, "run the long nightly soak scenario instead of the standard suite")
	schedFile := fs.String("schedule", "", "run a custom schedule file instead of the built-in scenario")
	logTrail := fs.Bool("log", false, "stream the live event/violation trail to stderr")
	out := fs.String("o", "", "report path (default BENCH_scale.json at the repo root)")
	fs.Parse(args)

	var sched *churn.Schedule
	var err error
	switch {
	case *schedFile != "":
		data, rerr := os.ReadFile(*schedFile)
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "scale: %v\n", rerr)
			os.Exit(1)
		}
		if sched, err = churn.ParseSchedule(data); err == nil && fs.Lookup("seed") != nil {
			// An explicit -seed overrides the file's seed for replays.
			fs.Visit(func(f *flag.Flag) {
				if f.Name == "seed" {
					sched.Seed = *seed
				}
			})
		}
	case *soak:
		sched, err = churn.SoakScaleSchedule(*seed)
	default:
		sched, err = churn.DefaultScaleSchedule(*seed)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "scale: %v\n", err)
		os.Exit(1)
	}

	header("Scale suite: flash-crowd churn with continuous invariant checking")
	var trail io.Writer
	if *logTrail {
		trail = os.Stderr
	}
	rep, err := churn.RunScaleSuite(sched, *soak, trail)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scale: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(churn.FormatScale(rep))
	path, err := churn.WriteScaleReport(rep, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scale: writing report: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("report written to %s\n", path)
	if rep.Result.Failed() {
		os.Exit(1)
	}
}
