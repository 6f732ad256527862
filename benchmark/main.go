// Command benchmark is the repository's benchmark: four workloads, each
// an emulated world, through the real code path end to end
// (ipl ports -> core -> driver stack -> wire -> emunet, and relay and
// overlay when routed), plus a separate traced run that breaks the same
// phases down by layer. See README.md in this directory.
//
//	go run ./benchmark --workload lan_stacks --seed 1 --seconds 20 --trace 0
//	go run ./benchmark list
//	go run ./benchmark compare a.jsonl b.jsonl
//
// All traffic crosses the in-process emulated network, never a kernel
// socket (the traced run's real-TCP relay probe excepted).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// processStart is as close to the start of the process as Go code gets;
// the first set-up is timed from it.
var processStart = time.Now()

// ballastBytes is the application state the load generator holds for
// the length of a run, as a node of a grid application would hold its
// data. An otherwise empty process has a 4 MB heap, and at a gigabyte
// allocated per second (an unshaped bulk phase) it collects garbage some
// 250 times a second: the collector's pace, not the code under test,
// then sets the goodput, and sets it chaotically (readings of one commit
// spread by a third). With the ballast the collector runs a few times a
// second, as it would in an application with a heap of its own. The
// ballast holds no pointers and is never touched, so it is neither
// scanned nor resident. What the code allocates still shows in
// proc.allocs_per_msg and proc.alloc_bytes_per_msg.
const ballastBytes = 256 << 20

// fingerprint says where and from what a report was made. Reports are
// only comparable when Machine matches.
type fingerprint struct {
	Machine machine `json:"machine"`
	Commit  string  `json:"commit"`
	Seed    int64   `json:"seed"`
}

type machine struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
}

// result is a run's outcome. The last line of standard output is its
// line form; -out appends its full form, one JSON object per line, with
// everything needed to compare it with another.
type result struct {
	Fingerprint fingerprint       `json:"fingerprint"`
	Workload    string            `json:"workload"`
	Trace       bool              `json:"trace"`
	Seconds     float64           `json:"seconds"`
	Correct     bool              `json:"correct"`
	Attempted   int64             `json:"attempted"`
	Failed      int64             `json:"failed"`
	Metrics     map[string]sample `json:"metrics"`
}

// line renders the result as the driver's contract has it: exactly the
// keys correct, attempted, failed and metrics, each metric a value and
// a unit.
func (r result) line() ([]byte, error) {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]valueUnit, len(r.Metrics))
	for name, s := range r.Metrics {
		metrics[name] = valueUnit{s.Value, s.Unit}
	}
	return json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "list":
			list()
			return
		case "compare":
			os.Exit(compare(os.Args[2:]))
		}
	}
	os.Exit(run(os.Args[1:]))
}

func list() {
	for _, d := range endToEnd {
		fmt.Printf("end_to_end  %-44s %-8s better=%-6s bound=%.2f\n", d.Name, d.Unit, d.Better, d.Bound)
	}
	for _, d := range perLayer {
		fmt.Printf("per_layer   %-44s %-8s better=%s\n", d.Name, d.Unit, d.Better)
	}
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of workload.Generate and emunet.WithSeed")
	seconds := fs.Float64("seconds", 20, "length of the timed phases together")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	out := fs.String("out", "", "append the full report (JSON line) to this file")
	spans := fs.String("spans", "", "traced run: write a sample of the spans (JSON lines) to this file")
	commit := fs.String("commit", "", "commit to record in the report (default: from the build info)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec := workloadByName(*workload)
	if spec == nil || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: benchmark --workload <%s> --seed <n> --seconds <s> --trace <0|1> [--out file] [--spans file]\n       benchmark list\n       benchmark compare a.jsonl b.jsonl\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	fp := fingerprint{Machine: thisMachine(), Commit: commitOf(*commit), Seed: *seed}
	report("benchmark: %s seed %d, %.3g s, trace %d; %s, nproc %d, GOMAXPROCS %d, %s, commit %s",
		spec.name, *seed, *seconds, *trace, fp.Machine.CPU, fp.Machine.NumCPU, fp.Machine.GoMaxProcs, fp.Machine.GoVersion, fp.Commit)
	if spec.procs > 0 {
		report("%s runs at GOMAXPROCS %d", spec.name, spec.procs)
		runtime.GOMAXPROCS(spec.procs)
	}

	ballast := make([]byte, ballastBytes)
	defer runtime.KeepAlive(ballast)
	if err := selfTest(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var tl tally
	var metrics metricSet
	var defs []metricDef
	var err error
	if *trace == 0 {
		metrics, err = runUntraced(spec, *seed, *seconds, &tl)
		defs = endToEnd
	} else {
		metrics, err = runTraced(spec, *seed, *seconds, &tl, *spans)
		defs = perLayer
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	res := result{
		Fingerprint: fp, Workload: spec.name, Trace: *trace != 0, Seconds: *seconds,
		Correct:   !tl.corrupt.Load() && tl.failed.Load() == 0,
		Attempted: tl.attempted.Load(),
		Failed:    tl.failed.Load(),
		Metrics:   map[string]sample{},
	}
	for _, d := range defs {
		s, ok := metrics[d.Name]
		if !ok || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			fmt.Fprintf(os.Stderr, "benchmark: metric %s was not measured (first failure: %v)\n", d.Name, tl.first)
			return 1
		}
		s.Unit = d.Unit
		res.Metrics[d.Name] = s
		report("%-44s %14.6g %-6s n=%d", d.Name, s.Value, s.Unit, s.N)
	}
	report("attempted %d, failed %d (fail_ratio %.3g)", res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	if tl.first != nil {
		report("first failure: %v", tl.first)
	}
	if *out != "" {
		if err := appendReport(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := res.line()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if tl.corrupt.Load() {
		return 3 // wrong bytes were delivered: never a pass
	}
	return 0
}

// runUntraced is the timed run: the world is set up spec.setups times
// (setup_s is read off them as every timing is, see fastSide), the last
// one runs the suite.
func runUntraced(spec *workloadSpec, seed int64, seconds float64, tl *tally) (metricSet, error) {
	var setups []float64
	var w *world
	start := processStart
	for i := 0; i < spec.setups; i++ {
		if w != nil {
			w.close()
			start = time.Now()
		}
		var err error
		if w, err = buildWorld(spec, seed, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		report("set-up %d: %.3f s", i+1, setups[i])
	}
	defer w.close()
	m := suiteMetrics(runSuite(w, seconds, tl, nil))
	m.put("setup_s", fastSide(setups, "s", false))
	return m.only(endToEnd), nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return names
}

func thisMachine() machine {
	m := machine{CPU: "unknown", NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

func commitOf(flagValue string) string {
	if flagValue != "" {
		return flagValue
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func appendReport(path string, r result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
