// Command netibis-bench runs the churn/scale suite: a seeded chaos
// scenario (attach storm, partition, impairment, crash) with continuous
// invariant checking, printing attach throughput, convergence,
// open-latency and failover numbers, and writing them as JSON to the
// file -o names. Exit status 1 if any invariant was violated, so CI soak
// jobs fail loudly.
//
// Usage:
//
//	netibis-bench [-seed N] [-soak] [-schedule file] [-log] [-o report]
//
// Throughput, latency and allocation measurements of the real stack
// live in ./benchmark (go run ./benchmark), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"netibis/internal/churn"
)

func main() {
	seed := flag.Int64("seed", 1, "scenario seed (replays a failing run exactly)")
	soak := flag.Bool("soak", false, "run the long nightly soak scenario instead of the standard suite")
	schedFile := flag.String("schedule", "", "run a custom schedule file instead of the built-in scenario")
	logTrail := flag.Bool("log", false, "stream the live event/violation trail to stderr")
	out := flag.String("o", "", "write the report as JSON to this file (default: print only)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "netibis-bench takes no arguments, got %q\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	var sched *churn.Schedule
	var err error
	switch {
	case *schedFile != "":
		data, rerr := os.ReadFile(*schedFile)
		if rerr != nil {
			fail(rerr)
		}
		if sched, err = churn.ParseSchedule(data); err == nil {
			// An explicit -seed overrides the file's seed for replays.
			flag.Visit(func(f *flag.Flag) {
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
		fail(err)
	}

	fmt.Println("=== Scale suite: flash-crowd churn with continuous invariant checking ===")
	var trail io.Writer
	if *logTrail {
		trail = os.Stderr
	}
	rep, err := churn.RunScaleSuite(sched, *soak, trail)
	if err != nil {
		fail(err)
	}
	fmt.Print(churn.FormatScale(rep))
	if *out != "" {
		if err := churn.WriteScaleReport(rep, *out); err != nil {
			fail(fmt.Errorf("writing report: %w", err))
		}
		fmt.Printf("report written to %s\n", *out)
	}
	if rep.Result.Failed() {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "scale: %v\n", err)
	os.Exit(1)
}
