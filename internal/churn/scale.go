package churn

// This file is the scale-and-churn suite: it runs the scenario engine —
// a flash-crowd attach storm, a WAN partition, an impaired relay pair
// and a relay crash, all against a spread relay mesh — with continuous
// invariant checking, and reports the headline numbers the scenario
// measures: attach throughput, directory (gossip) convergence times,
// routed-open p99 under churn, and the recovery times of the failover
// every node runs (core.Attachment). FormatScale renders the report and
// WriteScaleReport writes it as JSON (see EXPERIMENTS.md, "Surviving a
// flash crowd").

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"netibis/internal/churn/invariant"
)

// defaultScaleText is the standard scenario, parameterized by seed. It
// deliberately goes through the schedule DSL rather than building the
// Schedule struct directly, so every bench run also exercises the
// parser end to end.
const defaultScaleText = `
# scale suite: flash crowd + partition + impairment + crash
seed %d
relays 3
pool 96
streams 4
records 1500
record-bytes 512
secure off
end 12s
storm at=0s nodes=20000 over=5s curve=ramp
partition at=6s a=1 b=2 for=700ms
impair at=8s a=0 b=1 capacity=250000 rtt=120ms jitter=20ms loss=0.02 for=1s
crash at=9500ms relay=2 down=700ms
`

// soakScaleText is the nightly soak scenario: half a million simulated
// arrivals, a secure mesh with a live trust rotation, and repeated
// partitions, impairments and crashes over a five-minute window. The
// storm self-paces: if the host cannot sustain the demanded arrival
// rate, pool backpressure stretches the window and the measured
// attach throughput reports what the stack actually absorbed.
const soakScaleText = `
# scale soak: sustained churn, secure mesh, rolling failures
seed %d
relays 4
pool 256
streams 6
records 20000
record-bytes 512
secure on
end 5m
storm at=0s nodes=500000 over=2m curve=ramp
partition at=150s a=1 b=2 for=5s
crash at=170s relay=3 down=5s
rotate at=200s
impair at=220s a=0 b=1 capacity=250000 rtt=120ms jitter=20ms loss=0.02 for=10s
crash at=240s relay=1 down=5s
partition at=260s a=0 b=3 for=5s
`

// DefaultScaleSchedule returns the standard scale scenario under the
// given seed.
func DefaultScaleSchedule(seed int64) (*Schedule, error) {
	return ParseSchedule([]byte(fmt.Sprintf(defaultScaleText, seed)))
}

// SoakScaleSchedule returns the nightly soak scenario under the given
// seed.
func SoakScaleSchedule(seed int64) (*Schedule, error) {
	return ParseSchedule([]byte(fmt.Sprintf(soakScaleText, seed)))
}

// ScaleReport is the full suite, as netibis-bench -o writes it.
type ScaleReport struct {
	// GeneratedAt is the wall-clock time of the run.
	GeneratedAt time.Time `json:"generated_at"`
	// GoVersion records the toolchain.
	GoVersion string `json:"go_version"`
	// Soak distinguishes nightly soak runs from the standard suite.
	Soak bool `json:"soak"`
	// Result is the churn engine's measured outcome, violations
	// included.
	Result *Result `json:"result"`
}

// RunScaleSuite executes one scale scenario. The engine's live
// event/violation trail goes to log (nil discards it). The error return
// is for setup failures; invariant violations land in the report's
// Result and fail the suite via Result.Failed().
func RunScaleSuite(sched *Schedule, soak bool, log io.Writer) (ScaleReport, error) {
	rep := ScaleReport{
		GeneratedAt: time.Now(), //nolint:netibis-determinism // the report's timestamp; never feeds scenario decisions
		GoVersion:   runtime.Version(),
		Soak:        soak,
	}
	res, err := Run(Options{Schedule: sched, Log: log})
	if err != nil {
		return rep, err
	}
	rep.Result = res
	return rep, nil
}

// FormatScale renders the report's headline numbers as text.
func FormatScale(rep ScaleReport) string {
	r := rep.Result
	if r == nil {
		return "no result\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d simulated nodes over %d relays (secure=%v, seed %d)\n", r.SimNodes, r.Relays, r.Secure, r.Seed)
	fmt.Fprintf(&b, "attach     %d ok, %d failed, %.0f/s, p50 %.1f ms, p99 %.1f ms\n",
		r.Attaches, r.AttachFailures, r.AttachPerSec, r.AttachP50Ms, r.AttachP99Ms)
	fmt.Fprintf(&b, "open       %d ok, %d failed, p50 %.1f ms, p99 %.1f ms\n",
		r.Opens, r.OpenFailures, r.OpenP50Ms, r.OpenP99Ms)
	fmt.Fprintf(&b, "converge   storm %s, heal/rejoin %s, final %.0f ms\n",
		fmtMsList(r.StormConvergeMs), fmtMsList(r.HealConvergeMs), r.FinalConvergeMs)
	fmt.Fprintf(&b, "failover   %d recoveries, p50 %.1f ms, max %.1f ms\n",
		r.Recoveries, r.RecoverP50Ms, r.RecoverMaxMs)
	fmt.Fprintf(&b, "streams    %d records (%.1f MiB) verified, %d resent, %d dupes, %d resets\n",
		r.StreamRecords, float64(r.StreamBytes)/(1<<20), r.StreamResent, r.StreamDupes, r.StreamResets)
	fmt.Fprintf(&b, "resources  peak heap %.1f MiB, peak egress backlog %.0f frames\n",
		float64(r.PeakHeapBytes)/(1<<20), r.PeakBacklogFrames)
	if r.Failed() {
		fmt.Fprintf(&b, "VIOLATIONS (%d):\n%s", len(r.Violations), invariant.FormatViolations(r.Violations))
	} else {
		b.WriteString("invariants clean: no lost/duplicated/misdelivered/corrupted bytes, bounded memory, converged, no leaks\n")
	}
	return b.String()
}

// fmtMsList renders a millisecond series compactly.
func fmtMsList(ms []float64) string {
	if len(ms) == 0 {
		return "-"
	}
	parts := make([]string, len(ms))
	for i, v := range ms {
		parts[i] = fmt.Sprintf("%.0fms", v)
	}
	return strings.Join(parts, "/")
}

// WriteScaleReport writes the report as JSON to path.
func WriteScaleReport(rep ScaleReport, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
