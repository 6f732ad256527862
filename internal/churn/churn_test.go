package churn

import (
	"io"
	"os"
	"testing"

	"netibis/internal/churn/invariant"
)

// smokeSchedule is the PR-gate scenario: a ramped attach storm, a
// partition+heal between two relay sites, and a relay crash+rejoin —
// every chaos family except rotation, sized to finish well under a
// minute with the race detector on.
const smokeSchedule = `
seed 1
relays 3
pool 24
streams 3
records 300
record-bytes 512
secure off
end 5s
storm at=0s nodes=400 over=1500ms curve=ramp
partition at=1800ms a=1 b=2 for=300ms
crash at=3200ms relay=2 down=300ms
`

// TestChurnSuiteSmoke drives the full stack through the smoke scenario
// and requires a clean invariant slate: every stream byte delivered
// exactly once and uncorrupted, directories converged after every
// disturbance, bounded memory and backlog, no goroutines leaked.
func TestChurnSuiteSmoke(t *testing.T) {
	sched, err := ParseSchedule([]byte(smokeSchedule))
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	var log io.Writer
	if testing.Verbose() {
		log = os.Stderr
	}
	res, err := Run(Options{Schedule: sched, Log: log})
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	if res.Failed() {
		t.Fatalf("%d invariant violation(s):\n%s", len(res.Violations), invariant.FormatViolations(res.Violations))
	}
	wantRecords := uint64(sched.Streams * sched.Records)
	if res.StreamRecords != wantRecords {
		t.Errorf("stream records verified = %d, want %d", res.StreamRecords, wantRecords)
	}
	if res.Attaches == 0 {
		t.Errorf("storm produced no successful attaches")
	}
	if res.Opens == 0 {
		t.Errorf("probe pair produced no routed opens")
	}
	if len(res.StormConvergeMs) == 0 {
		t.Errorf("no storm convergence was measured")
	}
	// partition heal + crash rejoin each record a heal convergence.
	if len(res.HealConvergeMs) < 2 {
		t.Errorf("heal convergences = %d, want >= 2 (partition heal + crash rejoin)", len(res.HealConvergeMs))
	}
	// The crash of relay 2 detaches a sender, a receiver and a probe; each
	// fails over the way a node does, and its core metric family says so.
	if res.Recoveries == 0 {
		t.Errorf(`the crash moved no netibis_core_reattach_total{result="ok"}`)
	}
	t.Logf("attaches=%d (%.0f/s, p99 %.1fms) opens=%d (p99 %.1fms) resent=%d resets=%d recoveries=%d peakHeap=%dMiB",
		res.Attaches, res.AttachPerSec, res.AttachP99Ms, res.Opens, res.OpenP99Ms,
		res.StreamResent, res.StreamResets, res.Recoveries, res.PeakHeapBytes>>20)
}

// TestChurnSecureRotate runs a small secure mesh through an attach storm
// and a live trust-store rotation: attaches are authenticated, streams
// run over sealed routed links, and the canary attach issued by the
// rotated-in CA must be accepted.
func TestChurnSecureRotate(t *testing.T) {
	sched, err := ParseSchedule([]byte(`
seed 3
relays 2
pool 8
streams 1
records 120
record-bytes 256
secure on
end 2500ms
storm at=0s nodes=60 over=600ms curve=flat
rotate at=1s
`))
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	res, err := Run(Options{Schedule: sched})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Failed() {
		t.Fatalf("%d invariant violation(s):\n%s", len(res.Violations), invariant.FormatViolations(res.Violations))
	}
	if res.StreamRecords != uint64(sched.Records) {
		t.Errorf("stream records verified = %d, want %d", res.StreamRecords, sched.Records)
	}
	if res.Attaches == 0 {
		t.Errorf("secure storm produced no successful attaches")
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	if _, err := Run(Options{}); err == nil {
		t.Fatalf("nil schedule accepted")
	}
	bad := &Schedule{Relays: 0}
	if _, err := Run(Options{Schedule: bad}); err == nil {
		t.Fatalf("invalid schedule accepted")
	}
}
