package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// smokeSpec shrinks a workload to test size: one set-up, one acceptor,
// small messages, short probes, at most two rounds and links a tenth
// (the control grid's a twentieth) as long. The phases, stacks,
// scenarios and checks are the real ones.
func smokeSpec(name string) *workloadSpec {
	spec := *workloadByName(name)
	spec.setups = 1
	spec.acceptors = 1
	spec.warmup = min(spec.warmup, 4)
	spec.bulkSize = min(spec.bulkSize, 64<<10)
	spec.timeScale *= 0.1
	spec.ctlScale = 0.05
	spec.probeLen = 10 * time.Millisecond
	spec.rounds = min(spec.rounds, 2)
	return &spec
}

const smokeSeconds = 0.3

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// repoFiles lists every file of the repository with its size and
// modification time, but the BENCH_*.json of other packages' tests.
func repoFiles(t *testing.T) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasPrefix(d.Name(), "BENCH_") {
			// The result files other packages' tests rewrite, and under
			// go test ./... they run while this test does.
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		files[path] = fmt.Sprint(info.ModTime(), " ", info.Size())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestSmoke runs all four workloads, untraced and traced, and checks
// that every operation succeeded, that the names emitted are the names
// of BENCHMARK.json and that nothing was written inside the repository.
func TestSmoke(t *testing.T) {
	before := repoFiles(t)
	spansPath := filepath.Join(t.TempDir(), "spans.jsonl")
	for _, w := range workloads {
		spec := smokeSpec(w.name)
		for _, traced := range []bool{false, true} {
			var tl tally
			var got metricSet
			var err error
			want := endToEnd
			if traced {
				want = perLayer
				got, err = runTraced(spec, 7, smokeSeconds, &tl, spansPath)
			} else {
				got, err = runUntraced(spec, 7, smokeSeconds, &tl)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if tl.failed.Load() != 0 || tl.corrupt.Load() || tl.attempted.Load() == 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d, corrupt %v: %v",
					w.name, traced, tl.attempted.Load(), tl.failed.Load(), tl.corrupt.Load(), tl.first)
			}
			var wantNames []string
			for _, d := range want {
				wantNames = append(wantNames, d.Name)
			}
			sort.Strings(wantNames)
			gotNames := got.names()
			if len(gotNames) != len(wantNames) {
				t.Errorf("%s traced=%v: %d metrics emitted, want %d", w.name, traced, len(gotNames), len(wantNames))
			}
			for i := range min(len(gotNames), len(wantNames)) {
				if gotNames[i] != wantNames[i] {
					t.Errorf("%s traced=%v: emitted %q where %q was due", w.name, traced, gotNames[i], wantNames[i])
					break
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if got[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want above 0", w.name, d.Name, got[d.Name].Value)
					}
				}
			}
		}
	}
	if info, err := os.Stat(spansPath); err != nil || info.Size() == 0 {
		t.Errorf("no spans written to %s: %v", spansPath, err)
	}
	after := repoFiles(t)
	for path, sig := range after {
		if before[path] != sig {
			t.Errorf("the run wrote %s inside the repository", path)
		}
	}
}

// TestManifest checks BENCHMARK.json against the tables in metrics.go
// and the limits of the benchmark contract.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var manifest struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in env.go", len(manifest.Workloads), len(workloads))
	}
	for i, w := range manifest.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in env.go (or the why differs)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, limit int) {
		if len(got) != len(want) || len(got) > limit {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go, limit %d", kind, len(got), len(want), limit)
		}
		seen := map[string]bool{}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, metrics.go has %+v", kind, i, g, w)
			}
			if !nameRE.MatchString(g.Name) || seen[g.Name] {
				t.Errorf("%s: bad or repeated name %q", kind, g.Name)
			}
			seen[g.Name] = true
			switch {
			case w.Bound > 0 && (g.Bound == nil || *g.Bound != w.Bound || w.Bound > 0.25):
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in metrics.go, at most 0.25", kind, g.Name, g.Bound, w.Bound)
			case w.Bound == 0 && g.Bound != nil:
				t.Errorf("%s %s: a per-layer metric has no bound", kind, g.Name)
			}
		}
	}
	check("end_to_end", manifest.EndToEnd, endToEnd, 16)
	check("per_layer", manifest.PerLayer, perLayer, 128)
	for _, d := range endToEnd {
		if d.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better")
	}
	if manifest.RunSeconds < 1 || manifest.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", manifest.RunSeconds)
	}
}

// TestSelfTest proves the receiver's check fires on a flipped byte, a
// reordering and a truncation.
func TestSelfTest(t *testing.T) {
	if err := selfTest(); err != nil {
		t.Fatal(err)
	}
}

// TestCompare checks the verdicts of the compare command: same machine
// and no regression passes, a regression beyond the bound is reported,
// another machine is refused.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, goodput float64, nproc int) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 3; i++ {
			r := result{
				Fingerprint: fingerprint{Machine: machine{CPU: "test", NumCPU: nproc, GoMaxProcs: nproc, GoVersion: "go"}, Commit: name},
				Workload:    "lan_stacks", Correct: true, Attempted: 1,
				Metrics: map[string]sample{"goodput_plain_MBps": {Value: goodput + float64(i), Unit: "MB/s"}},
			}
			if err := appendReport(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base", 100, 2)
	if got := compare([]string{base, write("same", 98, 2)}); got != 0 {
		t.Errorf("compare of like sets returned %d, want 0", got)
	}
	if got := compare([]string{base, write("slow", 50, 2)}); got != 1 {
		t.Errorf("compare with a halved goodput returned %d, want 1", got)
	}
	if got := compare([]string{base, write("other", 100, 4)}); got != 2 {
		t.Errorf("compare across machines returned %d, want 2", got)
	}
}

// TestWindows checks how a phase's reading is taken from its windows:
// nothing that arrives after the sender stopped counts, the first window
// of a slice is discarded, and the reading sits a fifth of the way in
// from the fast end.
func TestWindows(t *testing.T) {
	// One message a millisecond for 60 ms, then a backlog of 40 more
	// drained in 4 ms after the sender stopped.
	var curve []checkpoint
	for i := int64(1); i <= 60; i++ {
		curve = append(curve, checkpoint{T: i * 1e6, Bytes: i * 1000, Msgs: i})
	}
	for i := int64(1); i <= 40; i++ {
		curve = append(curve, checkpoint{T: 60e6 + i*1e5, Bytes: (60 + i) * 1000, Msgs: 60 + i})
	}
	bytesPerSec, msgsPerSec := windowRates(curve, 10e6, 60e6)
	if len(bytesPerSec) != 5 || len(msgsPerSec) != 5 {
		t.Fatalf("%d windows kept of six, want five", len(bytesPerSec))
	}
	for i, r := range msgsPerSec {
		if r < 999 || r > 1001 || bytesPerSec[i] < 999e3 || bytesPerSec[i] > 1001e3 {
			t.Errorf("window %d reads %v msg/s and %v B/s, want 1000 and 1e6: the drain must not count", i, r, bytesPerSec[i])
		}
	}
	if b, _ := windowRates(curve[:3], 10e6, 60e6); len(b) != 1 {
		t.Errorf("a curve too short for windows gave %d rates, want one", len(b))
	}
	if b, _ := windowRates(curve[60:], 10e6, 60e6); len(b) != 1 {
		t.Errorf("a curve that starts after the sender stopped gave %d rates, want one", len(b))
	}

	if got := windowMedians([]float64{9, 9, 9, 1, 2, 3, 4, 5, 6}, 3); len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Errorf("windowMedians = %v, want [2 5]", got)
	}
	if got := windowMedians([]float64{3, 1, 2}, 12); len(got) != 1 || got[0] != 2 {
		t.Errorf("windowMedians of too few samples = %v, want [2]", got)
	}

	values := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}
	if got := fastSide(values, "MB/s", true); got.Value != 90 || got.N != 11 {
		t.Errorf("fast side of rates = %+v, want 90 of 11", got)
	}
	if got := fastSide(values, "us", false); got.Value != 30 {
		t.Errorf("fast side of times = %+v, want 30", got)
	}
}
