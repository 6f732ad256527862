package churn

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestScaleSchedulesParse(t *testing.T) {
	def, err := DefaultScaleSchedule(7)
	if err != nil {
		t.Fatalf("default schedule: %v", err)
	}
	if def.Seed != 7 || def.Relays != 3 || len(def.Events) != 4 {
		t.Fatalf("default schedule unexpected: %+v", def)
	}
	soak, err := SoakScaleSchedule(7)
	if err != nil {
		t.Fatalf("soak schedule: %v", err)
	}
	if !soak.Secure || len(soak.Events) != 7 {
		t.Fatalf("soak schedule unexpected: %+v", soak)
	}
}

// TestScaleSuiteSmoke runs a shrunken scale scenario end to end and
// checks the report pipeline: clean invariants, populated headline
// metrics, JSON round trip.
func TestScaleSuiteSmoke(t *testing.T) {
	sched, err := ParseSchedule([]byte(`
seed 11
relays 2
pool 16
streams 2
records 150
record-bytes 256
end 2500ms
storm at=0s nodes=120 over=800ms curve=flat
crash at=1200ms relay=1 down=300ms
`))
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	rep, err := RunScaleSuite(sched, false, nil)
	if err != nil {
		t.Fatalf("suite: %v", err)
	}
	if rep.Result.Failed() {
		t.Fatalf("violations:\n%s", FormatScale(rep))
	}
	if rep.Result.Attaches == 0 || rep.Result.StreamRecords == 0 {
		t.Fatalf("empty result: %+v", rep.Result)
	}

	out := FormatScale(rep)
	for _, want := range []string{"attach", "converge", "failover", "invariants clean"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted report missing %q:\n%s", want, out)
		}
	}

	path, err := WriteScaleReport(rep, filepath.Join(t.TempDir(), "BENCH_scale.json"))
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	var back ScaleReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Result == nil || back.Result.Attaches != rep.Result.Attaches {
		t.Fatalf("JSON round trip lost data")
	}
}
