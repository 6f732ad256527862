package main

import "testing"

// TestSubcommandDispatch: every documented subcommand resolves, "all"
// is exactly the experiments table, and the names of the wall-clock
// suites that moved to ./benchmark (or, for failover, to the core and
// churn tests) are gone.
func TestSubcommandDispatch(t *testing.T) {
	names := []string{"table1", "lan", "fig9", "fig10", "crossover", "streams", "zlib", "matrix"}
	if len(experiments) != len(names) {
		t.Fatalf("experiments table has %d entries, want %d", len(experiments), len(names))
	}
	for i, name := range names {
		if experiments[i].name != name {
			t.Errorf("experiments[%d] = %q, want %q", i, experiments[i].name, name)
		}
		if got := resolve(name, nil); len(got) != 1 {
			t.Errorf("resolve(%q) gave %d runs, want 1", name, len(got))
		}
	}
	if got := resolve("scale", nil); len(got) != 1 {
		t.Errorf("resolve(scale) gave %d runs, want 1", len(got))
	}
	if got := resolve("all", nil); len(got) != len(names) {
		t.Errorf("all runs %d experiments, want %d", len(got), len(names))
	}
	for _, gone := range []string{"datapath", "estab", "flowcontrol", "multirelay", "delays", "failover", ""} {
		if resolve(gone, nil) != nil {
			t.Errorf("resolve(%q) still dispatches", gone)
		}
	}
}
