package relay

import (
	"strings"
	"testing"

	"netibis/internal/identity"
	"netibis/internal/obs"
	"netibis/internal/wire"
)

// scrapeServer renders a registry and parses it back, so assertions run
// against exactly what a Prometheus scraper would see.
func scrapeRegistry(t *testing.T, reg *obs.Registry) *obs.Scrape {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	sc, err := obs.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	return sc
}

// TestRouteForwardZeroAllocsWithMetrics re-runs the relay forward-path
// allocation gate with a metrics registry attached: registration must
// not change the hot path (the counters are the same atomics either
// way), so the zero-allocation budget holds with observability on.
func TestRouteForwardZeroAllocsWithMetrics(t *testing.T) {
	s, source, sink, b := routeFixture(t, 32*1024)
	defer b.Release()
	reg := obs.NewRegistry()
	s.MetricsInto(reg)

	var emitted int64
	allocs := testing.AllocsPerRun(500, func() {
		before := sink.writes.Load()
		s.route(source, KindData, b)
		if !drainEgress(sink, before+1) {
			t.Fatal("egress never emitted the routed frame")
		}
		emitted++
	})
	if allocs != 0 {
		t.Fatalf("relay forward path allocates %.1f objects per frame with metrics registered, want 0", allocs)
	}

	sc := scrapeRegistry(t, reg)
	routed, ok := sc.Value("netibis_relay_routed_frames_total")
	if !ok {
		t.Fatal("netibis_relay_routed_frames_total missing from scrape")
	}
	if int64(routed) != emitted { // emitted includes AllocsPerRun's warm-up run
		t.Fatalf("routed_frames_total = %v, want %d", routed, emitted)
	}
}

// TestInjectZeroAllocsWithMetrics gates the mesh-injection path the same
// way.
func TestInjectZeroAllocsWithMetrics(t *testing.T) {
	s, _, sink, b := routeFixture(t, 32*1024)
	defer b.Release()
	s.MetricsInto(obs.NewRegistry())

	allocs := testing.AllocsPerRun(500, func() {
		before := sink.writes.Load()
		if !s.Inject("peer-relay", KindData, b.Bytes(), b) {
			t.Fatal("inject failed")
		}
		if !drainEgress(sink, before+1) {
			t.Fatal("egress never emitted the injected frame")
		}
	})
	if allocs != 0 {
		t.Fatalf("relay inject path allocates %.1f objects per frame with metrics registered, want 0", allocs)
	}
}

// TestStatsSortedByPeer pins the Stats contract introduced for the
// pollers: the per-peer forward breakdown is a slice sorted by peer ID
// (not a map), and Forwarded finds entries by binary search.
func TestStatsSortedByPeer(t *testing.T) {
	s := NewServer()
	s.countForward("relay-c")
	s.countForward("relay-a")
	s.countForward("relay-b")
	s.countForward("relay-a")

	st := s.Stats()
	if len(st.ForwardedByPeer) != 3 {
		t.Fatalf("got %d peers, want 3", len(st.ForwardedByPeer))
	}
	for i := 1; i < len(st.ForwardedByPeer); i++ {
		if st.ForwardedByPeer[i-1].Peer >= st.ForwardedByPeer[i].Peer {
			t.Fatalf("ForwardedByPeer not sorted: %v", st.ForwardedByPeer)
		}
	}
	if got := st.Forwarded("relay-a"); got != 2 {
		t.Fatalf("Forwarded(relay-a) = %d, want 2", got)
	}
	if got := st.Forwarded("relay-b"); got != 1 {
		t.Fatalf("Forwarded(relay-b) = %d, want 1", got)
	}
	if got := st.Forwarded("unknown"); got != 0 {
		t.Fatalf("Forwarded(unknown) = %d, want 0", got)
	}
}

// TestEgressBacklogAll asserts the all-nodes backlog snapshot is sorted
// and covers every attached node.
func TestEgressBacklogAll(t *testing.T) {
	s, _, _, b := routeFixture(t, 1024)
	defer b.Release()
	backlogs := s.EgressBacklogAll()
	if len(backlogs) != 2 {
		t.Fatalf("got %d nodes, want 2", len(backlogs))
	}
	if backlogs[0].Node != "dst-node" || backlogs[1].Node != "src-node" {
		t.Fatalf("backlog not sorted by node: %v", backlogs)
	}
	for _, nb := range backlogs {
		if nb.Frames < 0 {
			t.Fatalf("negative backlog: %v", nb)
		}
	}
}

// TestRelayMetricFamilies walks every family the relay registers through
// a render→parse round trip: names must satisfy the scheme (Register*
// would have panicked otherwise — this pins the full set), and the
// estab/flow vantage counters must move when matching frames cross.
func TestRelayMetricFamilies(t *testing.T) {
	s, source, sink, b := routeFixture(t, 1024)
	defer b.Release()
	reg := obs.NewRegistry()
	s.MetricsInto(reg)

	before := sink.writes.Load()
	s.route(source, KindData, b)
	if !drainEgress(sink, before+1) {
		t.Fatal("egress never emitted the routed frame")
	}
	// Credit frames feed the flow family's vantage counter.
	payload := AppendRouted(nil, "dst-node", 9, []byte{1, 2, 3})
	cb := wire.GetBuf(len(payload))
	copy(cb.Bytes(), payload)
	before = sink.writes.Load()
	s.route(source, KindCredit, cb)
	drainEgress(sink, before+1)
	cb.Release()

	sc := scrapeRegistry(t, reg)
	for _, name := range []string{
		"netibis_relay_routed_frames_total",
		"netibis_relay_routed_bytes_total",
		"netibis_relay_forwarded_frames_total",
		"netibis_relay_injected_frames_total",
		"netibis_relay_attached_nodes",
		"netibis_relay_detach_total",
		"netibis_estab_open_frames_total",
		"netibis_estab_open_ok_frames_total",
		"netibis_estab_open_fail_frames_total",
		"netibis_estab_abandon_frames_total",
		"netibis_flow_credit_frames_total",
		"netibis_flow_egress_backlog_frames",
		"netibis_flow_egress_queue_limit_frames",
	} {
		if _, ok := sc.Value(name); !ok {
			t.Errorf("family %s missing from scrape", name)
		}
	}
	if v, _ := sc.Value("netibis_flow_credit_frames_total"); v != 1 {
		t.Fatalf("credit_frames_total = %v, want 1", v)
	}
	if v, _ := sc.Value("netibis_relay_attached_nodes"); v != 2 {
		t.Fatalf("attached_nodes = %v, want 2", v)
	}
	outcomes := sc.Labeled("netibis_relay_attach_total", "outcome")
	for c := range identity.NumVerdicts {
		want := identity.VerdictName(c)
		if _, ok := outcomes[want]; !ok {
			t.Errorf("attach_total missing outcome %q", want)
		}
	}
}
