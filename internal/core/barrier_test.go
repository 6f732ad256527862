package core

// Tests of a connect's tail: once the data link is up the connect's
// barrier (estab.ServiceMux.Finish) passes on a goroutine that keeps the
// service link's write half until the done marker is out and its read
// half until the peer's is in, so the caller does not wait for it, the
// next request goes out right behind the marker and only its reply
// waits, and the barrier's failure is the service link's alone.

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"netibis/internal/emunet"
	"netibis/internal/estab"
	"netibis/internal/ipl"
	"netibis/internal/obs"
	"netibis/internal/testutil"
)

// newShapedGrid is newTestGrid on a fabric whose links take time: 4 ms of
// round trip, scaled.
func newShapedGrid(t *testing.T, scale float64) *testGrid {
	t.Helper()
	return newLinkedGrid(t, scale, 4*time.Millisecond)
}

// newLinkedGrid is newShapedGrid with links of the given round trip.
func newLinkedGrid(t *testing.T, scale float64, rtt time.Duration) *testGrid {
	t.Helper()
	f := emunet.NewFabric(emunet.WithSeed(29), emunet.WithTimeScale(scale), emunet.WithDefaultLink(emunet.LinkParams{CapacityBps: 9e6, RTT: rtt}))
	dep, err := NewDeployment(f)
	if err != nil {
		t.Fatal(err)
	}
	g := &testGrid{t: t, fabric: f, dep: dep}
	t.Cleanup(func() {
		g.closeAll()
		dep.Close()
		f.Close()
	})
	return g
}

// TestBarrierOrdersServiceLinkUse: fifty connects and pings back to back
// on one service link whose frames take real time. Each reads the link
// only once the previous connect's barrier has passed, so no ping (which
// reads exactly one frame) and no connect reply sees a stray frame of an
// establishment, and the link is never evicted.
func TestBarrierOrdersServiceLinkUse(t *testing.T) {
	g := newShapedGrid(t, 0.25)
	a := g.node("alice", "site-a", stateful, nil)
	b := g.node("bob", "site-b", emunet.SiteConfig{Firewall: emunet.Open}, nil)
	pt := ipl.PortType{Name: "chan", Stack: "tcpblk"}
	rp, err := b.CreateReceivePort(pt, "inbox")
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	if _, err := a.Ping("bob"); err != nil {
		t.Fatal(err)
	}
	first, err := a.serviceLinkTo("bob")
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 50; i++ {
		sp, err := a.CreateSendPort(pt)
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.Connect(rp.ID()); err != nil {
			t.Fatalf("connect %d: %v", i, err)
		}
		if _, err := a.Ping("bob"); err != nil {
			t.Fatalf("ping behind connect %d: %v", i, err)
		}
		want := fmt.Sprintf("message %d", i)
		sendText(t, sp, want)
		if got, _ := recvText(t, rp); got != want {
			t.Fatalf("connect %d carried %q, want %q", i, got, want)
		}
		if err := sp.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if now, err := a.serviceLinkTo("bob"); err != nil || now != first {
		t.Fatalf("the service link was evicted along the way (%v)", err)
	}
}

// TestServiceLinkSeveredAfterElection: the service link dies under the
// initiator's done marker — after the election, before the barrier. The
// connect has succeeded all the same, on both sides: the data link
// carries a verified message, the broken service link is evicted, and the
// next connect gets a fresh one.
func TestServiceLinkSeveredAfterElection(t *testing.T) {
	g := newTestGrid(t)
	a := g.node("alice", "site-a", stateful, nil)
	b := g.node("bob", "site-b", emunet.SiteConfig{Firewall: emunet.Open}, nil)
	rec, severed := recordServiceLink(t, a, "bob")
	rec.onDone = func() error {
		rec.Conn.Close()
		return net.ErrClosed
	}

	pt := ipl.PortType{Name: "chan", Stack: "tcpblk"}
	sp, rp := channel(t, a, b, pt, "inbox")
	defer sp.Close()
	defer rp.Close()
	waitForCondition(t, 3*time.Second, "the severed service link stayed cached", func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return len(a.serviceLinks) == 0
	})
	sendText(t, sp, "over a link whose broker died")
	if got, origin := recvText(t, rp); got != "over a link whose broker died" || origin != a.Identifier() {
		t.Fatalf("got %q from %v", got, origin)
	}

	sp2, err := a.CreateSendPort(pt)
	if err != nil {
		t.Fatal(err)
	}
	defer sp2.Close()
	if err := sp2.Connect(rp.ID()); err != nil {
		t.Fatalf("connect after the eviction: %v", err)
	}
	if fresh, err := a.serviceLinkTo("bob"); err != nil || fresh == severed {
		t.Fatalf("the connect after the eviction ran over the severed link (%v)", err)
	}
	sendText(t, sp2, "over a fresh one")
	if got, _ := recvText(t, rp); got != "over a fresh one" {
		t.Fatalf("got %q", got)
	}
}

// TestCloseWithBarrierPending: Node.Close while a connect's barrier is
// still open — its done marker held back — returns, and the goroutine
// that held the service link for the barrier is gone with the rest.
func TestCloseWithBarrierPending(t *testing.T) {
	g := newTestGrid(t)
	b := g.node("bob", "site-b", emunet.SiteConfig{Firewall: emunet.Open}, nil)
	pt := ipl.PortType{Name: "chan", Stack: "tcpblk"}
	rp, err := b.CreateReceivePort(pt, "inbox")
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()

	checkLeaks := testutil.LeakCheck(t, 0)
	a := g.node("alice", "site-a", stateful, nil)
	rec, sl := recordServiceLink(t, a, "bob")
	rec.onDone = func() error {
		<-rec.closed
		return net.ErrClosed
	}
	sp, err := a.CreateSendPort(pt)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Connect(rp.ID()); err != nil {
		t.Fatal(err)
	}
	if sl.rmu.TryLock() {
		t.Fatal("the service link's read half is free while the connect's barrier is open")
	}
	if sl.wmu.TryLock() {
		t.Fatal("the service link's write half is free while the connect's done marker is held back")
	}
	sendText(t, sp, "the data link does not wait for the barrier")
	if got, _ := recvText(t, rp); !strings.HasPrefix(got, "the data link") {
		t.Fatalf("got %q", got)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	closed := make(chan struct{})
	go func() {
		a.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Node.Close did not return with a barrier pending")
	}
	checkLeaks()
}

// TestHealthySpliceDiscardsRoutedHalf: an acceptor whose pair ranks
// splicing before routed opens its routed link right behind its reply,
// unasked, and the initiator never launches routed, for only the
// splice's failure would (the head start outlasts the test). Over twenty
// cold races on a 4 ms grid each connect comes up by splicing, the relay
// sees exactly one data open per connect, and the discarded halves leave
// no routed link on either node and no goroutine behind, whatever the
// scheduler does.
func TestHealthySpliceDiscardsRoutedHalf(t *testing.T) {
	raceHealthySplices(t, time.Hour)
}

// TestHealthySpliceBeatsDerivedHeadStart: the same twenty cold races
// with no head-start override, so routed is due one measured
// service-link round trip after the reply, and its link is parked by
// then. A healthy splice is won right behind the reply, long before
// that: every connect still comes up by splicing. The gate is a timer,
// not an event order.
func TestHealthySpliceBeatsDerivedHeadStart(t *testing.T) {
	raceHealthySplices(t, 0)
}

// raceHealthySplices runs twenty cold connects between two stateful
// sites on the 4 ms grid at time scale 1, the initiator's head start
// set to stagger (zero: derived from the service link), and fails
// unless each comes up by splicing and carries a message with one data
// open at the relay, and the routed links and goroutines of the lot are
// gone at the end.
func raceHealthySplices(t *testing.T, stagger time.Duration) {
	g := newShapedGrid(t, 1)
	a := g.node("alice", "site-a", stateful, nil)
	b := g.node("bob", "site-b", stateful, nil)
	a.connector.SpliceTimeout = 10 * time.Second
	b.connector.SpliceTimeout = 10 * time.Second
	a.connector.RaceStagger = stagger
	if got := estab.RankCandidates(a.Profile(), b.Profile(), false); len(got) != 2 || got[0] != estab.Splicing || got[1] != estab.Routed {
		t.Fatalf("the pair ranks %v, want splicing then routed", got)
	}
	reg := obs.NewRegistry()
	g.dep.Relays[0].Server.MetricsInto(reg)
	opens := func() float64 {
		v, ok := scrapeReg(t, reg).Value("netibis_estab_open_frames_total")
		if !ok {
			t.Fatal("the relay reports no open-frame counter")
		}
		return v
	}

	pt := ipl.PortType{Name: "chan", Stack: "tcpblk"}
	rp, err := b.CreateReceivePort(pt, "inbox")
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	if _, err := a.Ping("bob"); err != nil { // the service link's open
		t.Fatal(err)
	}
	base, linksA, linksB := opens(), a.relayCli.LinkCount(), b.relayCli.LinkCount()
	checkLeaks := testutil.LeakCheck(t, 0)
	for i := 0; i < 20; i++ {
		sp, err := a.CreateSendPort(pt)
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.Connect(rp.ID()); err != nil {
			t.Fatalf("connect %d: %v", i, err)
		}
		if m := SendPortMethods(sp)[rp.ID().String()]; m != estab.Splicing {
			t.Fatalf("connect %d came up by %v, want splicing", i, m)
		}
		sendText(t, sp, "spliced")
		if got, _ := recvText(t, rp); got != "spliced" {
			t.Fatalf("connect %d carried %q", i, got)
		}
		if err := sp.Close(); err != nil {
			t.Fatal(err)
		}
		if why := testutil.Settle(func() (bool, string) {
			n := opens() - base
			return n == float64(i+1), fmt.Sprintf("the relay saw %v link opens over %d healthy splices, want one each", n, i+1)
		}); why != "" {
			t.Fatal(why)
		}
		a.connector.Cache.Invalidate(b.relayID()) // every connect races afresh
	}
	if why := testutil.Settle(func() (bool, string) {
		na, nb := a.relayCli.LinkCount(), b.relayCli.LinkCount()
		return na == linksA && nb == linksB, fmt.Sprintf("routed links: the initiator holds %d (%d before), the acceptor %d (%d before)", na, linksA, nb, linksB)
	}); why != "" {
		t.Error(why)
	}
	checkLeaks()
}

// TestServiceLinkToAbsentPeerFailsFast: a first connect dials the peer
// without asking the registry first; the refusal asks it, and its "never
// joined" is final: ErrPeerUnavailable long before the dial's retries
// (the accept timeout) run out, with no goroutine and no half-open routed
// link left behind.
func TestServiceLinkToAbsentPeerFailsFast(t *testing.T) {
	g := newShapedGrid(t, 0.25)
	a := g.node("alice", "site-a", stateful, nil)
	links := a.relayCli.LinkCount()
	checkLeaks := testutil.LeakCheck(t, 0)
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := a.Ping("nobody"); !errors.Is(err, ErrPeerUnavailable) {
			t.Fatalf("ping to a peer that never joined: %v, want ErrPeerUnavailable", err)
		}
		if elapsed := time.Since(start); elapsed > a.connector.ResolvedAcceptTimeout()/2 {
			t.Fatalf("ping to a peer that never joined took %v: the dial's retries ran on", elapsed)
		}
	}
	if why := testutil.Settle(func() (bool, string) {
		n := a.relayCli.LinkCount()
		return n == links, fmt.Sprintf("%d routed links, %d before", n, links)
	}); why != "" {
		t.Error(why)
	}
	checkLeaks()
}

// TestRefusedDialAsksRegistryOnce: a peer whose registry record outlived
// its attachment is refused on every retry of the dial's gossip window;
// the registry, which cannot tell that apart from gossip in flight, is
// asked about it once per dial, not once per retry.
func TestRefusedDialAsksRegistryOnce(t *testing.T) {
	g := newTestGrid(t)
	reg := obs.NewRegistry()
	g.dep.Registry.MetricsInto(reg)
	g.dep.Relays[0].Server.MetricsInto(reg)
	a := g.node("alice", "site-a", stateful, nil)
	a.connector.AcceptTimeout = 300 * time.Millisecond
	if err := a.Registry().Register(a.nodeKey("ghost"), []byte("a record that outlived its node")); err != nil {
		t.Fatal(err)
	}
	counts := func() (opens, lookups float64) {
		sc := scrapeReg(t, reg)
		opens, _ = sc.Value("netibis_estab_open_frames_total")
		return opens, sc.Labeled("netibis_nameservice_lookup_total", "result")["ok"]
	}
	opens0, lookups0 := counts()
	if _, err := a.Ping("ghost"); !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("ping to a peer no relay knows: %v, want ErrPeerUnavailable", err)
	}
	opens, lookups := counts()
	if opens -= opens0; opens < 3 {
		t.Fatalf("the dial was refused %v times; the test needs it retried", opens)
	}
	if lookups -= lookups0; lookups != 1 {
		t.Errorf("%v refusals asked the registry %v times, want once", opens, lookups)
	}
}
