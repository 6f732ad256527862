package estab

import (
	"errors"
	"net"
	"testing"
	"time"

	"netibis/internal/emunet"
)

// establishPairOpts runs EstablishInitiator/EstablishAcceptor
// concurrently over an in-memory service link, each side handed the
// other's profile as core's connect request/reply would, and returns
// both data links — or the error, so failure paths can be asserted too.
func establishPairOpts(t *testing.T, init, acc *Connector, opts EstablishOpts) (net.Conn, net.Conn, Method, error) {
	t.Helper()
	svcInit, svcAcc := net.Pipe()
	defer svcInit.Close()
	defer svcAcc.Close()

	type res struct {
		conn net.Conn
		m    Method
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		conn, m, err := acc.EstablishAcceptor(svcAcc, init.Profile())
		ch <- res{conn, m, err}
	}()
	conn, m, err := init.EstablishInitiator(svcInit, acc.Profile(), opts)
	r := <-ch
	if err != nil {
		if r.conn != nil {
			r.conn.Close()
		}
		return nil, nil, m, err
	}
	if r.err != nil {
		conn.Close()
		return nil, nil, m, r.err
	}
	if r.m != m {
		t.Fatalf("method mismatch: initiator %v, acceptor %v", m, r.m)
	}
	return conn, r.conn, m, nil
}

// TestRaceBeatsHostileSplice is the tentpole behaviour: between two
// firewalled sites where one firewall silently drops simultaneous-open
// SYNs, the decision tree picks splicing and a one-at-a-time walk pays
// its full timeout before falling back. The race starts the routed
// candidate one stagger tier later and wins long before the splice
// would time out.
func TestRaceBeatsHostileSplice(t *testing.T) {
	w := newWorld(t)
	init := w.connector(t, "asym-a", "race-i1", emunet.SiteConfig{Firewall: emunet.Stateful, SpliceHostile: true}, false)
	acc := w.connector(t, "asym-b", "race-a1", emunet.SiteConfig{Firewall: emunet.Stateful}, false)
	init.SpliceTimeout = 2 * time.Second
	acc.SpliceTimeout = 2 * time.Second
	init.RaceStagger = 50 * time.Millisecond
	acc.RaceStagger = 50 * time.Millisecond

	start := time.Now()
	a, b, m, err := establishPairOpts(t, init, acc, EstablishOpts{})
	if err != nil {
		t.Fatalf("race: %v", err)
	}
	elapsed := time.Since(start)
	if m != Routed {
		t.Fatalf("method = %v, want Routed (splice is hostile)", m)
	}
	// A one-at-a-time walk would burn the full 2 s splice timeout; the
	// race must settle in roughly one stagger tier.
	if elapsed > time.Second {
		t.Fatalf("race took %v, should beat the 2s splice timeout comfortably", elapsed)
	}
	verifyLink(t, a, b)
}

// TestRacePortRestrictedNAT: the NAT looks spliceable in the profile (it
// is endpoint-independent) but never maps to the predicted port, so the
// splice attempt hangs and the race falls through to routed messages.
func TestRacePortRestrictedNAT(t *testing.T) {
	w := newWorld(t)
	init := w.connector(t, "prnat", "race-i2", emunet.SiteConfig{Firewall: emunet.Stateful, NAT: emunet.PortRestrictedNAT}, false)
	acc := w.connector(t, "fw-prn", "race-a2", emunet.SiteConfig{Firewall: emunet.Stateful}, false)
	init.SpliceTimeout = 2 * time.Second
	acc.SpliceTimeout = 2 * time.Second
	init.RaceStagger = 50 * time.Millisecond
	acc.RaceStagger = 50 * time.Millisecond

	start := time.Now()
	a, b, m, err := establishPairOpts(t, init, acc, EstablishOpts{})
	if err != nil {
		t.Fatalf("race: %v", err)
	}
	if m != Routed {
		t.Fatalf("method = %v, want Routed", m)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("race took %v", elapsed)
	}
	verifyLink(t, a, b)
}

// TestCacheSkipsRaceOnReconnect: after a cold race the winner is
// remembered, and the reconnect's plan is the single cached method.
func TestCacheSkipsRaceOnReconnect(t *testing.T) {
	w := newWorld(t)
	init := w.connector(t, "cache-a", "race-i3", emunet.SiteConfig{Firewall: emunet.Stateful, SpliceHostile: true}, false)
	acc := w.connector(t, "cache-b", "race-a3", emunet.SiteConfig{Firewall: emunet.Stateful}, false)
	init.SpliceTimeout = 500 * time.Millisecond
	acc.SpliceTimeout = 500 * time.Millisecond
	init.RaceStagger = 30 * time.Millisecond
	acc.RaceStagger = 30 * time.Millisecond
	init.Cache = NewCache(0)
	opts := EstablishOpts{PeerKey: "race-a3"}

	a, b, m, err := establishPairOpts(t, init, acc, opts)
	if err != nil {
		t.Fatalf("cold race: %v", err)
	}
	if m != Routed {
		t.Fatalf("cold method = %v, want Routed", m)
	}
	a.Close()
	b.Close()
	if got, ok := init.Cache.Lookup("race-a3"); !ok || got != Routed {
		t.Fatalf("cache entry = %v/%v, want Routed/true", got, ok)
	}

	// Reconnect: the cached round runs the winner alone — no splice
	// offer is ever registered, so it settles immediately.
	start := time.Now()
	a, b, m, err = establishPairOpts(t, init, acc, opts)
	if err != nil {
		t.Fatalf("cached reconnect: %v", err)
	}
	if m != Routed {
		t.Fatalf("cached method = %v", m)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("cached reconnect took %v, expected immediate", elapsed)
	}
	verifyLink(t, a, b)
	if w.fabric.PendingSplices() != 0 {
		t.Fatalf("%d splice offers leaked", w.fabric.PendingSplices())
	}
}

// TestCacheFailureFallsBackToFullRace: a cached winner that stopped
// working is invalidated in-establishment and the full race still
// connects the pair.
func TestCacheFailureFallsBackToFullRace(t *testing.T) {
	w := newWorld(t)
	init := w.connector(t, "fall-a", "race-i4", emunet.SiteConfig{Firewall: emunet.Stateful, SpliceHostile: true}, false)
	acc := w.connector(t, "fall-b", "race-a4", emunet.SiteConfig{Firewall: emunet.Stateful}, false)
	init.SpliceTimeout = 200 * time.Millisecond
	acc.SpliceTimeout = 200 * time.Millisecond
	init.RaceStagger = 30 * time.Millisecond
	acc.RaceStagger = 30 * time.Millisecond
	init.Cache = NewCache(0)
	// Poison the cache with the method that cannot work for this pair.
	init.Cache.Store("race-a4", Splicing)
	opts := EstablishOpts{PeerKey: "race-a4"}

	a, b, m, err := establishPairOpts(t, init, acc, opts)
	if err != nil {
		t.Fatalf("fallback race: %v", err)
	}
	if m != Routed {
		t.Fatalf("method = %v, want Routed after cached splice failed", m)
	}
	if got, ok := init.Cache.Lookup("race-a4"); !ok || got != Routed {
		t.Fatalf("cache after fallback = %v/%v, want Routed", got, ok)
	}
	verifyLink(t, a, b)
}

// TestCachedMethodNoLongerPossibleIsSkipped: a remembered winner that the
// two live profiles rule out (client/server between two stateful
// firewalls — the peer was reachable when the entry was written) never
// reaches a plan. The consultation counts as a miss, nothing is
// invalidated or retried, the full race runs, and its winner replaces
// the entry.
func TestCachedMethodNoLongerPossibleIsSkipped(t *testing.T) {
	w := newWorld(t)
	init := w.connector(t, "stale-a", "race-i8", emunet.SiteConfig{Firewall: emunet.Stateful}, false)
	acc := w.connector(t, "stale-b", "race-a8", emunet.SiteConfig{Firewall: emunet.Stateful}, false)
	init.Cache = NewCache(0)
	init.Metrics = NewMetrics()
	init.Cache.Store("race-a8", ClientServer)

	a, b, m, err := establishPairOpts(t, init, acc, EstablishOpts{PeerKey: "race-a8"})
	if err != nil {
		t.Fatalf("establish: %v", err)
	}
	if m != Splicing {
		t.Fatalf("method = %v, want Splicing", m)
	}
	mt := init.Metrics
	if mt.CacheHits.Value() != 0 || mt.CacheMisses.Value() != 1 || mt.Invalidations.Value() != 0 || mt.CachedRounds.Value() != 0 {
		t.Fatalf("hits %d misses %d invalidations %d cached rounds %d: the impossible remembered method was planned",
			mt.CacheHits.Value(), mt.CacheMisses.Value(), mt.Invalidations.Value(), mt.CachedRounds.Value())
	}
	if got, ok := init.Cache.Lookup("race-a8"); !ok || got != Splicing {
		t.Fatalf("cache after the race = %v/%v, want Splicing", got, ok)
	}
	verifyLink(t, a, b)
}

// TestRaceNoMethodIsProtocolDriven: with no relay and no reachable
// direction the initiator announces the empty plan, so both sides agree
// on ErrNoMethod without relying on identical local decisions.
func TestRaceNoMethodIsProtocolDriven(t *testing.T) {
	f := emunet.NewFabric(emunet.WithSeed(3))
	t.Cleanup(f.Close)
	hA := f.AddSite("nm-a", emunet.SiteConfig{Firewall: emunet.Stateful, NAT: emunet.BrokenNAT}).AddHost("a")
	hB := f.AddSite("nm-b", emunet.SiteConfig{Firewall: emunet.Stateful, NAT: emunet.BrokenNAT}).AddHost("b")
	init := &Connector{Host: hA}
	acc := &Connector{Host: hB}
	_, _, _, err := establishPairOpts(t, init, acc, EstablishOpts{})
	if !errors.Is(err, ErrNoMethod) {
		t.Fatalf("err = %v, want ErrNoMethod", err)
	}
}

// TestSequentialModePreserved: the strict one-method-at-a-time decision
// tree is the race with a stagger no method outlasts, set on the
// initiator alone (the acceptor follows the initiator's plan).
func TestSequentialModePreserved(t *testing.T) {
	w := newWorld(t)
	init := w.connector(t, "seq-a", "race-i5", emunet.SiteConfig{Firewall: emunet.Stateful}, false)
	acc := w.connector(t, "seq-b", "race-a5", emunet.SiteConfig{Firewall: emunet.Stateful}, false)
	init.RaceStagger = time.Hour
	a, b, m, err := establishPairOpts(t, init, acc, EstablishOpts{})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	if m != Splicing {
		t.Fatalf("method = %v, want Splicing", m)
	}
	verifyLink(t, a, b)
}

// TestSequentialPaysHostileSpliceTimeout pins down the cost the stagger
// removes: with an infinite stagger the initiator commits to splicing,
// eats the whole timeout, and only then launches the routed candidate.
func TestSequentialPaysHostileSpliceTimeout(t *testing.T) {
	w := newWorld(t)
	init := w.connector(t, "seqh-a", "race-i6", emunet.SiteConfig{Firewall: emunet.Stateful, SpliceHostile: true}, false)
	acc := w.connector(t, "seqh-b", "race-a6", emunet.SiteConfig{Firewall: emunet.Stateful}, false)
	init.RaceStagger = time.Hour
	init.SpliceTimeout = 300 * time.Millisecond
	acc.SpliceTimeout = 300 * time.Millisecond
	start := time.Now()
	a, b, m, err := establishPairOpts(t, init, acc, EstablishOpts{})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	if m != Routed {
		t.Fatalf("method = %v, want Routed after the splice failed", m)
	}
	if elapsed := time.Since(start); elapsed < 270*time.Millisecond { // 0.9 × SpliceTimeout
		t.Fatalf("sequential connected after %v, expected it to wait out the splice timeout first", elapsed)
	}
	verifyLink(t, a, b)
}

// TestPeerAbortUnblocksListener: when one side of a racing method fails
// fast (here: the proxy side cannot reach its SOCKS proxy), its tagged
// abort must cancel the counterpart attempt even though that attempt is
// blocked in a listener accept and never reads the conversation — the
// round settles promptly instead of waiting out the accept timeout.
func TestPeerAbortUnblocksListener(t *testing.T) {
	w := newWorld(t)
	init := w.connector(t, "abort-a", "race-i7", emunet.SiteConfig{Firewall: emunet.Stateful}, false)
	acc := w.connector(t, "abort-b", "race-a7", emunet.SiteConfig{Firewall: emunet.Open}, false)
	// The initiator believes it has a proxy, but the endpoint is dead:
	// its CONNECT dial fails immediately.
	init.ProxyAddr = emunet.Endpoint{Addr: w.gateway.Address(), Port: 9}
	init.ForcedMethod = Proxy
	acc.ForcedMethod = Proxy
	init.AcceptTimeout = 3 * time.Second
	acc.AcceptTimeout = 3 * time.Second

	start := time.Now()
	_, _, _, err := establishPairOpts(t, init, acc, EstablishOpts{})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("establishment unexpectedly succeeded through a dead proxy")
	}
	if elapsed > 1500*time.Millisecond {
		t.Fatalf("round took %v: the acceptor's listener waited out its timeout instead of being aborted", elapsed)
	}
}

// TestRoutedCueCarriesNoBody: msgRouted is an empty cue. The acceptor
// waits for the routed link of the peer whose profile it was handed; a
// cue that tries to say who is coming is a protocol error.
func TestRoutedCueCarriesNoBody(t *testing.T) {
	w := newWorld(t)
	acc := w.connector(t, "cue-b", "race-a9", emunet.SiteConfig{Firewall: emunet.Stateful}, false)
	svcInit, svcAcc := net.Pipe()
	defer svcInit.Close()
	defer svcAcc.Close()

	done := make(chan error, 1)
	go func() {
		conn, _, err := acc.EstablishAcceptor(svcAcc, Profile{HasRelay: true, RelayID: "race-i9"})
		if conn != nil {
			conn.Close()
		}
		done <- err
	}()
	// A hand-driven initiator: plan routed, cue with a body, elect it.
	b := newBroker(svcInit)
	go func() {
		for {
			if _, _, err := b.recv(); err != nil {
				return
			}
		}
	}()
	b.send(msgPlan, encodePlan([]Method{Routed}))
	b.send(msgRace, append([]byte{byte(Routed), msgRouted}, "race-a1"...))
	b.send(msgElect, []byte{byte(Routed)})
	b.send(msgRaceDone, nil)
	if err := <-done; !errors.Is(err, ErrProtocol) {
		t.Fatalf("acceptor returned %v for a routed cue with a body, want ErrProtocol", err)
	}
}

// TestConnectorTimeoutDefaults pins the documented zero-value rule: both
// timeout knobs fall back to their package defaults, identically.
func TestConnectorTimeoutDefaults(t *testing.T) {
	c := &Connector{}
	if got := c.spliceTimeout(); got != DefaultSpliceTimeout {
		t.Fatalf("zero SpliceTimeout resolves to %v, want %v", got, DefaultSpliceTimeout)
	}
	if got := c.acceptTimeout(); got != DefaultAcceptTimeout {
		t.Fatalf("zero AcceptTimeout resolves to %v, want %v", got, DefaultAcceptTimeout)
	}
	c.SpliceTimeout = -time.Second
	c.AcceptTimeout = -time.Second
	if c.spliceTimeout() != DefaultSpliceTimeout || c.acceptTimeout() != DefaultAcceptTimeout {
		t.Fatal("negative timeouts must resolve to the defaults too")
	}
	c.SpliceTimeout = 7 * time.Second
	c.AcceptTimeout = 9 * time.Second
	if c.spliceTimeout() != 7*time.Second || c.acceptTimeout() != 9*time.Second {
		t.Fatal("positive timeouts must be used as-is")
	}
}

// --- cache unit tests ---------------------------------------------------------------

func TestCacheTTLExpiry(t *testing.T) {
	c := NewCache(time.Minute)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	c.Store("p", Splicing)
	if m, ok := c.Lookup("p"); !ok || m != Splicing {
		t.Fatalf("fresh entry = %v/%v", m, ok)
	}
	now = now.Add(2 * time.Minute)
	if _, ok := c.Lookup("p"); ok {
		t.Fatal("expired entry still served")
	}
	if c.Len() != 0 {
		t.Fatal("expired entry not evicted on lookup")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(0)
	c.Store("p", Routed)
	c.Invalidate("p")
	if _, ok := c.Lookup("p"); ok {
		t.Fatal("invalidated entry still served")
	}
}

// TestRankCandidates: the race plan is the full Possible list in
// precedence order, with Decide as its head.
func TestRankCandidates(t *testing.T) {
	open := Profile{}
	fw := Profile{Firewalled: true, HasRelay: true, RelayID: "fw"}
	openR := Profile{HasRelay: true, RelayID: "open"}
	got := RankCandidates(fw, openR, false)
	want := []Method{ClientServer, Splicing, Routed}
	if len(got) != len(want) {
		t.Fatalf("candidates = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidates = %v, want %v", got, want)
		}
	}
	d, err := Decide(fw, openR, false)
	if err != nil || d != got[0] {
		t.Fatalf("Decide (%v) is not the head of RankCandidates (%v)", d, got)
	}
	if cands := RankCandidates(open, open, false); !methodIn(ClientServer, cands) {
		t.Fatalf("open pair lost client/server: %v", cands)
	}
}
