package estab

import (
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"netibis/internal/emunet"
	"netibis/internal/testutil"
	"netibis/internal/wire"
)

// establishPairOpts runs EstablishInitiator/EstablishAcceptor
// concurrently over an in-memory service link, each end wrapped in a
// ServiceMux and each side handed the other's profile as core's connect
// request/reply would, and returns both data links — or the error, so
// failure paths can be asserted too.
func establishPairOpts(t *testing.T, init, acc *Connector, opts EstablishOpts) (net.Conn, net.Conn, Method, error) {
	t.Helper()
	svcInit, svcAcc := net.Pipe()
	defer svcInit.Close()
	defer svcAcc.Close()
	return establishOver(t, svcInit, svcAcc, init, acc, opts)
}

// establishOver is establishPairOpts on the caller's service link. Like
// core, each side finishes its mux once its own establishment returned.
func establishOver(t *testing.T, svcInit, svcAcc net.Conn, init, acc *Connector, opts EstablishOpts) (net.Conn, net.Conn, Method, error) {
	t.Helper()
	muxInit, muxAcc := NewServiceMux(svcInit), NewServiceMux(svcAcc)

	type res struct {
		conn net.Conn
		m    Method
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		conn, m, err := acc.EstablishAcceptor(muxAcc.Open(), init.Profile())
		if ferr := muxAcc.Finish(); ferr != nil {
			t.Errorf("acceptor's Finish: %v", ferr)
		}
		ch <- res{conn, m, err}
	}()
	conn, m, err := init.EstablishInitiator(muxInit.Open(), acc.Profile(), opts)
	if ferr := muxInit.Finish(); ferr != nil {
		t.Errorf("initiator's Finish: %v", ferr)
	}
	r := <-ch
	if (err == nil) != (conn != nil) || (r.err == nil) != (r.conn != nil) {
		t.Fatalf("a nil error must come with a connection: initiator (%v, %v), acceptor (%v, %v)", conn, err, r.conn, r.err)
	}
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

// handPeer drives one end of a service link frame by frame, standing in
// for a peer that does not follow the protocol. What the node under test
// writes is read and dropped.
type handPeer struct {
	conn    net.Conn
	drained chan struct{}
}

func newHandPeer(conn net.Conn) *handPeer {
	p := &handPeer{conn: conn, drained: make(chan struct{})}
	go func() {
		defer close(p.drained)
		io.Copy(io.Discard, conn)
	}()
	return p
}

// frame is one wire frame of a handPeer's script.
type frame struct {
	kind    byte
	payload []byte
}

// msg is a well-formed message of conversation 0.
func msg(method Method, t byte, body ...byte) frame {
	return frame{kindMuxData, append(appendMuxHeader(nil, 0, method, t), body...)}
}

var doneMarker = frame{kind: kindMuxDone}

// play writes the script in the background (the link is synchronous, and
// a node that has given up on it reads no more); the returned function
// closes the link and waits for the writer and the drain to exit.
func (p *handPeer) play(script ...frame) (stop func()) {
	written := make(chan struct{})
	go func() {
		defer close(written)
		w := wire.NewWriter(p.conn)
		for _, f := range script {
			if w.WriteFrame(f.kind, 0, f.payload) != nil {
				return
			}
		}
	}()
	return func() {
		p.conn.Close()
		<-written
		<-p.drained
	}
}

// TestRoutedCueCarriesNoBody: msgRouted is an empty cue. The acceptor
// waits for the routed link of the peer whose profile it was handed; a
// cue that tries to say who is coming is a protocol error.
func TestRoutedCueCarriesNoBody(t *testing.T) {
	w := newWorld(t)
	acc := w.connector(t, "cue-b", "race-a9", emunet.SiteConfig{Firewall: emunet.Stateful}, false)
	svcInit, svcAcc := net.Pipe()
	defer svcAcc.Close()

	// A hand-driven initiator: plan routed, cue with a body, elect it.
	stop := newHandPeer(svcInit).play(
		msg(MethodNone, msgPlan, byte(Routed)),
		msg(Routed, msgRouted, []byte("race-a1")...),
		msg(MethodNone, msgElect, byte(Routed)),
		doneMarker)
	defer stop()
	mux := NewServiceMux(svcAcc)
	conn, _, err := acc.EstablishAcceptor(mux.Open(), Profile{HasRelay: true, RelayID: "race-i9"})
	if conn != nil {
		conn.Close()
	}
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("acceptor returned %v for a routed cue with a body, want ErrProtocol", err)
	}
	if err := mux.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// TestElectOutsidePlanIsProtocolError: the election names a method of the
// round's plan or MethodNone. Electing anything else used to make the
// acceptor return no connection and no error, which its caller
// dereferenced.
func TestElectOutsidePlanIsProtocolError(t *testing.T) {
	w := newWorld(t)
	acc := w.connector(t, "elect-b", "race-a10", emunet.SiteConfig{Firewall: emunet.Open}, false)
	svcInit, svcAcc := net.Pipe()
	defer svcAcc.Close()

	stop := newHandPeer(svcInit).play(
		msg(MethodNone, msgPlan, byte(ClientServer)),
		msg(MethodNone, msgElect, byte(Proxy)),
		doneMarker)
	defer stop()
	mux := NewServiceMux(svcAcc)
	conn, _, err := acc.EstablishAcceptor(mux.Open(), Profile{Firewalled: true, HasRelay: true, RelayID: "race-i10"})
	if conn != nil || !errors.Is(err, ErrProtocol) {
		t.Fatalf("electing a method outside the plan: conn=%v err=%v, want no connection and ErrProtocol", conn, err)
	}
	if err := mux.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// TestEstabStrictDecode: the establishment protocol has one shape, and
// everything else ends the conversation with ErrProtocol rather than
// being skipped — a malformed mux message, a message on the wrong
// conversation or from the wrong side, a plan or an election that breaks
// the round rules. The first two scripts are well formed and end
// otherwise, which shows the harness is not what raises ErrProtocol.
func TestEstabStrictDecode(t *testing.T) {
	w := newWorld(t)
	acc := w.connector(t, "strict-b", "race-a11", emunet.SiteConfig{Firewall: emunet.Stateful}, false)
	init := w.connector(t, "strict-a", "race-i11", emunet.SiteConfig{Firewall: emunet.Stateful}, false)
	init.ForcedMethod = ClientServer // as the dialing side: one attempt, waiting for msgListen
	open := Profile{HasRelay: true, RelayID: "race-x11"}

	plan := func(ms ...Method) frame { return msg(MethodNone, msgPlan, encodePlan(ms)...) }
	elect := func(m Method) frame { return msg(MethodNone, msgElect, byte(m)) }
	raw := func(p ...byte) frame { return frame{kindMuxData, p} }
	for _, tc := range []struct {
		name      string
		initiator bool // the side under test; the script is its peer's
		script    []frame
		want      error
	}{
		{"empty first plan", false, []frame{plan()}, ErrNoMethod},
		{"abort", false, []frame{msg(MethodNone, msgAbort)}, ErrAborted},

		{"message cut inside the stream number", false, []frame{raw(0x80)}, ErrProtocol},
		{"message cut inside the method", false, []frame{raw(0)}, ErrProtocol},
		{"message cut inside the type", false, []frame{raw(0, byte(Routed))}, ErrProtocol},
		{"stream number not minimally encoded", false, []frame{raw(0x80, 0, 0, msgPlan, byte(Routed))}, ErrProtocol},
		{"method above Routed", false, []frame{msg(Routed+1, msgListen)}, ErrProtocol},
		{"type zero", false, []frame{msg(MethodNone, 0)}, ErrProtocol},
		{"type above msgElect", false, []frame{msg(MethodNone, msgElect+1)}, ErrProtocol},
		{"control type on a method conversation", false, []frame{msg(Routed, msgPlan, byte(Routed))}, ErrProtocol},
		{"method type on the control conversation", false, []frame{msg(MethodNone, msgRouted)}, ErrProtocol},
		{"abort with a body", false, []frame{msg(MethodNone, msgAbort, 1)}, ErrProtocol},
		{"frame that is no mux message", false, []frame{{wire.KindControl, nil}}, ErrProtocol},

		{"plan naming an unknown method", false, []frame{plan(Routed + 1)}, ErrProtocol},
		{"plan naming MethodNone", false, []frame{plan(MethodNone)}, ErrProtocol},
		{"plan repeating a method", false, []frame{plan(Routed, Routed)}, ErrProtocol},
		{"plan naming a method already run", false, []frame{plan(Routed), elect(MethodNone), plan(Splicing, Routed)}, ErrProtocol},
		{"empty plan after a round", false, []frame{plan(Routed), elect(MethodNone), plan()}, ErrProtocol},
		{"election before any plan", false, []frame{elect(MethodNone)}, ErrProtocol},
		{"plan inside a round", false, []frame{plan(Routed), plan(Splicing)}, ErrProtocol},
		{"election of two methods", false, []frame{plan(Routed), msg(MethodNone, msgElect, byte(Routed), byte(Routed))}, ErrProtocol},
		{"empty election", false, []frame{plan(Routed), msg(MethodNone, msgElect)}, ErrProtocol},
		{"election outside the plan", false, []frame{plan(Routed), elect(Splicing)}, ErrProtocol},

		{"plan from the acceptor", true, []frame{plan(Routed)}, ErrProtocol},
		{"election from the acceptor", true, []frame{elect(MethodNone)}, ErrProtocol},
		{"establishment abort from the acceptor", true, []frame{msg(MethodNone, msgAbort)}, ErrProtocol},
	} {
		hand, svc := net.Pipe()
		stop := newHandPeer(hand).play(append(tc.script, doneMarker)...)
		mux := NewServiceMux(svc)
		var conn net.Conn
		var err error
		if tc.initiator {
			conn, _, err = init.EstablishInitiator(mux.Open(), open, EstablishOpts{})
		} else {
			conn, _, err = acc.EstablishAcceptor(mux.Open(), open)
		}
		if conn != nil || !errors.Is(err, tc.want) {
			t.Errorf("%s: conn=%v err=%v, want no connection and %v", tc.name, conn, err, tc.want)
		}
		// A malformed frame ends the whole mux, and Finish says so; a
		// well-formed message that breaks a rule ends its conversation.
		if ferr := mux.Finish(); ferr != nil && !(errors.Is(ferr, ErrProtocol) && errors.Is(err, ErrProtocol)) {
			t.Errorf("%s: Finish: %v", tc.name, ferr)
		}
		stop()
		svc.Close()
	}
}

// TestFallbackRoundIgnoresLateFrames: a race's rounds share the
// conversation with no barrier between them, because a method belongs to
// one round only. Over a synchronous link the cached method (client/
// server) fails, the initiator sends the second plan at once, and only
// then do the acceptor's msgListen of the failed method and an abort of
// it arrive. The second round elects its winner all the same, neither
// late message reaches one of its attempts, and nothing is left running.
func TestFallbackRoundIgnoresLateFrames(t *testing.T) {
	w := newWorld(t)
	init := w.connector(t, "late-a", "race-i12", emunet.SiteConfig{Firewall: emunet.Stateful}, false)
	acc := w.connector(t, "late-b", "race-a12", emunet.SiteConfig{Firewall: emunet.Open}, false)
	init.RaceStagger = time.Hour // round two is decided by its first method alone
	init.Cache = NewCache(0)
	init.Cache.Store("race-a12", ClientServer)
	checkLeaks := testutil.LeakCheck(t, 0)

	// The man in the middle: it withholds the acceptor's msgListen, fails
	// the method with an abort in its place, and delivers the withheld
	// message and a second abort right behind the initiator's second plan.
	svcInit, midInit := net.Pipe()
	midAcc, svcAcc := net.Pipe()
	var toInitMu sync.Mutex
	toInit := wire.NewWriter(midInit)
	forward := func(from net.Conn, to *wire.Writer, mu *sync.Mutex, tamper func(muxMsg, frame) []frame) {
		r := wire.NewReader(from)
		for {
			f, err := r.ReadFrame()
			if err != nil {
				t.Errorf("relaying the service link: %v", err)
				return
			}
			out := []frame{{f.Kind, f.Payload}}
			if f.Kind == kindMuxData {
				m, err := decodeMuxMessage(f.Payload)
				if err != nil {
					t.Errorf("relaying the service link: %v", err)
					return
				}
				out = tamper(m, out[0])
			}
			mu.Lock()
			for _, o := range out {
				to.WriteFrame(o.kind, 0, o.payload)
			}
			mu.Unlock()
			if f.Kind == kindMuxDone {
				return
			}
		}
	}
	var relays sync.WaitGroup
	relays.Add(2)
	withheld := make(chan frame, 1)
	go func() { // acceptor → initiator
		defer relays.Done()
		forward(midAcc, toInit, &toInitMu, func(m muxMsg, f frame) []frame {
			if m.method == ClientServer && m.t == msgListen {
				withheld <- f
				return []frame{msg(ClientServer, msgAbort)}
			}
			return []frame{f}
		})
	}()
	go func() { // initiator → acceptor
		defer relays.Done()
		plans := 0
		var toAccMu sync.Mutex
		forward(midInit, wire.NewWriter(midAcc), &toAccMu, func(m muxMsg, f frame) []frame {
			if m.t == msgPlan {
				if plans++; plans == 2 {
					// Behind the plan, and before anything the acceptor
					// answers it with.
					toInitMu.Lock()
					defer toInitMu.Unlock()
					late := <-withheld
					toInit.WriteFrame(late.kind, 0, late.payload)
					toInit.WriteFrame(kindMuxData, 0, msg(ClientServer, msgAbort).payload)
				}
			}
			return []frame{f}
		})
	}()

	a, b, m, err := establishOver(t, svcInit, svcAcc, init, acc, EstablishOpts{PeerKey: "race-a12"})
	if err != nil {
		t.Fatalf("fallback round: %v", err)
	}
	if m != Splicing {
		t.Fatalf("method = %v, want Splicing, the head of the second plan", m)
	}
	if got, ok := init.Cache.Lookup("race-a12"); !ok || got != Splicing {
		t.Fatalf("cache after the fallback = %v/%v, want Splicing", got, ok)
	}
	verifyLink(t, a, b)
	relays.Wait()
	for _, c := range []net.Conn{svcInit, midInit, midAcc, svcAcc} {
		c.Close()
	}
	checkLeaks()
}

// TestConnectorTimeoutDefaults pins the documented zero-value rule: both
// timeout knobs fall back to their package defaults, identically.
func TestConnectorTimeoutDefaults(t *testing.T) {
	c := &Connector{}
	if got := c.spliceTimeout(); got != DefaultSpliceTimeout {
		t.Fatalf("zero SpliceTimeout resolves to %v, want %v", got, DefaultSpliceTimeout)
	}
	if got := c.ResolvedAcceptTimeout(); got != DefaultAcceptTimeout {
		t.Fatalf("zero AcceptTimeout resolves to %v, want %v", got, DefaultAcceptTimeout)
	}
	c.SpliceTimeout = -time.Second
	c.AcceptTimeout = -time.Second
	if c.spliceTimeout() != DefaultSpliceTimeout || c.ResolvedAcceptTimeout() != DefaultAcceptTimeout {
		t.Fatal("negative timeouts must resolve to the defaults too")
	}
	c.SpliceTimeout = 7 * time.Second
	c.AcceptTimeout = 9 * time.Second
	if c.spliceTimeout() != 7*time.Second || c.ResolvedAcceptTimeout() != 9*time.Second {
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
	if cands := RankCandidates(open, open, false); !slices.Contains(cands, ClientServer) {
		t.Fatalf("open pair lost client/server: %v", cands)
	}
}
