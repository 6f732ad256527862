package estab

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"netibis/internal/emunet"
	"netibis/internal/identity"
	"netibis/internal/obs"
	"netibis/internal/relay"
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

// newMuxPair wraps the two ends of a one-establishment connect's service
// link, each side holding the endpoints it reserved and the other's, by
// the rule core's connect request and reply hand them over with.
func newMuxPair(t *testing.T, svcInit, svcAcc net.Conn, init, acc *Connector) (*ServiceMux, *ServiceMux) {
	t.Helper()
	ip, ap := init.Profile(), acc.Profile()
	initEps, err := init.Reserve(init.Carries(1, ip, nil))
	if err != nil {
		t.Fatal(err)
	}
	accEps, err := acc.Reserve(acc.Carries(1, ip, &ap))
	if err != nil {
		t.Fatal(err)
	}
	return NewServiceMux(svcInit, wire.NewReader(svcInit), 1, initEps, accEps), NewServiceMux(svcAcc, wire.NewReader(svcAcc), 1, accEps, initEps)
}

// establishOver is establishPairOpts on the caller's service link. Like
// core, each side finishes its mux once its own establishment returned.
func establishOver(t *testing.T, svcInit, svcAcc net.Conn, init, acc *Connector, opts EstablishOpts) (net.Conn, net.Conn, Method, error) {
	t.Helper()
	muxInit, muxAcc := newMuxPair(t, svcInit, svcAcc, init, acc)

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
// remembered, and the reconnect launches the cached method alone.
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

	// Reconnect: the winner runs alone — the acceptor's splice request
	// goes unanswered until the election withdraws it, so it settles
	// immediately and leaves no offer behind.
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
// working runs first and alone, fails, and the rest of the ranking is
// launched in the same conversation — one race, one election — and wins;
// the entry is invalidated and replaced.
func TestCacheFailureFallsBackToFullRace(t *testing.T) {
	w := newWorld(t)
	init := w.connector(t, "fall-a", "race-i4", emunet.SiteConfig{Firewall: emunet.Stateful, SpliceHostile: true}, false)
	acc := w.connector(t, "fall-b", "race-a4", emunet.SiteConfig{Firewall: emunet.Stateful}, false)
	init.SpliceTimeout = 200 * time.Millisecond
	acc.SpliceTimeout = 200 * time.Millisecond
	init.RaceStagger = 30 * time.Millisecond
	acc.RaceStagger = 30 * time.Millisecond
	init.Cache = NewCache(0)
	init.Metrics = NewMetrics()
	// Poison the cache with the method that cannot work for this pair.
	init.Cache.Store("race-a4", Splicing)
	opts := EstablishOpts{PeerKey: "race-a4"}

	svcInit, svcAcc := net.Pipe()
	defer svcInit.Close()
	defer svcAcc.Close()
	tap := &tapConn{Conn: svcInit}
	a, b, m, err := establishOver(t, tap, svcAcc, init, acc, opts)
	if err != nil {
		t.Fatalf("fallback race: %v", err)
	}
	if m != Routed {
		t.Fatalf("method = %v, want Routed after cached splice failed", m)
	}
	if got, ok := init.Cache.Lookup("race-a4"); !ok || got != Routed {
		t.Fatalf("cache after fallback = %v/%v, want Routed", got, ok)
	}
	mt := init.Metrics
	if mt.Races.Value() != 1 || mt.CacheHits.Value() != 1 || mt.Invalidations.Value() != 1 || mt.CachedRounds.Value() != 0 || mt.Wins(Routed) != 1 {
		t.Fatalf("races %d hits %d invalidations %d cached rounds %d routed wins %d, want one race that hit, invalidated and won by routed",
			mt.Races.Value(), mt.CacheHits.Value(), mt.Invalidations.Value(), mt.CachedRounds.Value(), mt.Wins(Routed))
	}
	// What the initiator wrote: one election and the done marker — the
	// fallback asked for nothing.
	var elections int
	for _, f := range tap.frames(t) {
		if f.Kind != kindMuxData {
			continue
		}
		msg, err := decodeMuxMessage(f.Payload)
		if err != nil || msg.stream != 0 || msg.t != msgElect {
			t.Fatalf("initiator wrote %+v (%v), want the election of conversation 0 only", msg, err)
		}
		elections++
	}
	if elections != 1 {
		t.Fatalf("the initiator sent %d elections, want 1", elections)
	}
	verifyLink(t, a, b)
}

// tapConn records what is written through it.
type tapConn struct {
	net.Conn
	mu    sync.Mutex
	wrote bytes.Buffer
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.wrote.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// frames parses what has been written so far.
func (c *tapConn) frames(t *testing.T) []wire.Frame {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []wire.Frame
	r := wire.NewReader(bytes.NewReader(c.wrote.Bytes()))
	for {
		f, err := r.ReadFrame()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("frame %d of the recorded stream: %v", len(out), err)
		}
		out = append(out, f)
	}
}

// TestCachedMethodNoLongerPossibleIsSkipped: a remembered winner that the
// two live profiles rule out (client/server between two stateful
// firewalls — the peer was reachable when the entry was written) never
// is launched. The consultation counts as a miss, nothing is
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
		t.Fatalf("hits %d misses %d invalidations %d cached rounds %d: the impossible remembered method was launched",
			mt.CacheHits.Value(), mt.CacheMisses.Value(), mt.Invalidations.Value(), mt.CachedRounds.Value())
	}
	if got, ok := init.Cache.Lookup("race-a8"); !ok || got != Splicing {
		t.Fatalf("cache after the race = %v/%v, want Splicing", got, ok)
	}
	verifyLink(t, a, b)
}

// TestRaceNoMethodNeedsNoFrame: with no relay and no reachable direction
// the two profiles rank nothing, on both sides alike, so both return
// ErrNoMethod and neither writes anything but its done marker.
func TestRaceNoMethodNeedsNoFrame(t *testing.T) {
	f := emunet.NewFabric(emunet.WithSeed(3))
	t.Cleanup(f.Close)
	hA := f.AddSite("nm-a", emunet.SiteConfig{Firewall: emunet.Stateful, NAT: emunet.BrokenNAT}).AddHost("a")
	hB := f.AddSite("nm-b", emunet.SiteConfig{Firewall: emunet.Stateful, NAT: emunet.BrokenNAT}).AddHost("b")
	init := &Connector{Host: hA}
	acc := &Connector{Host: hB}
	svcInit, svcAcc := net.Pipe()
	defer svcInit.Close()
	defer svcAcc.Close()
	tapInit, tapAcc := &tapConn{Conn: svcInit}, &tapConn{Conn: svcAcc}
	_, _, _, err := establishOver(t, tapInit, tapAcc, init, acc, EstablishOpts{})
	if !errors.Is(err, ErrNoMethod) {
		t.Fatalf("err = %v, want ErrNoMethod", err)
	}
	for who, tap := range map[string]*tapConn{"initiator": tapInit, "acceptor": tapAcc} {
		if fs := tap.frames(t); len(fs) != 1 || fs[0].Kind != kindMuxDone {
			t.Errorf("the %s wrote %v, want its done marker and nothing else", who, fs)
		}
	}
}

// TestSequentialModePreserved: the strict one-method-at-a-time decision
// tree is the race with a stagger no method outlasts, set on the
// initiator alone (the acceptor has every half ready and follows the
// initiator's launches).
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
// race settles promptly instead of waiting out the accept timeout.
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
		t.Fatalf("race took %v: the acceptor's listener waited out its timeout instead of being aborted", elapsed)
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

// opens reports how many link opens the world's relay has routed.
func (w *world) opens(t *testing.T) float64 {
	t.Helper()
	reg := obs.NewRegistry()
	w.relaySrv.MetricsInto(reg)
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	sc, err := obs.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := sc.Value("netibis_estab_open_frames_total")
	return v
}

// TestRoutedOpensAtOnce: the acceptor opens the routed data link of an
// establishment the moment it starts, before the initiator says
// anything — whether routed is the pair's only candidate, trails a
// better one, or trails two. The acceptor is not told what the initiator
// launches first, so a cached reconnect looks the same to it. The
// initiator here is a script that stays silent until its bare relay
// attachment has taken the link, and then elects routed.
func TestRoutedOpensAtOnce(t *testing.T) {
	w := newWorld(t)
	for i, tc := range []struct {
		name      string
		init, acc emunet.SiteConfig
		ranking   []Method
	}{
		{"routed alone", emunet.SiteConfig{Firewall: emunet.Strict}, emunet.SiteConfig{Firewall: emunet.Strict}, []Method{Routed}},
		{"behind splicing", emunet.SiteConfig{Firewall: emunet.Stateful}, emunet.SiteConfig{Firewall: emunet.Stateful}, []Method{Splicing, Routed}},
		{"behind client/server and splicing", emunet.SiteConfig{Firewall: emunet.Stateful}, emunet.SiteConfig{Firewall: emunet.Open}, []Method{ClientServer, Splicing, Routed}},
	} {
		init := w.connector(t, fmt.Sprintf("atonce-a%d", i), fmt.Sprintf("atonce-i%d", i), tc.init, false)
		acc := w.connector(t, fmt.Sprintf("atonce-b%d", i), fmt.Sprintf("atonce-a%d", i), tc.acc, false)
		if got := RankCandidates(init.Profile(), acc.Profile(), false); !slices.Equal(got, tc.ranking) {
			t.Fatalf("%s: the pair ranks %v, want %v", tc.name, got, tc.ranking)
		}
		base := w.opens(t)
		svcInit, svcAcc := net.Pipe()
		hand := newHandPeer(svcInit)
		type res struct {
			conn net.Conn
			err  error
		}
		done := make(chan res, 1)
		go func() {
			mux := NewServiceMux(svcAcc, wire.NewReader(svcAcc), 1, Endpoints{}, Endpoints{})
			conn, _, err := acc.EstablishAcceptor(mux.Open(), init.Profile())
			if ferr := mux.Finish(); ferr != nil {
				t.Errorf("%s: Finish: %v", tc.name, ferr)
			}
			done <- res{conn, err}
		}()

		accepted := make(chan net.Conn, 1)
		go func() {
			if link, err := init.Relay.Accept(); err == nil {
				accepted <- link
			}
		}()
		var link net.Conn
		select {
		case link = <-accepted:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: no routed link from an acceptor that has heard nothing", tc.name)
		}
		stop := hand.play(msg(MethodNone, msgElect, byte(Routed)), doneMarker)
		r := <-done
		stop()
		svcAcc.Close()
		if r.err != nil {
			t.Fatalf("%s: %v", tc.name, r.err)
		}
		if p, conv := link.(interface{ Purpose() (byte, uint64) }).Purpose(); p != relay.PurposeData || conv != 0 {
			t.Errorf("%s: the routed link's open carried purpose %d of establishment %d, want data of 0", tc.name, p, conv)
		}
		verifyLink(t, link, r.conn)
		// base was read before the acceptor started: its one open is all.
		if n := w.opens(t) - base; n != 1 {
			t.Errorf("%s: the relay routed %v opens, want the one the election took", tc.name, n)
		}
	}
}

// TestCanceledRoutedOpenIsDiscarded: an election that ends the
// acceptor's routed attempt calls its open off. An open still in flight
// is withdrawn with an abandon frame; a link the initiator's relay
// client already accepted is aborted, and the initiator's accept skips
// it — neither side is left holding a link. Either way the acceptor says
// nothing on the service link but its done marker: the election ended
// the attempt, so no abort tells the initiator about it.
func TestCanceledRoutedOpenIsDiscarded(t *testing.T) {
	w := newWorld(t)
	strict := emunet.SiteConfig{Firewall: emunet.Strict}
	acc := w.connector(t, "cancel-b", "cancel-a", strict, false)
	// run starts the acceptor's half of a routed-only establishment,
	// waits for ready, then has the initiator elect nothing.
	run := func(remote Profile, ready func()) {
		t.Helper()
		svcInit, svcAcc := net.Pipe()
		defer svcAcc.Close()
		hand := newHandPeer(svcInit)
		tap := &tapConn{Conn: svcAcc}
		done := make(chan error, 1)
		go func() {
			mux := NewServiceMux(tap, wire.NewReader(tap), 1, Endpoints{}, Endpoints{})
			_, _, err := acc.EstablishAcceptor(mux.Open(), remote)
			mux.Finish()
			done <- err
		}()
		ready()
		stop := hand.play(msg(MethodNone, msgElect, byte(MethodNone)), doneMarker)
		defer stop()
		if err := <-done; !errors.Is(err, ErrAborted) {
			t.Fatalf("acceptor: %v, want ErrAborted", err)
		}
		if fs := tap.frames(t); len(fs) != 1 || fs[0].Kind != kindMuxDone {
			t.Errorf("the acceptor wrote %v, want its done marker and nothing else", fs)
		}
	}

	t.Run("in flight", func(t *testing.T) {
		// A bare attachment that reads the open and never answers it.
		h := w.fabric.AddSite("cancel-raw", emunet.SiteConfig{Firewall: emunet.Open}).AddHost("cancel-raw")
		conn, err := h.Dial(emunet.Endpoint{Addr: w.gateway.Address(), Port: w.relayPort})
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		rw, rr := wire.NewWriter(conn), wire.NewReader(conn)
		if err := rw.WriteFrame(relay.KindAttach, 0, identity.AppendHello(nil, identity.Hello{ID: "cancel-raw"})); err != nil {
			t.Fatal(err)
		}
		next := func() wire.Frame {
			conn.SetReadDeadline(time.Now().Add(3 * time.Second))
			f, err := rr.ReadFrame()
			if err != nil {
				t.Fatalf("raw attachment: %v", err)
			}
			return f
		}
		if f := next(); f.Kind != identity.KindHello {
			t.Fatalf("attach answered with kind %d", f.Kind)
		}
		if f := next(); f.Kind != relay.KindAttachOK {
			t.Fatalf("attach acked with kind %d", f.Kind)
		}
		var channel uint64
		run(Profile{Firewalled: true, Strict: true, HasRelay: true, RelayID: "cancel-raw"}, func() {
			f := next()
			if f.Kind != relay.KindOpen {
				t.Fatalf("got kind %d, want the acceptor's open", f.Kind)
			}
			_, channel, _, _ = relay.ParseRouted(f.Payload)
		})
		f := next()
		if _, ch, _, _ := relay.ParseRouted(f.Payload); f.Kind != relay.KindAbandon || ch != channel {
			t.Fatalf("after the election: kind %d on channel %d, want an abandon of channel %d", f.Kind, ch, channel)
		}
	})

	t.Run("accepted", func(t *testing.T) {
		init := w.connector(t, "cancel-c", "cancel-i", strict, false)
		init.AcceptTimeout = 100 * time.Millisecond
		run(init.Profile(), func() {
			if why := testutil.Settle(func() (bool, string) {
				return acc.Relay.LinkCount() == 1, "the acceptor's open was not answered"
			}); why != "" {
				t.Fatal(why)
			}
		})
		if why := testutil.Settle(func() (bool, string) {
			return init.Relay.LinkCount() == 0 && acc.Relay.LinkCount() == 0, "the aborted link is still registered"
		}); why != "" {
			t.Fatal(why)
		}
		if conn, err := init.AcceptRouted(acc.Profile().RelayID, 0, init.AcceptTimeout, nil); err == nil {
			conn.Close()
			t.Fatal("the initiator's accept handed over the aborted link")
		}
	})
}

// TestElectOutsidePlanIsProtocolError: the election names a candidate —
// a method the two profiles rank — or MethodNone. Electing anything else
// used to make the acceptor return no connection and no error, which its
// caller dereferenced.
func TestElectOutsidePlanIsProtocolError(t *testing.T) {
	w := newWorld(t)
	acc := w.connector(t, "elect-b", "race-a10", emunet.SiteConfig{Firewall: emunet.Open}, false)
	svcInit, svcAcc := net.Pipe()
	defer svcAcc.Close()

	remote := Profile{Firewalled: true, HasRelay: true, RelayID: "race-i10"}
	if slices.Contains(RankCandidates(remote, acc.Profile(), false), Proxy) {
		t.Fatal("the pair ranks the proxy method: the script elects nothing foreign")
	}
	stop := newHandPeer(svcInit).play(
		msg(MethodNone, msgElect, byte(Proxy)),
		doneMarker)
	defer stop()
	mux := NewServiceMux(svcAcc, wire.NewReader(svcAcc), 1, Endpoints{}, Endpoints{})
	conn, _, err := acc.EstablishAcceptor(mux.Open(), remote)
	if conn != nil || !errors.Is(err, ErrProtocol) {
		t.Fatalf("electing a method outside the ranking: conn=%v err=%v, want no connection and ErrProtocol", conn, err)
	}
	if err := mux.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// TestEstabStrictDecode: the establishment protocol has one shape, and
// everything else ends the conversation with ErrProtocol rather than
// being skipped — a malformed mux message, a message on the wrong
// conversation or from the wrong side, an election that names no
// candidate. The first two scripts are well formed and end otherwise,
// which shows the harness is not what raises ErrProtocol.
func TestEstabStrictDecode(t *testing.T) {
	w := newWorld(t)
	acc := w.connector(t, "strict-b", "race-a11", emunet.SiteConfig{Firewall: emunet.Stateful}, false)
	init := w.connector(t, "strict-a", "race-i11", emunet.SiteConfig{Firewall: emunet.Stateful}, false)
	init.ForcedMethod = Routed // one attempt, waiting for the acceptor's routed link
	open := Profile{HasRelay: true, RelayID: "race-x11"}
	if got := RankCandidates(open, acc.Profile(), false); !slices.Equal(got, []Method{ClientServer, Splicing, Routed}) {
		t.Fatalf("the scripted initiator and the acceptor rank %v; the cases below assume every method but the proxy", got)
	}

	elect := func(m Method) frame { return msg(MethodNone, msgElect, byte(m)) }
	raw := func(p ...byte) frame { return frame{kindMuxData, p} }
	for _, tc := range []struct {
		name      string
		initiator bool // the side under test; the script is its peer's
		script    []frame
		want      error
	}{
		{"election of no method", false, []frame{elect(MethodNone)}, ErrAborted},
		{"abort", false, []frame{msg(MethodNone, msgAbort)}, ErrAborted},

		{"message cut inside the stream number", false, []frame{raw(0x80)}, ErrProtocol},
		{"message cut inside the method", false, []frame{raw(0)}, ErrProtocol},
		{"message cut inside the type", false, []frame{raw(0, byte(Routed))}, ErrProtocol},
		{"stream number not minimally encoded", false, []frame{raw(0x80, 0, 0, msgElect, byte(Routed))}, ErrProtocol},
		{"method above Routed", false, []frame{msg(Routed+1, msgAbort)}, ErrProtocol},
		{"type zero", false, []frame{msg(MethodNone, 0)}, ErrProtocol},
		// Type 3 was the election while a listening endpoint was a
		// message, type 4 while the routed cue was one, type 5 while a
		// splice prediction was one.
		{"type above msgElect", false, []frame{msg(MethodNone, 5, byte(Routed))}, ErrProtocol},
		{"type 3, the old election", false, []frame{msg(MethodNone, 3, byte(Routed))}, ErrProtocol},
		{"election on a method conversation", false, []frame{msg(Routed, msgElect, byte(Routed))}, ErrProtocol},
		{"abort with a body", false, []frame{msg(MethodNone, msgAbort, 1)}, ErrProtocol},
		{"method's abort with a body", false, []frame{msg(ClientServer, msgAbort, 1)}, ErrProtocol},
		{"frame that is no mux message", false, []frame{{wire.KindControl, nil}}, ErrProtocol},
		{"message on a stream past the connect's count", false, []frame{{kindMuxData, append(appendMuxHeader(nil, 1, MethodNone, msgElect), byte(Routed))}}, ErrProtocol},

		{"election of two methods", false, []frame{msg(MethodNone, msgElect, byte(Routed), byte(Routed))}, ErrProtocol},
		{"empty election", false, []frame{msg(MethodNone, msgElect)}, ErrProtocol},
		{"election of an unknown method", false, []frame{elect(Routed + 1)}, ErrProtocol},
		{"election outside the ranking", false, []frame{elect(Proxy)}, ErrProtocol},

		{"election from the acceptor", true, []frame{elect(MethodNone)}, ErrProtocol},
		{"establishment abort from the acceptor", true, []frame{msg(MethodNone, msgAbort)}, ErrProtocol},
	} {
		hand, svc := net.Pipe()
		stop := newHandPeer(hand).play(append(tc.script, doneMarker)...)
		mux := NewServiceMux(svc, wire.NewReader(svc), 1, Endpoints{}, Endpoints{})
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
	if msgAbort != 1 || msgElect != 2 {
		t.Fatalf("msgAbort = %d, msgElect = %d: the protocol has two message types, abort and election", msgAbort, msgElect)
	}
}

// TestDifferentRankingsEndTyped: the candidates are a pure function of
// the two profiles, so two sides that hold different profiles of each
// other disagree without a frame to say so. Whichever side ranks nothing
// returns ErrNoMethod at once; its done marker ends the other's waits
// with ErrEstablishmentEnded. Neither hangs, neither holds a link.
func TestDifferentRankingsEndTyped(t *testing.T) {
	w := newWorld(t)
	init := w.connector(t, "differ-a", "race-i13", emunet.SiteConfig{Firewall: emunet.Stateful}, false)
	acc := w.connector(t, "differ-b", "race-a13", emunet.SiteConfig{Firewall: emunet.Stateful}, false)
	init.Relay, acc.Relay = nil, nil // the pair ranks splicing and nothing else
	if got := RankCandidates(init.Profile(), acc.Profile(), false); !slices.Equal(got, []Method{Splicing}) {
		t.Fatalf("the pair ranks %v, want splicing alone", got)
	}
	strict := func(p Profile) Profile { p.Strict = true; return p } // rules splicing out
	checkLeaks := testutil.LeakCheck(t, 0)

	for _, tc := range []struct {
		name             string
		toInit, toAcc    Profile // the peer's profile as each side is handed it
		wantInit, wantAc error
	}{
		{"the acceptor ranks nothing", acc.Profile(), strict(init.Profile()), ErrEstablishmentEnded, ErrNoMethod},
		{"the initiator ranks nothing", strict(acc.Profile()), init.Profile(), ErrNoMethod, ErrEstablishmentEnded},
	} {
		svcInit, svcAcc := net.Pipe()
		muxInit, muxAcc := newMuxPair(t, svcInit, svcAcc, init, acc)
		type res struct {
			conn net.Conn
			err  error
		}
		ch := make(chan res, 1)
		go func() {
			conn, _, err := acc.EstablishAcceptor(muxAcc.Open(), tc.toAcc)
			muxAcc.Finish()
			ch <- res{conn, err}
		}()
		start := time.Now()
		conn, _, err := init.EstablishInitiator(muxInit.Open(), tc.toInit, EstablishOpts{})
		muxInit.Finish()
		r := <-ch
		if conn != nil || !errors.Is(err, tc.wantInit) {
			t.Errorf("%s: initiator conn=%v err=%v, want no connection and %v", tc.name, conn, err, tc.wantInit)
		}
		if r.conn != nil || !errors.Is(r.err, tc.wantAc) {
			t.Errorf("%s: acceptor conn=%v err=%v, want no connection and %v", tc.name, r.conn, r.err, tc.wantAc)
		}
		if elapsed := time.Since(start); elapsed > acc.ResolvedAcceptTimeout() {
			t.Errorf("%s: took %v, longer than the accept timeout", tc.name, elapsed)
		}
		svcInit.Close()
		svcAcc.Close()
	}
	if n := w.fabric.PendingSplices(); n != 0 {
		t.Errorf("%d splice offers left behind", n)
	}
	checkLeaks()
}

// TestRaceStaggerRule: the head start per tier is the connector's when it
// names one, and otherwise the service-link round trip the caller
// measured, floored — the constant only when nothing was measured.
func TestRaceStaggerRule(t *testing.T) {
	for _, tc := range []struct {
		configured, measured, want time.Duration
	}{
		{0, 0, DefaultRaceStagger},
		{0, 8 * time.Millisecond, 10 * time.Millisecond},
		{0, time.Millisecond, MinRaceStagger},
		{0, 5 * time.Millisecond, 10 * time.Millisecond},
		{0, 12 * time.Millisecond, 12 * time.Millisecond},
		{0, time.Second, time.Second},
		{50 * time.Millisecond, 0, 50 * time.Millisecond},
		{50 * time.Millisecond, 8 * time.Millisecond, 50 * time.Millisecond},
		{time.Hour, time.Millisecond, time.Hour},
		{-1, 0, 0},
		{-1, 8 * time.Millisecond, 0},
	} {
		c := &Connector{RaceStagger: tc.configured}
		if got := c.raceStagger(tc.measured); got != tc.want {
			t.Errorf("RaceStagger %v, measured %v: stagger %v, want %v", tc.configured, tc.measured, got, tc.want)
		}
	}
	if MinRaceStagger != 10*time.Millisecond {
		t.Errorf("MinRaceStagger = %v, want RFC 8305's 10 ms", MinRaceStagger)
	}
}

// TestFallbackRoundIgnoresLateFrames: the fallback from a failed cached
// winner shares the conversation with it, with no barrier in between,
// because a method runs once per conversation. Over a synchronous link
// the cached method (client/server) fails — the two sites are
// partitioned, so its dial is refused — the initiator launches the rest
// of the ranking at once, and only then do two late aborts of the failed
// method arrive. The race elects its winner all the same, neither late
// message reaches one of its attempts, and nothing is left running.
func TestFallbackRoundIgnoresLateFrames(t *testing.T) {
	w := newWorld(t)
	// A NAT that rules splicing out: the rest of the ranking is routed.
	init := w.connector(t, "late-a", "race-i12", emunet.SiteConfig{Firewall: emunet.Stateful, NAT: emunet.BrokenNAT}, false)
	acc := w.connector(t, "late-b", "race-a12", emunet.SiteConfig{Firewall: emunet.Open}, false)
	if got := RankCandidates(init.Profile(), acc.Profile(), false); !slices.Equal(got, []Method{ClientServer, Routed}) {
		t.Fatalf("the pair ranks %v, want client/server then routed", got)
	}
	init.Cache = NewCache(0)
	init.Cache.Store("race-a12", ClientServer)
	w.fabric.Partition("late-a", "late-b")
	checkLeaks := testutil.LeakCheck(t, 0)

	// The man in the middle relays both ways, and puts the late aborts
	// in front of the initiator.
	svcInit, midInit := net.Pipe()
	midAcc, svcAcc := net.Pipe()
	var toInitMu sync.Mutex
	toInit := wire.NewWriter(midInit)
	forward := func(from net.Conn, to *wire.Writer, mu *sync.Mutex) {
		r := wire.NewReader(from)
		for {
			f, err := r.ReadFrame()
			if err != nil {
				t.Errorf("relaying the service link: %v", err)
				return
			}
			mu.Lock()
			to.WriteFrame(f.Kind, 0, f.Payload)
			mu.Unlock()
			if f.Kind == kindMuxDone {
				return
			}
		}
	}
	var relays sync.WaitGroup
	relays.Add(2)
	go func() { // acceptor → initiator
		defer relays.Done()
		forward(midAcc, toInit, &toInitMu)
	}()
	go func() { // initiator → acceptor
		defer relays.Done()
		var toAccMu sync.Mutex
		forward(midInit, wire.NewWriter(midAcc), &toAccMu)
	}()
	// The fallback's routed attempt says nothing on the service link, so
	// its start is where the late aborts go in: both reach the
	// initiator's reader before the attempt takes the routed link, the
	// next one the relay hands over (the connector's own accept pump
	// would outlive the test).
	init.AcceptRouted = func(string, uint64, time.Duration, <-chan struct{}) (net.Conn, error) {
		toInitMu.Lock()
		for range 2 {
			toInit.WriteFrame(kindMuxData, 0, msg(ClientServer, msgAbort).payload)
		}
		toInitMu.Unlock()
		return init.Relay.Accept()
	}

	a, b, m, err := establishOver(t, svcInit, svcAcc, init, acc, EstablishOpts{PeerKey: "race-a12"})
	if err != nil {
		t.Fatalf("fallback: %v", err)
	}
	if m != Routed {
		t.Fatalf("method = %v, want Routed, the rest of the ranking", m)
	}
	if got, ok := init.Cache.Lookup("race-a12"); !ok || got != Routed {
		t.Fatalf("cache after the fallback = %v/%v, want Routed", got, ok)
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
