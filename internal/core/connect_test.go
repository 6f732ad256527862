package core

// Tests of the connect path's two rules: the connectivity profiles cross
// the service link once per connect (in the request and its reply), and
// every name a peer writes into a body is held against the link's
// relay-pinned Peer() — never used to dispatch, never believed.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"netibis/internal/driver"
	"netibis/internal/drivers/multi"
	"netibis/internal/emunet"
	"netibis/internal/estab"
	"netibis/internal/ipl"
	"netibis/internal/relay"
	"netibis/internal/testutil"
	"netibis/internal/wire"
)

var stateful = emunet.SiteConfig{Firewall: emunet.Stateful}

// The establishment's frames, written as estab's ServiceMux lays them
// out: a mux message is stream ‖ method ‖ type ‖ body, the done marker is
// the next frame kind and empty.
const (
	kindMuxData, kindMuxDone = wire.KindUser + 0x28, wire.KindUser + 0x29
	msgAbort, msgElect       = 1, 2
)

// request sends one frame on a service link and returns the reply's op
// and payload.
func request(t *testing.T, sl *serviceLink, op byte, payload []byte) (byte, []byte) {
	t.Helper()
	if err := sl.w.WriteFrame(wire.KindControl, op, payload); err != nil {
		t.Fatal(err)
	}
	f, err := sl.r.ReadFrame()
	if err != nil {
		t.Fatalf("reading the reply to op %d: %v", op, err)
	}
	return f.Flags, f.Payload
}

// expectClosed asserts that the far end closes a routed link promptly
// (rather than parking it or waiting for more).
func expectClosed(t *testing.T, what string, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("%s: read = %v, want the peer to close the link", what, err)
	}
}

// TestConnectRejectsImpersonation: on a secure deployment a member with
// a valid identity of its own cannot speak under another member's name.
// The connect request's sender used to be believed as written, so the
// victim's name reached the application as ReadMessage.Origin.
func TestConnectRejectsImpersonation(t *testing.T) {
	g := newSecureGrid(t, 1)
	alice := g.secureNode("alice", "site-a", stateful, nil)
	bob := g.secureNode("bob", "site-b", stateful, nil)
	mallory := g.secureNode("mallory", "site-m", stateful, nil)

	pt := ipl.PortType{Name: "chan", Stack: "tcpblk"}
	rp, err := bob.CreateReceivePort(pt, "inbox")
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()

	// Raw requests over mallory's own (authenticated, sealed) service
	// link: each names alice somewhere.
	sl, err := mallory.serviceLinkTo("bob")
	if err != nil {
		t.Fatal(err)
	}
	honest := connectRequest{portName: "inbox", typeDigest: portTypeDigest(pt), sender: mallory.id, profile: mallory.Profile()}
	for what, forge := range map[string]func(*connectRequest){
		"sender name":      func(r *connectRequest) { r.sender.Name = "alice" },
		"sender pool":      func(r *connectRequest) { r.sender.Pool = "otherpool" },
		"profile relay ID": func(r *connectRequest) { r.profile.RelayID = alice.relayID() },
	} {
		req := honest
		forge(&req)
		if op, _ := request(t, sl, opConnect, encodeConnectRequest(req)); op != opConnectErr {
			t.Errorf("forged %s: reply op %d, want opConnectErr", what, op)
		}
	}

	// And through the front door: a send port of a node that claims to
	// be alice.
	mallory.id = alice.Identifier()
	sp, err := mallory.CreateSendPort(pt)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if err := sp.Connect(rp.ID()); !errors.Is(err, ErrConnectRejected) {
		t.Fatalf("connect as alice: %v, want ErrConnectRejected", err)
	}
	port := rp.(*receivePort)
	port.mu.Lock()
	sources := len(port.sources)
	port.mu.Unlock()
	if sources != 0 || port.Received() != 0 {
		t.Fatalf("the receive port took %d source(s), %d message(s) from an impersonator", sources, port.Received())
	}
}

// TestPurposeHeaderCarriesNoName: a link's purpose is the byte its open
// ends with, and no byte on the link names anyone — the consumer is keyed
// by the link's Peer(). A service link that carries anything but
// requests is closed; a sealed untagged link, and a sealed data link no
// connect waits for, is closed unanswered, so its open is refused, as an
// open of unknown purpose is. No member can park a link under another's
// name.
func TestPurposeHeaderCarriesNoName(t *testing.T) {
	g := newSecureGrid(t, 1)
	bob := g.secureNode("bob", "site-b", stateful, nil)
	mallory := g.secureNode("mallory", "site-m", stateful, nil)

	for _, tc := range []struct {
		what    string
		purpose byte
		then    byte // a request op to send on the link (0: none)
	}{
		{"unknown op on a service link", relay.PurposeService, 99},
		{"stray reply on a service link", relay.PurposeService, opConnectOK},
	} {
		conn, err := mallory.relayCli.DialPurpose(bob.relayID(), tc.purpose, 0, 2*time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.then != 0 {
			if err := wire.NewWriter(conn).WriteFrame(wire.KindControl, tc.then, nil); err != nil {
				t.Fatal(err)
			}
		}
		expectClosed(t, tc.what, conn)
		conn.Close()
	}
	for _, purpose := range []byte{0, relay.PurposeData, 9} {
		if _, err := mallory.relayCli.DialPurpose(bob.relayID(), purpose, 0, 2*time.Second, nil); !errors.Is(err, relay.ErrRefused) {
			t.Errorf("open of purpose %d: %v, want ErrRefused", purpose, err)
		}
	}
	bob.mu.Lock()
	defer bob.mu.Unlock()
	if len(bob.pendingData) != 0 {
		t.Fatalf("routed data links parked under %d name(s), want none", len(bob.pendingData))
	}
}

// TestRoutedDataLinksNeedAWaiter: a routed data link is admitted only
// while a connect of this node to its peer establishes, and the last
// connect to leave takes the entry with it. A link nobody waits for is
// closed at once, a link abandoned while parked is never handed over,
// leaves nothing parked and gives way to the next link for its
// establishment, and a hundred routed connects leave no entry and no
// goroutine behind.
func TestRoutedDataLinksNeedAWaiter(t *testing.T) {
	g := newTestGrid(t)
	strict := emunet.SiteConfig{Firewall: emunet.Strict}
	alice := g.node("alice", "site-a", strict, nil)
	bob := g.node("bob", "site-b", strict, nil)
	entries := func() int {
		alice.mu.Lock()
		defer alice.mu.Unlock()
		return len(alice.pendingData)
	}
	open := func() net.Conn {
		conn, err := bob.relayCli.DialPurpose(alice.relayID(), relay.PurposeData, 0, 2*time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}

	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"unsolicited", func(t *testing.T) {
			expectClosed(t, "a data link no connect waits for", open())
		}},
		{"abandoned while parked", func(t *testing.T) {
			links := alice.relayCli.LinkCount()
			leave := alice.expectRoutedData(bob.relayID())
			conn := open()
			waitForCondition(t, 3*time.Second, "the data link was not parked", func() bool {
				alice.mu.Lock()
				defer alice.mu.Unlock()
				return len(alice.pendingData[bob.relayID()].links[0]) == 1
			})
			conn.(interface{ Abort() error }).Abort()
			waitForCondition(t, 3*time.Second, "the abandon did not arrive", func() bool { return alice.relayCli.LinkCount() == links })
			if got, err := alice.acceptRoutedData(bob.relayID(), 0, 50*time.Millisecond, nil); err == nil {
				got.Close()
				t.Fatal("an abandoned link was handed to an establishment")
			}
			leave()
		}},
		{"an abandoned link gives way", func(t *testing.T) {
			links := alice.relayCli.LinkCount()
			leave := alice.expectRoutedData(bob.relayID())
			defer leave()
			stale := open()
			waitForCondition(t, 3*time.Second, "the data link was not parked", func() bool {
				alice.mu.Lock()
				defer alice.mu.Unlock()
				return len(alice.pendingData[bob.relayID()].links[0]) == 1
			})
			stale.(interface{ Abort() error }).Abort()
			waitForCondition(t, 3*time.Second, "the abandon did not arrive", func() bool { return alice.relayCli.LinkCount() == links })
			fresh := open()
			defer fresh.Close()
			if _, err := fresh.Write([]byte{7}); err != nil {
				t.Fatal(err)
			}
			got, err := alice.acceptRoutedData(bob.relayID(), 0, 3*time.Second, nil)
			if err != nil {
				t.Fatalf("establishment 0 lost its link to an abandoned one: %v", err)
			}
			defer got.Close()
			b := make([]byte, 1)
			got.SetReadDeadline(time.Now().Add(3 * time.Second))
			if _, err := io.ReadFull(got, b); err != nil || b[0] != 7 {
				t.Fatalf("establishment 0 read %v, %v from its link", b, err)
			}
		}},
		{"a hundred connects", func(t *testing.T) {
			pt := ipl.PortType{Name: "chan", Stack: "tcpblk"}
			rp, err := bob.CreateReceivePort(pt, "inbox")
			if err != nil {
				t.Fatal(err)
			}
			defer rp.Close()
			if _, err := alice.Ping("bob"); err != nil {
				t.Fatal(err)
			}
			checkLeaks := testutil.LeakCheck(t, 3)
			for i := 0; i < 100; i++ {
				sp, err := alice.CreateSendPort(pt)
				if err != nil {
					t.Fatal(err)
				}
				if err := sp.Connect(rp.ID()); err != nil {
					t.Fatalf("connect %d: %v", i, err)
				}
				if m := SendPortMethods(sp)[rp.ID().String()]; m != estab.Routed {
					t.Fatalf("connect %d came up by %v, want routed", i, m)
				}
				sendText(t, sp, "routed")
				if got, _ := recvText(t, rp); got != "routed" {
					t.Fatalf("connect %d carried %q", i, got)
				}
				if n := entries(); n != 0 {
					t.Fatalf("connect %d left %d entries", i, n)
				}
				sp.Close()
			}
			checkLeaks()
		}},
	} {
		t.Run(tc.name, tc.run)
		if n := entries(); n != 0 {
			t.Errorf("%s: %d entries left", tc.name, n)
		}
	}
}

// TestRoutedDataLinkPerEstablishment: an acceptor opens one routed data
// link per establishment of a connect and names the establishment in the
// open; establishment k takes link k and no other, whatever order the
// opens arrive in. Here the acceptor's halves of a four-establishment
// connect open in reverse order, while two of the initiator's
// establishments already wait and two come after every link is parked.
func TestRoutedDataLinkPerEstablishment(t *testing.T) {
	g := newTestGrid(t)
	strict := emunet.SiteConfig{Firewall: emunet.Strict}
	alice := g.node("alice", "site-a", strict, nil)
	bob := g.node("bob", "site-b", strict, nil)
	defer alice.expectRoutedData(bob.relayID())()

	const n = 4
	took := make([]net.Conn, n)
	var wg sync.WaitGroup
	establish := func(k int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := alice.acceptRoutedData(bob.relayID(), uint64(k), 3*time.Second, nil)
			if err != nil {
				t.Errorf("establishment %d: %v", k, err)
				return
			}
			took[k] = conn
		}()
	}
	establish(0)
	establish(1)
	for k := n - 1; k >= 0; k-- {
		conn, err := bob.relayCli.DialPurpose(alice.relayID(), relay.PurposeData, uint64(k), 2*time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	establish(2)
	establish(3)
	wg.Wait()
	for k, conn := range took {
		if conn == nil {
			continue
		}
		b := make([]byte, 1)
		conn.SetReadDeadline(time.Now().Add(3 * time.Second))
		if _, err := io.ReadFull(conn, b); err != nil || b[0] != byte(k) {
			t.Errorf("establishment %d took the link of establishment %d (%v)", k, b[0], err)
		}
		conn.Close()
	}
}

// TestSecureMemberCannotCrashAcceptor: a member's brokering messages are
// input from outside like any other. An authenticated member used to be
// able to kill any node that owns a receive port with a few frames on its
// own service link — the election of a method that is no candidate, the
// done marker — because the acceptor's establishment returned no
// connection and no error, and the port's reader dereferenced it. Now
// the establishment is a protocol error: bob refuses the link, keeps
// serving that service link, and still accepts an honest connect. A
// request whose endpoint lists are not what estab.Connector.Carries asks
// of the initiator — splice endpoints numbering the stack's
// establishments, and listen endpoints only from a reachable initiator —
// is refused before anything starts.
func TestSecureMemberCannotCrashAcceptor(t *testing.T) {
	g := newSecureGrid(t, 1)
	alice := g.secureNode("alice", "site-a", stateful, nil)
	bob := g.secureNode("bob", "site-b", stateful, nil)
	mallory := g.secureNode("mallory", "site-m", stateful, nil)

	pt := ipl.PortType{Name: "chan", Stack: "tcpblk"}
	rp, err := bob.CreateReceivePort(pt, "inbox")
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()

	sl, err := mallory.serviceLinkTo("bob")
	if err != nil {
		t.Fatal(err)
	}
	endpoints, err := mallory.connector.Reserve(mallory.connector.Carries(1, mallory.Profile(), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer endpoints.Close()
	req := connectRequest{portName: "inbox", typeDigest: portTypeDigest(pt), sender: mallory.id, profile: mallory.Profile(), endpoints: endpoints}
	predicted := endpoints.Splice
	for what, e := range map[string]estab.Endpoints{
		"no splice endpoints":                       {},
		"two splice endpoints":                      {Splice: append(predicted, predicted...)},
		"a listen endpoint of a stateful initiator": {Splice: predicted, Listen: predicted},
	} {
		bad := req
		bad.endpoints = e
		if op, _ := request(t, sl, opConnect, encodeConnectRequest(bad)); op != opConnectErr {
			t.Errorf("%s for a one-establishment stack: reply op %d, want opConnectErr", what, op)
		}
	}
	if op, _ := request(t, sl, opConnect, encodeConnectRequest(req)); op != opConnectOK {
		t.Fatalf("mallory's own connect request: reply op %d, want opConnectOK", op)
	}
	if slices.Contains(estab.RankCandidates(mallory.Profile(), bob.Profile(), false), estab.Proxy) {
		t.Fatal("the pair ranks the proxy method: the script elects nothing foreign")
	}
	if err := sl.w.WriteFrame(kindMuxData, 0, []byte{0, byte(estab.MethodNone), msgElect, byte(estab.Proxy)}); err != nil {
		t.Fatal(err)
	}
	if err := sl.w.WriteFrame(kindMuxDone, 0, nil); err != nil {
		t.Fatal(err)
	}
	// Bob ends the connect with his own done marker (behind what his
	// candidates' halves had to say first), and took no source.
	sl.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		f, err := sl.r.ReadFrame()
		if err != nil {
			t.Fatalf("waiting for bob's done marker: %v", err)
		}
		if f.Kind == kindMuxDone {
			break
		}
	}
	sl.conn.SetReadDeadline(time.Time{})
	port := rp.(*receivePort)
	port.mu.Lock()
	sources := len(port.sources)
	port.mu.Unlock()
	if sources != 0 {
		t.Fatalf("the receive port took %d source(s) from a failed establishment", sources)
	}
	if _, err := mallory.Ping("bob"); err != nil {
		t.Fatalf("bob stopped serving the service link: %v", err)
	}

	sp, err := alice.CreateSendPort(pt)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if err := sp.Connect(rp.ID()); err != nil {
		t.Fatalf("honest connect after the attack: %v", err)
	}
	sendText(t, sp, "still here")
	if got, origin := recvText(t, rp); got != "still here" || origin != alice.Identifier() {
		t.Fatalf("got %q from %v", got, origin)
	}
}

// scriptedPeer attaches a bare relay client under testpool/<name>,
// registers it as a node, and answers every request frame on the service
// links it accepts with what reply returns for it (nil: no answer).
func scriptedPeer(t *testing.T, g *testGrid, a *Node, name string, reply func(req wire.Frame) *wire.Frame) {
	t.Helper()
	host := g.dep.AddSite("site-"+name, emunet.SiteConfig{Firewall: emunet.Open}).AddHost(name)
	conn, err := host.Dial(g.dep.RelayEndpoint())
	if err != nil {
		t.Fatal(err)
	}
	peer, err := relay.Attach(conn, "testpool/"+name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	if err := a.registry.Register(a.nodeKey(name), wire.AppendString(nil, "testpool/"+name)); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			link, err := peer.Accept()
			if err != nil {
				return
			}
			go func() {
				defer link.Close()
				r, w := wire.NewReader(link), wire.NewWriter(link)
				for {
					f, err := r.ReadFrame()
					if err != nil {
						return
					}
					if out := reply(f); out != nil {
						w.WriteFrame(out.Kind, out.Flags, out.Payload)
					}
				}
			}()
		}
	}()
}

// TestPingFailsClosed: a ping reads exactly one frame, its pong. Anything
// else — a stale frame of an establishment above all — means the link is
// out of step: the ping fails, the link is evicted, and the next ping
// runs over a fresh one. Ping used to skip whatever was not its pong.
func TestPingFailsClosed(t *testing.T) {
	g := newTestGrid(t)
	a := g.node("alice", "site-a", stateful, nil)
	var mu sync.Mutex
	answer := wire.Frame{Kind: wire.KindControl, Flags: opPong}
	scriptedPeer(t, g, a, "fake", func(wire.Frame) *wire.Frame {
		mu.Lock()
		defer mu.Unlock()
		out := answer
		return &out
	})

	for _, tc := range []struct {
		what  string
		reply wire.Frame
	}{
		{"a stale done marker", wire.Frame{Kind: kindMuxDone}},
		{"a stale mux message", wire.Frame{Kind: kindMuxData, Payload: []byte{0, byte(estab.ClientServer), msgAbort}}},
		{"a connect reply", wire.Frame{Kind: wire.KindControl, Flags: opConnectOK}},
		{"a ping", wire.Frame{Kind: wire.KindControl, Flags: opPing}},
		{"a pong of another frame kind", wire.Frame{Kind: kindMuxData, Flags: opPong}},
	} {
		if _, err := a.Ping("fake"); err != nil {
			t.Fatalf("%s: ping over a fresh link: %v", tc.what, err)
		}
		before, err := a.serviceLinkTo("fake")
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		answer = tc.reply
		mu.Unlock()
		if _, err := a.Ping("fake"); err == nil {
			t.Errorf("%s in place of the pong: the ping succeeded", tc.what)
		}
		a.mu.Lock()
		cached := len(a.serviceLinks)
		a.mu.Unlock()
		if cached != 0 {
			t.Errorf("%s in place of the pong: the service link stayed cached", tc.what)
		}
		mu.Lock()
		answer = wire.Frame{Kind: wire.KindControl, Flags: opPong}
		mu.Unlock()
		if _, err := a.Ping("fake"); err != nil {
			t.Errorf("%s: ping after the eviction: %v", tc.what, err)
		}
		if after, err := a.serviceLinkTo("fake"); err != nil || after == before {
			t.Errorf("%s: the ping after the eviction ran over the evicted link (%v)", tc.what, err)
		}
	}
}

// recordingConn records everything written through it, and everything
// read from it: what the far end wrote.
type recordingConn struct {
	net.Conn
	mu    sync.Mutex
	wrote bytes.Buffer
	read  bytes.Buffer

	// onDone, when set, runs before the write that completes the
	// establishment's done marker goes out; its error fails that write.
	onDone func() error
	// holding, when set, lets the first frame through (a connect request)
	// and keeps everything written after it in held, unsent, until
	// release: the far end's reader sees nothing more.
	holding bool
	held    []byte
	// closed is closed by Close.
	closed    chan struct{}
	closeOnce sync.Once
}

func (rc *recordingConn) Write(p []byte) (int, error) {
	rc.mu.Lock()
	rc.wrote.Write(p)
	if rc.holding && len(parseFrames(rc.wrote.Bytes())) > 1 {
		rc.held = append(rc.held, p...)
		rc.mu.Unlock()
		return len(p), nil
	}
	done := rc.onDone != nil && slices.ContainsFunc(parseFrames(rc.wrote.Bytes()), func(f wire.Frame) bool { return f.Kind == kindMuxDone })
	rc.mu.Unlock()
	if done {
		if err := rc.onDone(); err != nil {
			return 0, err
		}
	}
	return rc.Conn.Write(p)
}

// release sends what holding kept back and stops holding. Writes that
// come meanwhile wait, so nothing overtakes the held bytes.
func (rc *recordingConn) release() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.holding = false
	_, err := rc.Conn.Write(rc.held)
	return err
}

func (rc *recordingConn) Read(p []byte) (int, error) {
	n, err := rc.Conn.Read(p)
	rc.mu.Lock()
	rc.read.Write(p[:n])
	rc.mu.Unlock()
	return n, err
}

func (rc *recordingConn) Close() error {
	rc.closeOnce.Do(func() { close(rc.closed) })
	return rc.Conn.Close()
}

// frames returns the whole frames written and read so far.
func (rc *recordingConn) frames() (wrote, read []wire.Frame) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return parseFrames(rc.wrote.Bytes()), parseFrames(rc.read.Bytes())
}

// parseFrames returns the whole frames at the head of a recorded stream.
func parseFrames(stream []byte) []wire.Frame {
	var out []wire.Frame
	r := wire.NewReader(bytes.NewReader(stream))
	for {
		f, err := r.ReadFrame()
		if err != nil {
			return out
		}
		out = append(out, f)
	}
}

// recordServiceLink puts a recordingConn under a's cached service link to
// the named peer, which it also returns.
func recordServiceLink(t *testing.T, a *Node, peer string) (*recordingConn, *serviceLink) {
	t.Helper()
	if _, err := a.Ping(peer); err != nil {
		t.Fatal(err)
	}
	sl, err := a.serviceLinkTo(peer)
	if err != nil {
		t.Fatal(err)
	}
	sl.wmu.Lock()
	defer sl.wmu.Unlock()
	sl.rmu.Lock()
	defer sl.rmu.Unlock()
	rec := &recordingConn{Conn: sl.conn, closed: make(chan struct{})}
	sl.conn, sl.r, sl.w = rec, wire.NewReader(rec), wire.NewWriter(rec)
	return rec, sl
}

// TestProfilesCrossServiceLinkOncePerConnect: a stack of four parallel
// sub-streams runs four establishments, and the initiator's profile
// crosses the service link once — in the connect request — not once
// more per establishment.
func TestProfilesCrossServiceLinkOncePerConnect(t *testing.T) {
	g := newTestGrid(t)
	a := g.node("alice", "site-a", stateful, nil)
	b := g.node("bob", "site-b", stateful, nil)
	rec, _ := recordServiceLink(t, a, "bob")

	pt := ipl.PortType{Name: "striped", Stack: "multi:streams=4/tcpblk"}
	sp, rp := channel(t, a, b, pt, "inbox")
	defer sp.Close()
	defer rp.Close()
	sendText(t, sp, "over four sub-streams")
	if got, _ := recvText(t, rp); got != "over four sub-streams" {
		t.Fatalf("got %q", got)
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if n := bytes.Count(rec.wrote.Bytes(), a.Profile().Encode()); n != 1 {
		t.Fatalf("the initiator's profile crossed the service link %d times in one connect, want 1", n)
	}
	if n := bytes.Count(rec.read.Bytes(), b.Profile().Encode()); n != 1 {
		t.Fatalf("the acceptor's profile crossed the service link %d times in one connect, want 1", n)
	}
}

// TestUnbuildableStackFailsBeforeTheRequest: a stack whose streams the
// initiator cannot count — more than multi.MaxStreams in all, or a multi
// layer naming a parameter it does not take — fails the connect with
// driver.ErrBadParam at once, before the connect request is written, and
// leaves the service link fit for the next connect.
func TestUnbuildableStackFailsBeforeTheRequest(t *testing.T) {
	g := newTestGrid(t)
	a := g.node("alice", "site-a", stateful, nil)
	b := g.node("bob", "site-b", stateful, nil)
	rec, _ := recordServiceLink(t, a, "bob")
	connects := func() int {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		n := 0
		for _, f := range parseFrames(rec.wrote.Bytes()) {
			if f.Kind == wire.KindControl && f.Flags == opConnect {
				n++
			}
		}
		return n
	}

	for i, stack := range []string{"multi:streams=16/multi:streams=8/tcpblk", "multi:stream=8/tcpblk"} {
		pt := ipl.PortType{Name: fmt.Sprintf("bad-%d", i), Stack: stack}
		rp, err := b.CreateReceivePort(pt, pt.Name)
		if err != nil {
			t.Fatal(err)
		}
		defer rp.Close()
		sp, err := a.CreateSendPort(pt)
		if err != nil {
			t.Fatal(err)
		}
		defer sp.Close()
		start := time.Now()
		err = sp.Connect(rp.ID())
		if took := time.Since(start); took > a.connector.ResolvedAcceptTimeout()/10 {
			t.Errorf("%s: the connect took %v to fail", stack, took)
		}
		if !errors.Is(err, driver.ErrBadParam) {
			t.Errorf("%s: connect: %v, want driver.ErrBadParam", stack, err)
		}
	}
	if n := connects(); n != 0 {
		t.Fatalf("%d connect requests were written for stacks that cannot be built", n)
	}

	sp, rp := channel(t, a, b, ipl.PortType{Name: "plain", Stack: "tcpblk"}, "plain")
	defer sp.Close()
	defer rp.Close()
	sendText(t, sp, "after two refusals")
	if got, _ := recvText(t, rp); got != "after two refusals" {
		t.Fatalf("got %q", got)
	}
	if n := connects(); n != 1 {
		t.Fatalf("%d connect requests written in all, want the plain stack's one", n)
	}
}

// TestConnectFrameCount pins what a cold connect puts on the service
// link, for the paper's simplest method both ways round — the acceptor
// listening, and the initiator (a reverse connect) — and for splicing.
// No method says anything on the service link: both sides' listen and
// splice endpoints ride in the connect request and its reply, and the
// routed half opens its link through the relay. So when Connect returns
// the initiator has written the two frames a connect needs of it — the
// connect request and the election — and read the connect-OK, and off
// the caller's path the barrier adds the two done markers: connect,
// connect-OK and elect, then two markers, whatever the method.
func TestConnectFrameCount(t *testing.T) {
	open := emunet.SiteConfig{Firewall: emunet.Open}
	for _, tc := range []struct {
		name      string
		init, acc emunet.SiteConfig
		ranking   []estab.Method
		method    estab.Method
	}{
		{"client/server", stateful, open, []estab.Method{estab.ClientServer, estab.Splicing, estab.Routed}, estab.ClientServer},
		{"reverse", open, stateful, []estab.Method{estab.ClientServer, estab.Splicing, estab.Routed}, estab.ClientServer},
		{"splice", stateful, stateful, []estab.Method{estab.Splicing, estab.Routed}, estab.Splicing},
	} {
		t.Run(tc.name, func(t *testing.T) { testConnectFrameCount(t, tc.init, tc.acc, tc.ranking, tc.method) })
	}
}

func testConnectFrameCount(t *testing.T, init, acc emunet.SiteConfig, ranking []estab.Method, method estab.Method) {
	g := newTestGrid(t)
	a := g.node("alice", "site-a", init, nil)
	b := g.node("bob", "site-b", acc, nil)
	if got := estab.RankCandidates(a.Profile(), b.Profile(), false); !slices.Equal(got, ranking) {
		t.Fatalf("the pair ranks %v; the counts below assume %v", got, ranking)
	}
	rec, sl := recordServiceLink(t, a, "bob")

	sp, rp := channel(t, a, b, ipl.PortType{Name: "chan", Stack: "tcpblk"}, "inbox")
	defer sp.Close()
	defer rp.Close()
	sent, got := rec.frames()
	if m := SendPortMethods(sp)[rp.ID().String()]; m != method {
		t.Fatalf("connected via %v, want %v", m, method)
	}

	// what names a frame: an op of the connect exchange, a message type of
	// the establishment, or the done marker.
	what := func(f wire.Frame) string {
		switch {
		case f.Kind == wire.KindControl:
			return fmt.Sprintf("op %d", f.Flags)
		case f.Kind == kindMuxData && len(f.Payload) >= 3:
			return fmt.Sprintf("msg %d", f.Payload[2])
		case f.Kind == kindMuxDone:
			return "done"
		}
		return f.String()
	}
	names := func(fs []wire.Frame) (out []string) {
		for _, f := range fs {
			out = append(out, what(f))
		}
		return out
	}
	request, elect, done := fmt.Sprintf("op %d", opConnect), fmt.Sprintf("msg %d", msgElect), "done"
	ok := fmt.Sprintf("op %d", opConnectOK)

	// At Connect's return the barrier may or may not have written its
	// marker yet; what the caller waited for is the rest.
	atReturn := names(sent)
	if n := len(atReturn); n > 0 && atReturn[n-1] == done {
		atReturn = atReturn[:n-1]
	}
	if !slices.Equal(atReturn, []string{request, elect}) {
		t.Fatalf("when Connect returned the initiator had written %v, want the connect request and the election", atReturn)
	}
	if r := names(got); len(r) == 0 || r[0] != ok {
		t.Fatalf("when Connect returned the initiator had read %v, want the connect-OK first", r)
	}

	sl.rmu.Lock() // the barrier has passed
	sl.rmu.Unlock()
	sent, got = rec.frames()
	if !slices.Equal(names(sent), []string{request, elect, done}) {
		t.Fatalf("a cold %v connect put %v from the initiator on the service link, want the connect request, the election and the done marker", method, names(sent))
	}
	if r := names(got); !slices.Equal(r, []string{ok, done}) {
		t.Fatalf("a cold %v connect put %v from the acceptor on the service link, want the connect-OK and the done marker", method, r)
	}
}

// TestSplicedConnectNeedsNothingAfterTheReply: the acceptor's splice
// endpoints are in its connect reply and its simultaneous open goes out
// right behind it, so a spliced Connect needs nothing the acceptor's
// service-link reader would get after the request. Here that reader is
// stalled: everything the initiator writes after its request is held
// back. Connect returns a spliced link all the same; then the held frames
// (the election and the done marker) go through, the acceptor takes the
// link, and it carries a message.
func TestSplicedConnectNeedsNothingAfterTheReply(t *testing.T) {
	g := newTestGrid(t)
	a := g.node("alice", "site-a", stateful, nil)
	b := g.node("bob", "site-b", stateful, nil)
	a.connector.RaceStagger = time.Hour // splicing alone: routed never launches
	if got := estab.RankCandidates(a.Profile(), b.Profile(), false); len(got) == 0 || got[0] != estab.Splicing {
		t.Fatalf("the pair ranks %v, want splicing first", got)
	}
	rec, _ := recordServiceLink(t, a, "bob")
	rec.mu.Lock()
	rec.holding = true
	rec.mu.Unlock()
	released := false
	release := func() {
		if !released {
			released = true
			if err := rec.release(); err != nil {
				t.Errorf("releasing the held frames: %v", err)
			}
		}
	}
	defer release()

	pt := ipl.PortType{Name: "chan", Stack: "tcpblk"}
	rp, err := b.CreateReceivePort(pt, "inbox")
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	sp, err := a.CreateSendPort(pt)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	connected := make(chan error, 1)
	go func() { connected <- sp.Connect(rp.ID()) }()
	select {
	case err := <-connected:
		if err != nil {
			t.Fatalf("connect with the acceptor's reader stalled after the request: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Connect waits for the acceptor to read something after the request")
	}
	if m := SendPortMethods(sp)[rp.ID().String()]; m != estab.Splicing {
		t.Fatalf("connected via %v, want splicing", m)
	}
	rec.mu.Lock()
	heldFrames := parseFrames(rec.held)
	rec.mu.Unlock()
	if len(heldFrames) == 0 {
		t.Fatal("nothing was held back: the stall did not cover the establishment")
	}
	release()
	sendText(t, sp, "spliced before the acceptor heard the election")
	if got, _ := recvText(t, rp); got != "spliced before the acceptor heard the election" {
		t.Fatalf("got %q", got)
	}
}

// TestPassphraseStaysHome: a psk= passphrase is configuration, written in
// the two nodes' port types; the service link — which the relay reads on
// an identity-less grid — carries a digest of the port type, never its
// stack string. The connect request used to spell the stack out.
func TestPassphraseStaysHome(t *testing.T) {
	g := newTestGrid(t)
	a := g.node("alice", "site-a", stateful, nil)
	b := g.node("bob", "site-b", stateful, nil)
	rec, _ := recordServiceLink(t, a, "bob")

	pt := ipl.PortType{Name: "sealed", Stack: "secure:psk=correct-horse/tcpblk"}
	sp, rp := channel(t, a, b, pt, "inbox")
	defer sp.Close()
	defer rp.Close()
	sendText(t, sp, "keyed at home")
	if got, _ := recvText(t, rp); got != "keyed at home" {
		t.Fatalf("got %q", got)
	}

	rec.mu.Lock()
	if rec.wrote.Len() == 0 || rec.read.Len() == 0 {
		t.Errorf("recorded %d bytes written, %d read: the connect did not use the recorded link", rec.wrote.Len(), rec.read.Len())
	}
	for who, stream := range map[string][]byte{"initiator": rec.wrote.Bytes(), "acceptor": rec.read.Bytes()} {
		if bytes.Contains(stream, []byte("correct-horse")) {
			t.Errorf("the %s wrote the passphrase on the service link", who)
		}
	}
	rec.mu.Unlock()
	// An acceptor configured with another passphrase is another port type.
	other, err := b.CreateReceivePort(ipl.PortType{Name: "sealed", Stack: "secure:psk=battery-staple/tcpblk"}, "other")
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	err = sp.Connect(other.ID())
	if !errors.Is(err, ErrConnectRejected) || !strings.Contains(err.Error(), ipl.ErrIncompatiblePortTypes.Error()) {
		t.Fatalf("connect to a port type with another passphrase: %v, want a rejection as incompatible", err)
	}
}

// TestConnectRefusesBadReply: the initiator holds the connect reply to
// the same rules — one layout, and a profile that names the node the
// service link leads to — and treats anything else as a broken link.
func TestConnectRefusesBadReply(t *testing.T) {
	g := newTestGrid(t)
	a := g.node("alice", "site-a", stateful, nil)

	// The acceptor is a bare relay attachment that answers every connect
	// request with the reply under test.
	var mu sync.Mutex
	var reply []byte
	scriptedPeer(t, g, a, "fake", func(f wire.Frame) *wire.Frame {
		if f.Flags != opConnect {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		return &wire.Frame{Kind: wire.KindControl, Flags: opConnectOK, Payload: reply}
	})

	// The fake peer is open, so the pair ranks client/server with the
	// fake listening, and splicing: the reply carries one splice and one
	// listen endpoint for the stack's one establishment.
	fake := estab.Profile{HasRelay: true, RelayID: "testpool/fake"}
	endpoint := []emunet.Endpoint{{Addr: "10.9.0.2", Port: 40001}}
	replyOf := func(p estab.Profile, splice, listen []emunet.Endpoint) []byte {
		return encodeConnectReply(p, estab.Endpoints{Splice: splice, Listen: listen})
	}
	good := replyOf(fake, endpoint, endpoint)
	two := append(endpoint, endpoint...)
	listenList := estab.AppendEndpoints(nil, estab.Endpoints{Listen: endpoint})[1:] // behind the splice list's count
	pt := ipl.PortType{Name: "chan", Stack: "tcpblk"}
	for what, p := range map[string][]byte{
		"empty":                            nil,
		"truncated":                        good[:len(good)-1],
		"trailing byte":                    append(append([]byte(nil), good...), 0),
		"another node's profile":           replyOf(estab.Profile{HasRelay: true, RelayID: "testpool/bob"}, endpoint, endpoint),
		"the initiator's profile":          replyOf(a.Profile(), endpoint, endpoint),
		"no splice endpoint":               replyOf(fake, nil, endpoint),
		"two splice endpoints":             replyOf(fake, two, endpoint),
		"no listen endpoint":               replyOf(fake, endpoint, nil),
		"two listen endpoints":             replyOf(fake, endpoint, two),
		"a splice port above 65535":        append(wire.AppendUvarint(wire.AppendString(wire.AppendUvarint(wire.AppendBytes(nil, fake.Encode()), 1), "10.9.0.2"), 65536), listenList...),
		"a bare profile, as it used to be": fake.Encode(),
	} {
		mu.Lock()
		reply = p
		mu.Unlock()
		sp, err := a.CreateSendPort(pt)
		if err != nil {
			t.Fatal(err)
		}
		err = sp.Connect(ipl.PortID{Owner: ipl.Identifier{Name: "fake", Pool: "testpool"}, Port: "inbox"})
		if err == nil || errors.Is(err, ErrConnectRejected) {
			t.Errorf("connect reply with %s: Connect = %v, want a service-link failure", what, err)
		}
		if len(sp.ConnectedTo()) != 0 {
			t.Errorf("connect reply with %s: the send port reports a link", what)
		}
		sp.Close()
		a.mu.Lock()
		cached := len(a.serviceLinks)
		a.mu.Unlock()
		if cached != 0 {
			t.Errorf("connect reply with %s: the service link stayed cached", what)
		}
	}
}

// TestConnectRequestStrictDecode: the connect request has one layout.
// Cut anywhere, with a trailing byte, with a profile field of the wrong
// length, a port type digest that is not 32 bytes, a port above 65535, a
// missing endpoint list or more endpoints in one than multi.MaxStreams,
// it is a protocol error.
func TestConnectRequestStrictDecode(t *testing.T) {
	req := connectRequest{
		portName:   "inbox",
		typeDigest: portTypeDigest(ipl.PortType{Name: "chan", Stack: "zip/tcpblk"}),
		sender:     ipl.Identifier{Name: "alice", Pool: "testpool"},
		profile:    estab.Profile{SiteName: "site-a", HasRelay: true, RelayID: "testpool/alice", HomeRelay: "relay-0"},
		endpoints: estab.Endpoints{
			Splice: []emunet.Endpoint{{Addr: "10.1.0.2", Port: 40001}},
			Listen: []emunet.Endpoint{{Addr: "10.1.0.2", Port: 40002}},
		},
	}
	full := encodeConnectRequest(req)
	got, err := decodeConnectRequest(full)
	if err != nil || !reflect.DeepEqual(got, req) {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
	for cut := 0; cut < len(full); cut++ {
		if _, err := decodeConnectRequest(full[:cut]); err == nil {
			t.Errorf("request cut to %d of %d bytes accepted", cut, len(full))
		}
	}
	tail := estab.AppendEndpoints(nil, req.endpoints)
	last := len(full) - len(tail) // where the endpoint lists start
	withProfile := func(p []byte) []byte {
		head := full[:last-len(wire.AppendBytes(nil, req.profile.Encode()))]
		return append(wire.AppendBytes(append([]byte(nil), head...), p), full[last:]...)
	}
	withEndpoints := func(lists []byte) []byte { return append(append([]byte(nil), full[:last]...), lists...) }
	if _, err := decodeConnectRequest(withEndpoints(tail)); err != nil {
		t.Fatalf("withEndpoints does not rebuild the request: %v", err)
	}
	if _, err := decodeConnectRequest(withProfile(req.profile.Encode())); err != nil {
		t.Fatalf("withProfile does not rebuild the request: %v", err)
	}
	withDigest := func(digest []byte) []byte {
		b := wire.AppendBytes(wire.AppendString(nil, req.portName), digest)
		return append(b, full[len(wire.AppendString(nil, req.portName))+1+len(req.typeDigest):]...)
	}
	if _, err := decodeConnectRequest(withDigest(req.typeDigest[:])); err != nil {
		t.Fatalf("withDigest does not rebuild the request: %v", err)
	}
	tooMany := make([]emunet.Endpoint, multi.MaxStreams+1)
	for what, bad := range map[string][]byte{
		"trailing byte":          append(append([]byte(nil), full...), 0),
		"profile one byte short": withProfile(req.profile.Encode()[:len(req.profile.Encode())-1]),
		"profile with a trailer": withProfile(append(req.profile.Encode(), 0)),
		"empty profile":          withProfile(nil),
		"31-byte digest":         withDigest(req.typeDigest[:31]),
		"33-byte digest":         withDigest(append(req.typeDigest[:], 0)),
		"empty digest":           withDigest(nil),
		"no endpoint lists":      withEndpoints(nil),
		"no listen list":         withEndpoints(spliceList(req.endpoints.Splice)),
		"splice port 65536":      withEndpoints(append(wire.AppendUvarint(wire.AppendString(wire.AppendUvarint(nil, 1), "10.1.0.2"), 65536), 0)),
		"65 splice endpoints":    withEndpoints(estab.AppendEndpoints(nil, estab.Endpoints{Splice: tooMany})),
		"65 listen endpoints":    withEndpoints(estab.AppendEndpoints(nil, estab.Endpoints{Listen: tooMany})),
	} {
		if _, err := decodeConnectRequest(bad); err == nil {
			t.Errorf("request with %s accepted", what)
		}
	}
	most := make([]emunet.Endpoint, multi.MaxStreams)
	if _, err := decodeConnectRequest(withEndpoints(estab.AppendEndpoints(nil, estab.Endpoints{Splice: most, Listen: most}))); err != nil {
		t.Errorf("request with multi.MaxStreams endpoints in each list: %v", err)
	}
}

// spliceList is a splice endpoint list with no listen list behind it.
func spliceList(eps []emunet.Endpoint) []byte {
	b := estab.AppendEndpoints(nil, estab.Endpoints{Splice: eps})
	return b[:len(b)-1] // the empty listen list's count
}

// TestConnectReplyStrictDecode: the connect reply is bytes profile ‖ the
// acceptor's splice endpoints ‖ its listen endpoints, in one encoding. A
// trailing byte, a cut, a port above 65535, more endpoints in a list
// than multi.MaxStreams or a varint that is not minimal is a corrupt
// reply.
func TestConnectReplyStrictDecode(t *testing.T) {
	profile := estab.Profile{SiteName: "site-b", HasRelay: true, RelayID: "testpool/bob"}
	endpoints := estab.Endpoints{
		Splice: []emunet.Endpoint{{Addr: "10.2.0.2", Port: 40001}, {Addr: "10.2.0.2", Port: 40002}},
		Listen: []emunet.Endpoint{{Addr: "10.2.0.2", Port: 40003}, {Addr: "10.2.0.2", Port: 40004}},
	}
	full := encodeConnectReply(profile, endpoints)
	if p, e, err := decodeConnectReply(full); err != nil || p != profile || !reflect.DeepEqual(e, endpoints) {
		t.Fatalf("round trip: %+v, %v, %v", p, e, err)
	}
	if p, e, err := decodeConnectReply(encodeConnectReply(profile, estab.Endpoints{})); err != nil || p != profile || e.Splice != nil || e.Listen != nil {
		t.Fatalf("a reply without endpoints: %+v, %v, %v", p, e, err)
	}
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := decodeConnectReply(full[:cut]); err == nil {
			t.Errorf("reply cut to %d of %d bytes accepted", cut, len(full))
		}
	}
	head := wire.AppendBytes(nil, profile.Encode())
	for what, bad := range map[string][]byte{
		"trailing byte":         append(append([]byte(nil), full...), 0),
		"port 65536":            append(wire.AppendUvarint(wire.AppendString(wire.AppendUvarint(head, 1), "10.2.0.2"), 65536), 0),
		"65 endpoints":          estab.AppendEndpoints(head, estab.Endpoints{Listen: make([]emunet.Endpoint, multi.MaxStreams+1)}),
		"a count of two bytes":  append(append([]byte(nil), head...), 0x80, 0x00, 0),
		"a port of four bytes":  append(append(wire.AppendString(wire.AppendUvarint(head, 1), "10.2.0.2"), 0x80, 0x80, 0x80, 0x00), 0),
		"no listen list":        append(head, spliceList(endpoints.Splice)...),
		"a profile with a tail": estab.AppendEndpoints(wire.AppendBytes(nil, append(profile.Encode(), 0)), endpoints),
	} {
		if _, _, err := decodeConnectReply(bad); err == nil {
			t.Errorf("reply with %s accepted", what)
		}
	}
}

// TestNodeRecordLayout: a node's registry record is its relay ID as one
// wire string and nothing else (no reader is left for more: peers take a
// node's connectivity from its live profile, its name from the link).
func TestNodeRecordLayout(t *testing.T) {
	g := newTestGrid(t)
	a := g.node("alice", "site-a", stateful, nil)
	val, err := a.registry.Lookup(a.nodeKey("alice"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if want := wire.AppendString(nil, "testpool/alice"); !bytes.Equal(val, want) {
		t.Fatalf("node record = %q, want %q", val, want)
	}
}

func FuzzDecodeConnectRequest(f *testing.F) {
	full := encodeConnectRequest(connectRequest{
		portName:   "inbox",
		typeDigest: portTypeDigest(ipl.PortType{Name: "chan", Stack: "tcpblk"}),
		sender:     ipl.Identifier{Name: "alice", Pool: "pool"},
		profile:    estab.Profile{Firewalled: true, HasRelay: true, RelayID: "pool/alice"},
		endpoints:  estab.Endpoints{Splice: []emunet.Endpoint{{Addr: "10.1.0.2", Port: 40001}}},
	})
	f.Add(full)
	f.Add(full[:len(full)-3])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeConnectRequest(data)
		if err != nil {
			return
		}
		// Whatever decodes survives its own encoding unchanged.
		if again, err := decodeConnectRequest(encodeConnectRequest(req)); err != nil || !reflect.DeepEqual(again, req) {
			t.Fatalf("%+v re-encodes to %+v (%v)", req, again, err)
		}
	})
}

// FuzzDecodeConnectReply: what decodes as a connect reply is exactly what
// encodeConnectReply makes of it, and holds at most multi.MaxStreams
// endpoints in each list, each with a port.
func FuzzDecodeConnectReply(f *testing.F) {
	full := encodeConnectReply(estab.Profile{Firewalled: true, HasRelay: true, RelayID: "pool/bob"},
		estab.Endpoints{Splice: []emunet.Endpoint{{Addr: "10.2.0.2", Port: 40001}, {Addr: "10.2.0.2", Port: 40002}}})
	f.Add(full)
	f.Add(full[:len(full)-3])
	f.Add(encodeConnectReply(estab.Profile{RelayID: "pool/bob"}, estab.Endpoints{}))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		profile, endpoints, err := decodeConnectReply(data)
		if err != nil {
			return
		}
		if again := encodeConnectReply(profile, endpoints); !bytes.Equal(again, data) {
			t.Fatalf("%x decodes to %+v %+v, which encodes to %x", data, profile, endpoints, again)
		}
		for _, list := range [][]emunet.Endpoint{endpoints.Splice, endpoints.Listen} {
			if len(list) > multi.MaxStreams {
				t.Fatalf("%d endpoints decoded in one list", len(list))
			}
			for _, ep := range list {
				if ep.Port < 0 || ep.Port > 65535 {
					t.Fatalf("endpoint %v decoded", ep)
				}
			}
		}
	})
}
