package core

// Tests of a routed connect: the acceptor opens the data link, tagged,
// right behind its connect reply when routed is the pair's only
// candidate, and the initiator's Connect returns as that open arrives —
// before the acceptor hears the initiator's open-OK.

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netibis/internal/emunet"
	"netibis/internal/estab"
	"netibis/internal/ipl"
	"netibis/internal/obs"
	"netibis/internal/relay"
	"netibis/internal/wire"
)

// openOKGate holds back, once armed, every write of a relay to one node
// that completes an open-OK frame, until released: what a test observes
// while it holds happened before that node heard the open-OK.
type openOKGate struct {
	node    atomic.Pointer[string] // the node whose open-OKs are held (nil: unarmed)
	held    chan struct{}          // closed when the first write is held
	release chan struct{}
	once    sync.Once
}

// gateListener wraps every connection a relay accepts in a gatedConn.
type gateListener struct {
	net.Listener
	gate *openOKGate
}

func (l gateListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &gatedConn{Conn: c, gate: l.gate}, nil
}

// gatedConn is the relay's end of one node's attachment. It records both
// directions of the stream, so it knows its node by the attach frame and
// each open-OK on its way to it.
type gatedConn struct {
	net.Conn
	gate        *openOKGate
	mu          sync.Mutex
	read, wrote []byte
}

func (c *gatedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.read = append(c.read, p[:n]...)
	c.mu.Unlock()
	return n, err
}

func (c *gatedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	before := countKind(c.wrote, relay.KindOpenOK)
	c.wrote = append(c.wrote, p...)
	completes := countKind(c.wrote, relay.KindOpenOK) > before
	var node string // the attach's, which follows the node's RTT probe
	for _, f := range parseFrames(c.read) {
		if f.Kind == relay.KindAttach {
			node = wire.NewDecoder(f.Payload).String()
			break
		}
	}
	c.mu.Unlock()
	if want := c.gate.node.Load(); completes && want != nil && *want == node {
		c.gate.once.Do(func() { close(c.gate.held) })
		<-c.gate.release
	}
	return c.Conn.Write(p)
}

func countKind(stream []byte, kind byte) (n int) {
	for _, f := range parseFrames(stream) {
		if f.Kind == kind {
			n++
		}
	}
	return n
}

// TestRoutedConnectNeedsNoOpenFromTheInitiator: between two strict
// firewalls routed is the only candidate, so the acceptor opens the data
// link right behind its connect reply and the initiator opens none. The
// relay holds every open-OK on its way to the acceptor; Connect returns
// all the same, so it waited for the acceptor's open and nothing after
// it — and the relay saw that one open and no other.
func TestRoutedConnectNeedsNoOpenFromTheInitiator(t *testing.T) {
	g := newTestGrid(t)
	gate := &openOKGate{held: make(chan struct{}), release: make(chan struct{})}
	l, err := g.dep.Gateway.Listen(RelayPort + 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := relay.NewServer()
	go srv.Serve(gateListener{l, gate})
	t.Cleanup(srv.Close)
	reg := obs.NewRegistry()
	srv.MetricsInto(reg)
	opens := func() float64 {
		v, _ := scrapeReg(t, reg).Value("netibis_estab_open_frames_total")
		return v
	}
	pin := func(c *Config) { c.Relays = []emunet.Endpoint{{Addr: g.dep.Gateway.Address(), Port: RelayPort + 1}} }
	strict := emunet.SiteConfig{Firewall: emunet.Strict}
	a := g.node("alice", "site-a", strict, pin)
	b := g.node("bob", "site-b", strict, pin)
	if got := estab.RankCandidates(a.Profile(), b.Profile(), false); len(got) != 1 || got[0] != estab.Routed {
		t.Fatalf("the pair ranks %v, want routed alone", got)
	}

	pt := ipl.PortType{Name: "chan", Stack: "tcpblk"}
	rp, err := b.CreateReceivePort(pt, "inbox")
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	if _, err := a.Ping("bob"); err != nil { // the service link, and its open-OK
		t.Fatal(err)
	}
	base := opens()
	bob := b.relayID()
	gate.node.Store(&bob)
	released := false
	defer func() {
		if !released {
			close(gate.release)
		}
	}()

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
			t.Fatalf("connect: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Connect waits for the acceptor to hear its open-OK")
	}
	select {
	case <-gate.held:
	case <-time.After(10 * time.Second):
		t.Fatal("no open-OK went to the acceptor: it opened no data link")
	}
	if n := opens() - base; n != 1 {
		t.Fatalf("the relay saw %v opens for one routed connect, want the acceptor's one", n)
	}
	if m := SendPortMethods(sp)[rp.ID().String()]; m != estab.Routed {
		t.Fatalf("connected via %v, want routed", m)
	}
	released = true
	close(gate.release)
	sendText(t, sp, "routed at direct's cost")
	if got, origin := recvText(t, rp); got != "routed at direct's cost" || origin != a.Identifier() {
		t.Fatalf("got %q from %v", got, origin)
	}
}

// TestRoutedConnectAcrossMeshIsNeverRefused: across two relays of a mesh
// the acceptor's open needs no gossip — its relay learned the way back
// from the service link's open — so no connect's open is refused (a
// refusal would cost a retry), on a pair that just joined as on one that
// connected before.
func TestRoutedConnectAcrossMeshIsNeverRefused(t *testing.T) {
	g := newFederatedGrid(t, 2)
	var regs []*obs.Registry
	for _, ri := range g.dep.Relays {
		reg := obs.NewRegistry()
		ri.Server.MetricsInto(reg)
		regs = append(regs, reg)
	}
	refusals := func() (n float64) {
		for _, reg := range regs {
			v, _ := scrapeReg(t, reg).Value("netibis_estab_open_fail_frames_total")
			n += v
		}
		return n
	}
	strict := emunet.SiteConfig{Firewall: emunet.Strict}
	pt := ipl.PortType{Name: "chan", Stack: "multi:streams=2/tcpblk"}
	for i := 0; i < 3; i++ {
		a := g.nodeOnRelay(fmt.Sprintf("mesh-a%d", i), "site-mesh-a", strict, 0, nil)
		b := g.nodeOnRelay(fmt.Sprintf("mesh-b%d", i), "site-mesh-b", strict, 1, nil)
		rp, err := b.CreateReceivePort(pt, "inbox")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Ping(b.id.Name); err != nil {
			t.Fatal(err)
		}
		base := refusals()
		for j := 0; j < 3; j++ {
			sp, err := a.CreateSendPort(pt)
			if err != nil {
				t.Fatal(err)
			}
			if err := sp.Connect(rp.ID()); err != nil {
				t.Fatalf("pair %d, connect %d: %v", i, j, err)
			}
			if m := SendPortMethods(sp)[rp.ID().String()]; m != estab.Routed {
				t.Fatalf("pair %d, connect %d came up by %v, want routed", i, j, m)
			}
			sendText(t, sp, "across the mesh")
			if got, _ := recvText(t, rp); got != "across the mesh" {
				t.Fatalf("pair %d, connect %d carried %q", i, j, got)
			}
			sp.Close()
		}
		if n := refusals() - base; n != 0 {
			t.Fatalf("pair %d: %v routed opens refused across the mesh", i, n)
		}
		rp.Close()
	}
}
