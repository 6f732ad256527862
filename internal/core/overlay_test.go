package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"netibis/internal/emunet"
	"netibis/internal/estab"
	"netibis/internal/ipl"
	"netibis/internal/relay"
)

// newFederatedGrid is newTestGrid with a multi-relay mesh deployment.
func newFederatedGrid(t *testing.T, relayCount int) *testGrid {
	t.Helper()
	f := emunet.NewFabric(emunet.WithSeed(7))
	dep, err := NewFederatedDeployment(f, relayCount)
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

// nodeOnRelay joins an instance pinned to the given relay of the mesh.
func (g *testGrid) nodeOnRelay(name, siteName string, cfg emunet.SiteConfig, relayIdx int, mutate func(*Config)) *Node {
	g.t.Helper()
	site := g.fabric.Site(siteName)
	if site == nil {
		site = g.dep.AddSite(siteName, cfg)
	}
	host := site.AddHost(name)
	nodeCfg := g.dep.NodeConfigOnRelay(host, "testpool", name, relayIdx)
	if mutate != nil {
		mutate(&nodeCfg)
	}
	n, err := Join(nodeCfg)
	if err != nil {
		g.t.Fatalf("join %s: %v", name, err)
	}
	n.connector.SpliceTimeout = 500 * time.Millisecond
	n.connector.AcceptTimeout = 5 * time.Second
	g.addNode(n)
	return n
}

func waitForCondition(t *testing.T, timeout time.Duration, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// noProxy forces the routed fallback for broken-NAT sites by removing
// the automatically configured SOCKS proxy.
func noProxy(c *Config) { c.Proxy = emunet.Endpoint{} }

// TestCrossRelayTransfer is the acceptance scenario: two nodes attached
// to different relays of the mesh complete a send-port -> receive-port
// transfer over the full driver stack, with the data link itself routed
// relay-to-relay.
func TestCrossRelayTransfer(t *testing.T) {
	g := newFederatedGrid(t, 3)
	// Broken NAT without a proxy on one side, a stateful firewall on the
	// other: the decision tree must fall back to routed messages.
	a := g.nodeOnRelay("xr-a", "site-xr-a", emunet.SiteConfig{Firewall: emunet.Stateful, NAT: emunet.BrokenNAT}, 1, noProxy)
	b := g.nodeOnRelay("xr-b", "site-xr-b", emunet.SiteConfig{Firewall: emunet.Stateful}, 2, nil)

	if got, want := a.HomeRelay(), "relay-1"; got != want {
		t.Fatalf("a attached to %q, want %q", got, want)
	}
	if got, want := b.HomeRelay(), "relay-2"; got != want {
		t.Fatalf("b attached to %q, want %q", got, want)
	}

	// Full driver stack: compression over parallel streams, every stream
	// a routed link crossing the relay mesh.
	pt := ipl.PortType{Name: "bulk", Stack: "zip/multi:streams=2/tcpblk"}
	sp, rp := channel(t, a, b, pt, "xr-inbox")

	payload := bytes.Repeat([]byte("cross-relay grid data "), 20000) // ~430 KiB
	m, err := sp.NewMessage()
	if err != nil {
		t.Fatal(err)
	}
	m.WriteBytes(payload)
	if err := m.Finish(); err != nil {
		t.Fatal(err)
	}
	msg, err := rp.Receive()
	if err != nil {
		t.Fatal(err)
	}
	got, err := msg.ReadBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("cross-relay payload corrupted: got %d bytes want %d", len(got), len(payload))
	}

	for _, method := range SendPortMethods(sp) {
		if method != estab.Routed {
			t.Fatalf("expected routed data link, got %v", method)
		}
	}
	// The frames really crossed a peer link of the mesh.
	forwarded := int64(0)
	for _, ri := range g.dep.Relays {
		forwarded += ri.Server.Stats().FramesForwarded
	}
	if forwarded == 0 {
		t.Fatal("no frames were forwarded relay-to-relay")
	}
}

// TestRoutedFlowControlAcrossMesh: credit frames are routed frames like
// any other, forwarded opaquely relay-to-relay, so flow control works
// end to end across a multi-relay route. The window is set far below the
// transfer size: if the mesh dropped or misrouted a single credit frame,
// the sender would wedge at the window and the test would time out.
func TestRoutedFlowControlAcrossMesh(t *testing.T) {
	g := newFederatedGrid(t, 2)
	a := g.nodeOnRelay("fcm-a", "site-fcm-a", emunet.SiteConfig{Firewall: emunet.Stateful, NAT: emunet.BrokenNAT}, 0, noProxy)
	b := g.nodeOnRelay("fcm-b", "site-fcm-b", emunet.SiteConfig{Firewall: emunet.Stateful}, 1, noProxy)
	a.relayCli.SetWindow(16 * 1024)
	b.relayCli.SetWindow(16 * 1024)

	pt := ipl.PortType{Name: "fcmesh", Stack: "tcpblk"}
	sp, rp := channel(t, a, b, pt, "fcm-inbox")
	for _, method := range SendPortMethods(sp) {
		if method != estab.Routed {
			t.Fatalf("expected routed data link, got %v", method)
		}
	}

	const messages = 32
	chunk := bytes.Repeat([]byte("mesh-credit "), 64*1024/12) // ~64 KiB, 4x the window
	sendErr := make(chan error, 1)
	go func() {
		for i := 0; i < messages; i++ {
			m, err := sp.NewMessage()
			if err != nil {
				sendErr <- err
				return
			}
			m.WriteBytes(chunk)
			if err := m.Finish(); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	for i := 0; i < messages; i++ {
		msg, err := rp.Receive()
		if err != nil {
			t.Fatalf("receive %d: %v", i, err)
		}
		got, err := msg.ReadBytes()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, chunk) {
			t.Fatalf("message %d corrupted across the windowed mesh route", i)
		}
	}
	if err := <-sendErr; err != nil {
		t.Fatalf("sender: %v", err)
	}

	// The route (and therefore the credits) really crossed the mesh.
	forwarded := int64(0)
	for _, ri := range g.dep.Relays {
		forwarded += ri.Server.Stats().FramesForwarded
	}
	if forwarded == 0 {
		t.Fatal("no frames were forwarded relay-to-relay")
	}
}

// TestRelayFailoverMidStream kills a node's relay while a transfer is in
// flight; the node must reattach to a surviving relay and a subsequent
// Dial (a fresh send port connecting through the full establishment
// path) must succeed.
func TestRelayFailoverMidStream(t *testing.T) {
	g := newFederatedGrid(t, 2)
	a := g.nodeOnRelay("fo-a", "site-fo-a", emunet.SiteConfig{Firewall: emunet.Stateful, NAT: emunet.BrokenNAT}, 0, noProxy)
	b := g.nodeOnRelay("fo-b", "site-fo-b", emunet.SiteConfig{Firewall: emunet.Stateful}, 1, nil)

	pt := ipl.PortType{Name: "stream", Stack: "tcpblk"}
	sp, rp := channel(t, a, b, pt, "fo-inbox")
	sendText(t, sp, "before the crash")
	if got, _ := recvText(t, rp); got != "before the crash" {
		t.Fatalf("pre-crash message: %q", got)
	}

	// Drain the receive port continuously, hunting for the post-failover
	// marker. The concurrent drain matters since credit-based flow
	// control: a sender without a consumer now (correctly) blocks at the
	// routed link's window instead of buffering unboundedly, so the
	// streaming goroutine below only makes progress while this side
	// consumes. A stream whose framing the crash corrupted tears its
	// source down instead, which closes the link and likewise unblocks
	// the sender — both outcomes are fine, the test only requires that a
	// subsequent Dial succeeds and its message gets through.
	marker := make(chan struct{})
	go func() {
		seen := false
		for {
			msg, err := rp.Receive()
			if err != nil {
				return // port closed by the test's cleanup
			}
			if !seen && msg.Remaining() < 1024 {
				if s, err := msg.ReadString(); err == nil && s == "after the failover" {
					seen = true
					close(marker)
				}
			}
			// Keep draining: the interrupted stream's sender needs the
			// credit flow to reach its stop check.
		}
	}()

	// Stream messages through the doomed relay. The stream may break
	// with the crash or — established links survive a resumed
	// attachment — keep flowing through the new relay; both are fine.
	stop := make(chan struct{})
	streamDone := make(chan int, 1)
	go func() {
		sent := 0
		defer func() { streamDone <- sent }()
		chunk := bytes.Repeat([]byte("x"), 32*1024)
		for {
			select {
			case <-stop:
				return
			default:
			}
			m, err := sp.NewMessage()
			if err != nil {
				return
			}
			m.WriteBytes(chunk)
			if err := m.Finish(); err != nil {
				return
			}
			sent++
		}
	}()
	time.Sleep(30 * time.Millisecond)
	g.dep.Relays[0].Kill()

	// The node reattaches to the surviving relay on its own.
	waitForCondition(t, 5*time.Second, "node did not reattach to the surviving relay", func() bool {
		return a.HomeRelay() == "relay-1" && !a.relayCli.Detached()
	})
	close(stop)

	// A subsequent Dial over the full path succeeds: new send port, new
	// brokering over the (resumed) service link, new routed data link.
	sp2, err := a.CreateSendPort(pt)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp2.Connect(rp.ID()); err != nil {
		t.Fatalf("connect after failover: %v", err)
	}
	sendText(t, sp2, "after the failover")

	select {
	case <-marker:
	case <-time.After(10 * time.Second):
		t.Fatal("post-failover message never arrived")
	}
	sent := <-streamDone
	t.Logf("streamed %d messages around the relay crash", sent)

	// Reverse direction still works too (b's links survived untouched).
	if _, err := b.Ping("fo-a"); err != nil {
		t.Fatalf("ping after failover: %v", err)
	}
}

// TestLowestRTTRelaySelection checks the probe ordering: with shaped
// links, the relay behind the low-latency path must be chosen.
func TestLowestRTTRelaySelection(t *testing.T) {
	f := emunet.NewFabric(emunet.WithSeed(3), emunet.WithTimeScale(1.0))
	defer f.Close()
	near := f.AddSite("near", emunet.SiteConfig{Firewall: emunet.Open}).AddHost("near-relay")
	far := f.AddSite("far", emunet.SiteConfig{Firewall: emunet.Open}).AddHost("far-relay")
	nodeHost := f.AddSite("nodes", emunet.SiteConfig{Firewall: emunet.Stateful}).AddHost("picker")
	f.SetLink("nodes", "near", emunet.LinkParams{CapacityBps: 100e6, RTT: 1 * time.Millisecond})
	f.SetLink("nodes", "far", emunet.LinkParams{CapacityBps: 100e6, RTT: 60 * time.Millisecond})

	for _, h := range []*emunet.Host{near, far} {
		l, err := h.Listen(RelayPort)
		if err != nil {
			t.Fatal(err)
		}
		srv := relay.NewServer()
		srv.SetID(h.Name())
		go srv.Serve(l)
		defer srv.Close()
	}

	nearEP := emunet.Endpoint{Addr: near.Address(), Port: RelayPort}
	farEP := emunet.Endpoint{Addr: far.Address(), Port: RelayPort}
	// Deliberately list the far relay first: the probe must reorder.
	att := &Attachment{Host: nodeHost, NodeID: "pool/picker", Pinned: []emunet.Endpoint{farEP, nearEP}}
	if err := att.Attach(); err != nil {
		t.Fatal(err)
	}
	defer att.Close()
	if ep := att.Endpoint(); ep != nearEP {
		t.Fatalf("attached to %v, want the near relay %v", ep, nearEP)
	}
	if id := att.Client().ServerID(); id != "near-relay" {
		t.Fatalf("attached to relay %q, want near-relay", id)
	}
}

// TestRegistryOnlyRelayDiscovery joins a node that names no relay at
// all: the mesh is found through the name service.
func TestRegistryOnlyRelayDiscovery(t *testing.T) {
	g := newFederatedGrid(t, 2)
	n := g.node("discoverer", "site-disc", emunet.SiteConfig{Firewall: emunet.Stateful}, nil)
	if n.HomeRelay() == "" {
		t.Fatal("node did not discover a mesh relay")
	}
	if _, err := n.CreateReceivePort(ipl.PortType{Name: "p", Stack: "tcpblk"}, "disc-inbox"); err != nil {
		t.Fatal(err)
	}
}

// TestMeshSpreadsNodes sanity-checks the equal-RTT load spreading: with
// several relays and many nodes, more than one relay should end up with
// attachments.
func TestMeshSpreadsNodes(t *testing.T) {
	g := newFederatedGrid(t, 3)
	homes := make(map[string]int)
	for i := 0; i < 8; i++ {
		n := g.node(fmt.Sprintf("spread-%d", i), fmt.Sprintf("site-spread-%d", i),
			emunet.SiteConfig{Firewall: emunet.Stateful}, nil)
		homes[n.HomeRelay()]++
	}
	if len(homes) < 2 {
		t.Fatalf("all nodes piled onto one relay: %v", homes)
	}
}
