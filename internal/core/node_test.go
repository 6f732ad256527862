package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"netibis/internal/emunet"
	"netibis/internal/estab"
	"netibis/internal/ipl"
)

// testGrid is a multi-site NetIbis deployment on an emulated internet.
type testGrid struct {
	t      *testing.T
	fabric *emunet.Fabric
	dep    *Deployment

	mu    sync.Mutex // guards nodes: tests join from goroutines
	nodes []*Node
}

func (g *testGrid) addNode(n *Node) {
	g.mu.Lock()
	g.nodes = append(g.nodes, n)
	g.mu.Unlock()
}

func (g *testGrid) closeAll() {
	g.mu.Lock()
	nodes := append([]*Node(nil), g.nodes...)
	g.mu.Unlock()
	for _, n := range nodes {
		n.Close()
	}
}

func newTestGrid(t *testing.T) *testGrid {
	t.Helper()
	f := emunet.NewFabric(emunet.WithSeed(5))
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

// node joins an instance on a fresh host in the named site (creating the
// site with cfg if it does not exist yet).
func (g *testGrid) node(name, siteName string, cfg emunet.SiteConfig, mutate func(*Config)) *Node {
	g.t.Helper()
	site := g.fabric.Site(siteName)
	if site == nil {
		site = g.dep.AddSite(siteName, cfg)
	}
	host := site.AddHost(name)
	nodeCfg := g.dep.NodeConfig(host, "testpool", name)
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

// channel builds a connected send/receive pair between two nodes with
// the given port type.
func channel(t *testing.T, sender, receiver *Node, pt ipl.PortType, portName string) (ipl.SendPort, ipl.ReceivePort) {
	t.Helper()
	rp, err := receiver.CreateReceivePort(pt, portName)
	if err != nil {
		t.Fatalf("create receive port: %v", err)
	}
	sp, err := sender.CreateSendPort(pt)
	if err != nil {
		t.Fatalf("create send port: %v", err)
	}
	if err := sp.Connect(rp.ID()); err != nil {
		t.Fatalf("connect: %v", err)
	}
	return sp, rp
}

func sendText(t *testing.T, sp ipl.SendPort, text string) {
	t.Helper()
	m, err := sp.NewMessage()
	if err != nil {
		t.Fatal(err)
	}
	m.WriteString(text)
	if err := m.Finish(); err != nil {
		t.Fatal(err)
	}
}

func recvText(t *testing.T, rp ipl.ReceivePort) (string, ipl.Identifier) {
	t.Helper()
	msg, err := rp.Receive()
	if err != nil {
		t.Fatal(err)
	}
	s, err := msg.ReadString()
	if err != nil {
		t.Fatal(err)
	}
	if err := msg.Finish(); err != nil {
		t.Fatal(err)
	}
	return s, msg.Origin
}

func TestJoinValidation(t *testing.T) {
	if _, err := Join(Config{}); err == nil {
		t.Fatal("empty config should be rejected")
	}
	if _, err := Join(Config{Name: "x"}); err == nil {
		t.Fatal("config without pool should be rejected")
	}
}

func TestBasicMessageChannelAcrossFirewalls(t *testing.T) {
	g := newTestGrid(t)
	a := g.node("alice", "site-ams", emunet.SiteConfig{Firewall: emunet.Stateful}, nil)
	b := g.node("bob", "site-rennes", emunet.SiteConfig{Firewall: emunet.Stateful}, nil)

	pt := ipl.PortType{Name: "control", Stack: "tcpblk"}
	sp, rp := channel(t, a, b, pt, "bob-inbox")

	sendText(t, sp, "hello from behind a firewall")
	got, origin := recvText(t, rp)
	if got != "hello from behind a firewall" {
		t.Fatalf("got %q", got)
	}
	if origin.Name != "alice" {
		t.Fatalf("origin = %v", origin)
	}
	// Both sites are firewalled, so the data link must have been spliced.
	methods := SendPortMethods(sp)
	for _, m := range methods {
		if m != estab.Splicing {
			t.Fatalf("expected splicing data link, got %v", m)
		}
	}
}

func TestCompressedParallelStreamsChannel(t *testing.T) {
	// The paper's flagship composition: compression over parallel
	// streams through firewalls.
	g := newTestGrid(t)
	a := g.node("n1", "site-a", emunet.SiteConfig{Firewall: emunet.Stateful}, nil)
	b := g.node("n2", "site-b", emunet.SiteConfig{Firewall: emunet.Stateful}, nil)

	pt := ipl.PortType{Name: "bulk", Stack: "zip/multi:streams=4/tcpblk"}
	sp, rp := channel(t, a, b, pt, "bulk-data")

	payload := bytes.Repeat([]byte("grid application data block "), 40000) // ~1.1 MiB
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
		t.Fatalf("bulk payload corrupted: got %d bytes want %d", len(got), len(payload))
	}
}

func TestBrokenNATFallsBackToProxy(t *testing.T) {
	g := newTestGrid(t)
	// The broken-NAT site gets the SOCKS proxy configured automatically
	// by Deployment.NodeConfig.
	a := g.node("natted", "site-badnat", emunet.SiteConfig{Firewall: emunet.Stateful, NAT: emunet.BrokenNAT}, nil)
	b := g.node("server", "site-open", emunet.SiteConfig{Firewall: emunet.Open}, nil)

	pt := ipl.PortType{Name: "control", Stack: "tcpblk"}
	sp, rp := channel(t, a, b, pt, "open-inbox")
	sendText(t, sp, "through whatever works")
	if got, _ := recvText(t, rp); got != "through whatever works" {
		t.Fatalf("got %q", got)
	}
	// The open peer is directly reachable, so client/server is chosen —
	// the point is that the broken NAT does not break connectivity.
	for _, m := range SendPortMethods(sp) {
		if m == estab.Splicing {
			t.Fatalf("splicing should not have been selected for a broken NAT")
		}
	}
}

func TestRoutedFallbackBetweenBrokenNATAndFirewalledPeer(t *testing.T) {
	g := newTestGrid(t)
	a := g.node("stuck", "site-badnat2", emunet.SiteConfig{Firewall: emunet.Stateful, NAT: emunet.BrokenNAT}, func(c *Config) {
		c.Proxy = emunet.Endpoint{} // no proxy: force the routed fallback
	})
	b := g.node("hidden", "site-fw2", emunet.SiteConfig{Firewall: emunet.Stateful}, nil)

	pt := ipl.PortType{Name: "control", Stack: "tcpblk"}
	sp, rp := channel(t, a, b, pt, "hidden-inbox")
	sendText(t, sp, "routed through the relay")
	if got, _ := recvText(t, rp); got != "routed through the relay" {
		t.Fatalf("got %q", got)
	}
	for _, m := range SendPortMethods(sp) {
		if m != estab.Routed {
			t.Fatalf("expected routed data link, got %v", m)
		}
	}
}

func TestMulticastSendPort(t *testing.T) {
	g := newTestGrid(t)
	master := g.node("master", "site-m", emunet.SiteConfig{Firewall: emunet.Stateful}, nil)
	w1 := g.node("w1", "site-w1", emunet.SiteConfig{Firewall: emunet.Stateful}, nil)
	w2 := g.node("w2", "site-w2", emunet.SiteConfig{Firewall: emunet.Open}, nil)

	pt := ipl.PortType{Name: "broadcast", Stack: "tcpblk"}
	rp1, err := w1.CreateReceivePort(pt, "tasks")
	if err != nil {
		t.Fatal(err)
	}
	rp2, err := w2.CreateReceivePort(pt, "tasks")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := master.CreateSendPort(pt)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Connect(rp1.ID()); err != nil {
		t.Fatal(err)
	}
	if err := sp.Connect(rp2.ID()); err != nil {
		t.Fatal(err)
	}
	if got := len(sp.ConnectedTo()); got != 2 {
		t.Fatalf("connected to %d ports", got)
	}

	sendText(t, sp, "work unit 7")
	for i, rp := range []ipl.ReceivePort{rp1, rp2} {
		if got, _ := recvText(t, rp); got != "work unit 7" {
			t.Fatalf("receiver %d got %q", i, got)
		}
	}
}

func TestManyToOneReceivePort(t *testing.T) {
	g := newTestGrid(t)
	master := g.node("sink", "site-sink", emunet.SiteConfig{Firewall: emunet.Stateful}, nil)
	pt := ipl.PortType{Name: "results", Stack: "tcpblk"}
	rp, err := master.CreateReceivePort(pt, "results")
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		w := g.node(fmt.Sprintf("worker-%d", i), fmt.Sprintf("site-wk-%d", i),
			emunet.SiteConfig{Firewall: emunet.Stateful}, nil)
		wg.Add(1)
		go func(i int, w *Node) {
			defer wg.Done()
			sp, err := w.CreateSendPort(pt)
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			if err := sp.Connect(rp.ID()); err != nil {
				t.Errorf("worker %d connect: %v", i, err)
				return
			}
			m, _ := sp.NewMessage()
			m.WriteInt(int64(i))
			if err := m.Finish(); err != nil {
				t.Errorf("worker %d send: %v", i, err)
			}
		}(i, w)
	}

	seen := make(map[int64]bool)
	for i := 0; i < workers; i++ {
		msg, err := rp.Receive()
		if err != nil {
			t.Fatal(err)
		}
		v, err := msg.ReadInt()
		if err != nil {
			t.Fatal(err)
		}
		seen[v] = true
	}
	wg.Wait()
	if len(seen) != workers {
		t.Fatalf("got results from %d distinct workers, want %d", len(seen), workers)
	}
}

func TestConnectToMissingPortRejected(t *testing.T) {
	g := newTestGrid(t)
	a := g.node("src", "site-src", emunet.SiteConfig{Firewall: emunet.Stateful}, nil)
	b := g.node("dst", "site-dst", emunet.SiteConfig{Firewall: emunet.Stateful}, nil)

	pt := ipl.PortType{Name: "control", Stack: "tcpblk"}
	sp, err := a.CreateSendPort(pt)
	if err != nil {
		t.Fatal(err)
	}
	err = sp.Connect(ipl.PortID{Owner: b.Identifier(), Port: "does-not-exist"})
	if !errors.Is(err, ErrConnectRejected) {
		t.Fatalf("expected ErrConnectRejected, got %v", err)
	}
}

func TestIncompatiblePortTypesRejected(t *testing.T) {
	g := newTestGrid(t)
	a := g.node("pa", "site-pa", emunet.SiteConfig{Firewall: emunet.Stateful}, nil)
	b := g.node("pb", "site-pb", emunet.SiteConfig{Firewall: emunet.Stateful}, nil)

	// Another stack, and a sealed stack against the same one unsealed.
	for i, stacks := range [][2]string{{"tcpblk", "zip/tcpblk"}, {"zip/tcpblk", "zip/secure/tcpblk"}} {
		rp, err := b.CreateReceivePort(ipl.PortType{Name: "bulk", Stack: stacks[1]}, fmt.Sprintf("mismatch-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		sp, err := a.CreateSendPort(ipl.PortType{Name: "bulk", Stack: stacks[0]})
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.Connect(rp.ID()); !errors.Is(err, ErrConnectRejected) {
			t.Fatalf("%s to %s: expected ErrConnectRejected, got %v", stacks[0], stacks[1], err)
		}
	}
}

func TestLocateReceivePort(t *testing.T) {
	g := newTestGrid(t)
	a := g.node("finder", "site-f", emunet.SiteConfig{Firewall: emunet.Stateful}, nil)
	b := g.node("owner", "site-o", emunet.SiteConfig{Firewall: emunet.Stateful}, nil)

	pt := ipl.PortType{Name: "control", Stack: "tcpblk"}
	go func() {
		time.Sleep(30 * time.Millisecond)
		b.CreateReceivePort(pt, "late-port")
	}()
	pid, err := a.LocateReceivePort("late-port", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if pid.Owner.Name != "owner" || pid.Port != "late-port" {
		t.Fatalf("located %v", pid)
	}
}

func TestPingOverServiceLink(t *testing.T) {
	g := newTestGrid(t)
	a := g.node("pinger", "site-ping-a", emunet.SiteConfig{Firewall: emunet.Stateful}, nil)
	g.node("pingee", "site-ping-b", emunet.SiteConfig{Firewall: emunet.Stateful, NAT: emunet.CompliantNAT}, nil)

	rtt, err := a.Ping("pingee")
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 || rtt > 10*time.Second {
		t.Fatalf("implausible RTT %v", rtt)
	}
	// A second ping reuses the service link.
	if _, err := a.Ping("pingee"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Ping("no-such-node"); err == nil {
		t.Fatal("pinging an unknown node should fail")
	}
}

func TestWaitForNode(t *testing.T) {
	g := newTestGrid(t)
	a := g.node("early", "site-early", emunet.SiteConfig{Firewall: emunet.Stateful}, nil)
	go func() {
		time.Sleep(30 * time.Millisecond)
		g.node("late", "site-late", emunet.SiteConfig{Firewall: emunet.Stateful}, nil)
	}()
	if err := a.WaitForNode("late", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := a.WaitForNode("never", 30*time.Millisecond); err == nil {
		t.Fatal("waiting for a node that never joins should time out")
	}
}

func TestNodeCloseReleasesEverything(t *testing.T) {
	g := newTestGrid(t)
	a := g.node("closer", "site-close-a", emunet.SiteConfig{Firewall: emunet.Stateful}, nil)
	b := g.node("peer", "site-close-b", emunet.SiteConfig{Firewall: emunet.Stateful}, nil)

	pt := ipl.PortType{Name: "control", Stack: "tcpblk"}
	sp, rp := channel(t, a, b, pt, "close-inbox")
	sendText(t, sp, "before close")
	recvText(t, rp)

	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	// Operations on the closed node fail cleanly.
	if _, err := a.CreateReceivePort(pt, "post-close"); err == nil {
		t.Fatal("creating a port on a closed node should fail")
	}
}

func TestDuplicateReceivePortName(t *testing.T) {
	g := newTestGrid(t)
	a := g.node("dup", "site-dup", emunet.SiteConfig{Firewall: emunet.Stateful}, nil)
	pt := ipl.PortType{Name: "control", Stack: "tcpblk"}
	if _, err := a.CreateReceivePort(pt, "twice"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.CreateReceivePort(pt, "twice"); err == nil {
		t.Fatal("duplicate receive port name should be rejected")
	}
}

func TestOneMessageAtATime(t *testing.T) {
	g := newTestGrid(t)
	a := g.node("serial", "site-serial", emunet.SiteConfig{Firewall: emunet.Stateful}, nil)
	b := g.node("serial-peer", "site-serial-b", emunet.SiteConfig{Firewall: emunet.Stateful}, nil)
	pt := ipl.PortType{Name: "control", Stack: "tcpblk"}
	sp, rp := channel(t, a, b, pt, "serial-inbox")

	m, err := sp.NewMessage()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.NewMessage(); !errors.Is(err, ipl.ErrMessageActive) {
		t.Fatalf("expected ErrMessageActive, got %v", err)
	}
	m.WriteBool(true)
	if err := m.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.NewMessage(); err != nil {
		t.Fatalf("new message after finish: %v", err)
	}
	_ = rp
}

func TestManyMessagesFIFO(t *testing.T) {
	g := newTestGrid(t)
	a := g.node("fifo-a", "site-fifo-a", emunet.SiteConfig{Firewall: emunet.Stateful}, nil)
	b := g.node("fifo-b", "site-fifo-b", emunet.SiteConfig{Firewall: emunet.Stateful}, nil)
	pt := ipl.PortType{Name: "control", Stack: "multi:streams=3/tcpblk"}
	sp, rp := channel(t, a, b, pt, "fifo-inbox")

	const count = 200
	go func() {
		for i := 0; i < count; i++ {
			m, err := sp.NewMessage()
			if err != nil {
				t.Errorf("message %d: %v", i, err)
				return
			}
			m.WriteInt(int64(i))
			if err := m.Finish(); err != nil {
				t.Errorf("finish %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < count; i++ {
		msg, err := rp.Receive()
		if err != nil {
			t.Fatal(err)
		}
		v, err := msg.ReadInt()
		if err != nil {
			t.Fatal(err)
		}
		if v != int64(i) {
			t.Fatalf("FIFO order violated: got %d at position %d", v, i)
		}
	}
}
