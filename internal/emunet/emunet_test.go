package emunet

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// buildTwoSites returns a fabric with an open site and a destination
// site configured by cfg, and one host in each.
func buildTwoSites(t *testing.T, cfgA, cfgB SiteConfig) (*Fabric, *Host, *Host) {
	t.Helper()
	f := NewFabric(WithSeed(7))
	sa := f.AddSite("ams", cfgA)
	sb := f.AddSite("rennes", cfgB)
	ha := sa.AddHost("node-a")
	hb := sb.AddHost("node-b")
	return f, ha, hb
}

func echoOnce(t *testing.T, l *Listener) chan struct{} {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c)
	}()
	return done
}

func exchange(t *testing.T, c net.Conn, msg []byte) {
	t.Helper()
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo mismatch")
	}
}

func TestDialOpenSites(t *testing.T) {
	f, ha, hb := buildTwoSites(t, SiteConfig{Firewall: Open}, SiteConfig{Firewall: Open})
	defer f.Close()
	l, err := hb.Listen(5000)
	if err != nil {
		t.Fatal(err)
	}
	done := echoOnce(t, l)
	c, err := ha.Dial(Endpoint{Addr: hb.Address(), Port: 5000})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	exchange(t, c, []byte("hello grid"))
	c.Close()
	<-done
}

func TestDialSameSiteIgnoresFirewall(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	s := f.AddSite("delft", SiteConfig{Firewall: Stateful})
	h1 := s.AddHost("n1")
	h2 := s.AddHost("n2")
	l, err := h2.Listen(4000)
	if err != nil {
		t.Fatal(err)
	}
	done := echoOnce(t, l)
	c, err := h1.Dial(Endpoint{Addr: h2.Address(), Port: 4000})
	if err != nil {
		t.Fatalf("intra-site dial should bypass firewall: %v", err)
	}
	exchange(t, c, []byte("lan traffic"))
	c.Close()
	<-done
}

// TestClientServerBlockedByFirewall reproduces the left half of paper
// Figure 2: the ordinary handshake fails when the server's site runs a
// stateful firewall.
func TestClientServerBlockedByFirewall(t *testing.T) {
	f, ha, hb := buildTwoSites(t, SiteConfig{Firewall: Open}, SiteConfig{Firewall: Stateful})
	defer f.Close()
	if _, err := hb.Listen(5000); err != nil {
		t.Fatal(err)
	}
	_, err := ha.Dial(Endpoint{Addr: hb.Address(), Port: 5000})
	if err != ErrBlocked {
		t.Fatalf("expected ErrBlocked, got %v", err)
	}
}

func TestClientBehindFirewallCanDialOut(t *testing.T) {
	f, ha, hb := buildTwoSites(t, SiteConfig{Firewall: Stateful}, SiteConfig{Firewall: Open})
	defer f.Close()
	l, err := hb.Listen(5000)
	if err != nil {
		t.Fatal(err)
	}
	done := echoOnce(t, l)
	c, err := ha.Dial(Endpoint{Addr: hb.Address(), Port: 5000})
	if err != nil {
		t.Fatalf("outgoing connection through stateful firewall should work: %v", err)
	}
	exchange(t, c, []byte("outgoing ok"))
	c.Close()
	<-done
}

func TestExplicitlyOpenedPort(t *testing.T) {
	f, ha, hb := buildTwoSites(t, SiteConfig{Firewall: Open}, SiteConfig{Firewall: Stateful})
	defer f.Close()
	l, err := hb.Listen(5000)
	if err != nil {
		t.Fatal(err)
	}
	hb.Site().OpenPort(5000, Endpoint{Addr: hb.Address(), Port: 5000})
	done := echoOnce(t, l)
	c, err := ha.Dial(Endpoint{Addr: hb.Address(), Port: 5000})
	if err != nil {
		t.Fatalf("dial to explicitly opened port: %v", err)
	}
	exchange(t, c, []byte("admin opened the port"))
	c.Close()
	<-done
}

func TestDialPrivateAddressUnreachable(t *testing.T) {
	f, ha, hb := buildTwoSites(t, SiteConfig{Firewall: Open},
		SiteConfig{Firewall: Stateful, NAT: CompliantNAT})
	defer f.Close()
	if !hb.Address().IsPrivate() {
		t.Fatalf("NAT'ed host should have a private address, got %s", hb.Address())
	}
	_, err := ha.Dial(Endpoint{Addr: hb.Address(), Port: 5000})
	if err != ErrUnreachable {
		t.Fatalf("expected ErrUnreachable, got %v", err)
	}
	_ = f
}

func TestNATHostCanDialOut(t *testing.T) {
	f, ha, hb := buildTwoSites(t, SiteConfig{Firewall: Stateful, NAT: CompliantNAT}, SiteConfig{Firewall: Open})
	defer f.Close()
	l, err := hb.Listen(6000)
	if err != nil {
		t.Fatal(err)
	}
	done := echoOnce(t, l)
	c, err := ha.Dial(Endpoint{Addr: hb.Address(), Port: 6000})
	if err != nil {
		t.Fatalf("NAT'ed client dial out: %v", err)
	}
	// The server must see the site's public address, not the private one.
	srvSeen := c.LocalAddr().(Endpoint)
	if srvSeen.Addr != ha.Site().PublicAddress() {
		t.Fatalf("client's visible address = %v, want site public %v", srvSeen.Addr, ha.Site().PublicAddress())
	}
	exchange(t, c, []byte("natted"))
	c.Close()
	<-done
}

func TestConnRefusedWithoutListener(t *testing.T) {
	f, ha, hb := buildTwoSites(t, SiteConfig{Firewall: Open}, SiteConfig{Firewall: Open})
	defer f.Close()
	_, err := ha.Dial(Endpoint{Addr: hb.Address(), Port: 9999})
	if err != ErrConnRefused {
		t.Fatalf("expected ErrConnRefused, got %v", err)
	}
}

func TestStrictFirewallEgress(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	proxySite := f.AddSite("dmz", SiteConfig{Firewall: Open})
	proxy := proxySite.AddHost("gateway")
	strict := f.AddSite("corp", SiteConfig{Firewall: Strict, AllowedEgress: []Address{proxy.Address()}})
	inside := strict.AddHost("worker")
	outside := f.AddSite("inria", SiteConfig{Firewall: Open}).AddHost("server")

	if _, err := outside.Listen(80); err != nil {
		t.Fatal(err)
	}
	if _, err := inside.Dial(Endpoint{Addr: outside.Address(), Port: 80}); err != ErrEgressDenied {
		t.Fatalf("direct egress through strict firewall: got %v, want ErrEgressDenied", err)
	}
	pl, err := proxy.Listen(1080)
	if err != nil {
		t.Fatal(err)
	}
	done := echoOnce(t, pl)
	c, err := inside.Dial(Endpoint{Addr: proxy.Address(), Port: 1080})
	if err != nil {
		t.Fatalf("egress to allowed proxy should work: %v", err)
	}
	exchange(t, c, []byte("via proxy"))
	c.Close()
	<-done
}

func TestListenPortConflictAndAutoAssign(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	h := f.AddSite("site", SiteConfig{}).AddHost("h")
	l1, err := h.Listen(7000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Listen(7000); err != ErrPortInUse {
		t.Fatalf("expected ErrPortInUse, got %v", err)
	}
	l2, err := h.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Port() == 0 || l2.Port() == l1.Port() {
		t.Fatalf("auto-assigned port invalid: %d", l2.Port())
	}
	l1.Close()
	if _, err := h.Listen(7000); err != nil {
		t.Fatalf("port should be reusable after close: %v", err)
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	h := f.AddSite("site", SiteConfig{}).AddHost("h")
	l, err := h.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	l.Close()
	select {
	case err := <-errCh:
		if err != ErrClosed {
			t.Fatalf("Accept after Close: got %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Accept did not return after Close")
	}
}

// --- TCP splicing -------------------------------------------------------------

func spliceBoth(t *testing.T, ha, hb *Host, portA, portB int) (net.Conn, net.Conn, error, error) {
	t.Helper()
	epA := ha.PredictExternalEndpoint(portA)
	epB := hb.PredictExternalEndpoint(portB)
	var (
		ca, cb     net.Conn
		errA, errB error
		wg         sync.WaitGroup
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		ca, errA = ha.SpliceDial(portA, epB, 300*time.Millisecond)
	}()
	go func() {
		defer wg.Done()
		cb, errB = hb.SpliceDial(portB, epA, 300*time.Millisecond)
	}()
	wg.Wait()
	return ca, cb, errA, errB
}

// TestSplicingCrossesFirewalls reproduces the right half of paper
// Figure 2: simultaneous open succeeds even when both sites run
// stateful firewalls that block unsolicited inbound connections.
func TestSplicingCrossesFirewalls(t *testing.T) {
	f, ha, hb := buildTwoSites(t, SiteConfig{Firewall: Stateful}, SiteConfig{Firewall: Stateful})
	defer f.Close()
	ca, cb, errA, errB := spliceBoth(t, ha, hb, 7100, 7200)
	if errA != nil || errB != nil {
		t.Fatalf("splice failed: %v / %v", errA, errB)
	}
	msg := []byte("spliced across two firewalls")
	go func() {
		cb.Write(msg)
		cb.Close()
	}()
	got, err := io.ReadAll(ca)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("payload mismatch over spliced connection")
	}
}

func TestSplicingWithCompliantNAT(t *testing.T) {
	f, ha, hb := buildTwoSites(t,
		SiteConfig{Firewall: Stateful, NAT: CompliantNAT},
		SiteConfig{Firewall: Stateful})
	defer f.Close()
	_, _, errA, errB := spliceBoth(t, ha, hb, 7300, 7400)
	if errA != nil || errB != nil {
		t.Fatalf("splice through compliant NAT should succeed: %v / %v", errA, errB)
	}
}

// TestCompliantPredictionHoldsItsPort: an endpoint-independent NAT maps a
// port when the probe that learns it leaves, so the prediction a splice
// advertises is the mapping itself. Host A predicts port p; host B of the
// same site then dials out from p and gets another external port; A's
// splice lands on the predicted endpoint. The prediction used to create
// no mapping, B's flow took the port, and the splice missed.
func TestCompliantPredictionHoldsItsPort(t *testing.T) {
	f := NewFabric(WithSeed(7))
	defer f.Close()
	natted := f.AddSite("natted", SiteConfig{Firewall: Stateful, NAT: CompliantNAT})
	ha, hb := natted.AddHost("node-a"), natted.AddHost("node-b")
	hc := f.AddSite("remote", SiteConfig{Firewall: Stateful}).AddHost("node-c")

	const p = 7300
	predicted := ha.PredictExternalEndpoint(p)
	if _, err := hb.SpliceDial(p, Endpoint{Addr: hc.Address(), Port: 9}, 10*time.Millisecond); err != ErrSpliceTimeout {
		t.Fatalf("B's dial out from port %d: %v, want a splice nobody answers", p, err)
	}
	epC := hc.PredictExternalEndpoint(7400)
	var (
		ca, cc     net.Conn
		errA, errC error
		wg         sync.WaitGroup
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		ca, errA = ha.SpliceDial(p, epC, 300*time.Millisecond)
	}()
	go func() {
		defer wg.Done()
		cc, errC = hc.SpliceDial(7400, predicted, 300*time.Millisecond)
	}()
	wg.Wait()
	if errA != nil || errC != nil {
		t.Fatalf("splice to A's predicted endpoint %v: %v / %v", predicted, errA, errC)
	}
	ca.Close()
	cc.Close()
}

// TestSplicingWithBrokenNATFails reproduces the paper's observation that
// several non-standards-compliant NAT implementations "did not let TCP
// splicing connections across, even though they should have".
func TestSplicingWithBrokenNATFails(t *testing.T) {
	f, ha, hb := buildTwoSites(t,
		SiteConfig{Firewall: Stateful, NAT: BrokenNAT},
		SiteConfig{Firewall: Stateful})
	defer f.Close()
	_, _, errA, errB := spliceBoth(t, ha, hb, 7500, 7600)
	if errA == nil && errB == nil {
		t.Fatal("splice through broken NAT unexpectedly succeeded")
	}
}

func TestSpliceTimeoutWhenPeerAbsent(t *testing.T) {
	f, ha, hb := buildTwoSites(t, SiteConfig{Firewall: Stateful}, SiteConfig{Firewall: Stateful})
	defer f.Close()
	start := time.Now()
	_, err := ha.SpliceDial(7700, hb.PredictExternalEndpoint(7800), 50*time.Millisecond)
	if err != ErrSpliceTimeout {
		t.Fatalf("expected ErrSpliceTimeout, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("splice timeout took far too long")
	}
}

func TestSpliceSequentialRegistration(t *testing.T) {
	// The second peer may arrive noticeably later than the first; the
	// first offer must stay pending until then.
	f, ha, hb := buildTwoSites(t, SiteConfig{Firewall: Stateful}, SiteConfig{Firewall: Stateful})
	defer f.Close()
	epA := ha.PredictExternalEndpoint(7111)
	epB := hb.PredictExternalEndpoint(7222)
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ha.SpliceDial(7111, epB, 2*time.Second)
		ch <- res{c, err}
	}()
	time.Sleep(50 * time.Millisecond)
	cb, errB := hb.SpliceDial(7222, epA, 2*time.Second)
	ra := <-ch
	if ra.err != nil || errB != nil {
		t.Fatalf("sequential splice failed: %v / %v", ra.err, errB)
	}
	ra.c.Close()
	cb.Close()
}

// --- topology ------------------------------------------------------------------

func TestTopologyReporting(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	open := f.AddSite("open", SiteConfig{Firewall: Open}).AddHost("o")
	fw := f.AddSite("fw", SiteConfig{Firewall: Stateful}).AddHost("f")
	nat := f.AddSite("nat", SiteConfig{Firewall: Stateful, NAT: BrokenNAT}).AddHost("n")
	strict := f.AddSite("strict", SiteConfig{Firewall: Strict, PrivateAddresses: true}).AddHost("s")

	if topo := open.Topology(); topo.Firewalled || topo.NAT != NoNAT || topo.PrivateAddr || !topo.Reachable() {
		t.Fatalf("open topology wrong: %+v", topo)
	}
	if topo := fw.Topology(); !topo.Firewalled || topo.Reachable() {
		t.Fatalf("firewalled topology wrong: %+v", topo)
	}
	if topo := nat.Topology(); topo.NAT != BrokenNAT || !topo.PrivateAddr || topo.PublicAddr != nat.Site().PublicAddress() {
		t.Fatalf("NAT topology wrong: %+v", topo)
	}
	if topo := strict.Topology(); !topo.StrictFirewall || !topo.PrivateAddr {
		t.Fatalf("strict topology wrong: %+v", topo)
	}
}

func TestTopologyReachableQuick(t *testing.T) {
	// Reachable() must be true only for non-firewalled, non-NAT, public
	// hosts, for every combination of the three booleans.
	check := func(fwIdx, natIdx uint8, private bool) bool {
		topo := Topology{
			Firewalled:  fwIdx%3 != 0,
			NAT:         NATMode(natIdx % 3),
			PrivateAddr: private,
		}
		want := !topo.Firewalled && topo.NAT == NoNAT && !topo.PrivateAddr
		return topo.Reachable() == want
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// --- addresses, links, misc -----------------------------------------------------

func TestAddressAllocationDistinct(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	seen := map[Address]bool{}
	for i := 0; i < 3; i++ {
		s := f.AddSite(string(rune('a'+i)), SiteConfig{NAT: CompliantNAT, Firewall: Stateful})
		if seen[s.PublicAddress()] {
			t.Fatalf("duplicate site public address %v", s.PublicAddress())
		}
		seen[s.PublicAddress()] = true
		for j := 0; j < 4; j++ {
			h := s.AddHost(string(rune('a'+i)) + string(rune('0'+j)))
			if seen[h.Address()] {
				t.Fatalf("duplicate host address %v", h.Address())
			}
			seen[h.Address()] = true
		}
	}
}

func TestLinkParamsLookup(t *testing.T) {
	f := NewFabric(WithDefaultLink(LinkParams{CapacityBps: 1e6, RTT: 100 * time.Millisecond}))
	defer f.Close()
	f.AddSite("ams", SiteConfig{})
	f.AddSite("rennes", SiteConfig{})
	f.SetLink("ams", "rennes", LinkParams{CapacityBps: 1.6e6, RTT: 30 * time.Millisecond})
	got := f.Link("rennes", "ams")
	if got.CapacityBps != 1.6e6 || got.RTT != 30*time.Millisecond {
		t.Fatalf("link lookup should be symmetric: %+v", got)
	}
	def := f.Link("ams", "unknown")
	if def.CapacityBps != 1e6 {
		t.Fatalf("default link not used: %+v", def)
	}
	lan := f.Link("ams", "ams")
	if lan != DefaultLAN {
		t.Fatalf("intra-site link should be DefaultLAN: %+v", lan)
	}
}

func TestIsPrivate(t *testing.T) {
	if !Address("10.1.0.5").IsPrivate() {
		t.Fatal("10.x should be private")
	}
	if Address("198.51.3.2").IsPrivate() {
		t.Fatal("198.51.x should be public")
	}
	if Address("").IsPrivate() {
		t.Fatal("empty address should not be private")
	}
}

func TestFabricCloseStopsDialing(t *testing.T) {
	f, ha, hb := buildTwoSites(t, SiteConfig{}, SiteConfig{})
	hb.Listen(1234)
	f.Close()
	if _, err := ha.Dial(Endpoint{Addr: hb.Address(), Port: 1234}); err != ErrClosed {
		t.Fatalf("dial after fabric close: got %v, want ErrClosed", err)
	}
}

func TestEndpointStringAndNetwork(t *testing.T) {
	ep := Endpoint{Addr: "198.51.1.2", Port: 4242}
	if ep.String() != "198.51.1.2:4242" {
		t.Fatalf("String = %q", ep.String())
	}
	if ep.Network() != Network {
		t.Fatalf("Network = %q", ep.Network())
	}
	if ep.IsZero() {
		t.Fatal("non-zero endpoint reported as zero")
	}
	if !(Endpoint{}).IsZero() {
		t.Fatal("zero endpoint not reported as zero")
	}
}

func TestFirewallFlowState(t *testing.T) {
	fw := newFirewallState()
	local := Endpoint{Addr: "198.51.1.2", Port: 1000}
	remote := Endpoint{Addr: "198.51.2.2", Port: 2000}
	if fw.established(local, remote) {
		t.Fatal("flow should not exist before recordOutgoing")
	}
	fw.recordOutgoing(local, remote)
	if !fw.established(local, remote) {
		t.Fatal("flow should exist after recordOutgoing")
	}
	if fw.established(remote, local) {
		t.Fatal("flow direction should matter")
	}
	if fw.flowCount() != 1 {
		t.Fatalf("flowCount = %d", fw.flowCount())
	}
}

func TestNATCompliantMappingStable(t *testing.T) {
	n := newNATState(newTestRand(), CompliantNAT)
	internal := Endpoint{Addr: "10.1.0.2", Port: 5000}
	d1 := Endpoint{Addr: "198.51.9.9", Port: 80}
	d2 := Endpoint{Addr: "198.51.8.8", Port: 443}
	p1 := n.translate(internal, d1)
	p2 := n.translate(internal, d2)
	if p1 != p2 {
		t.Fatalf("compliant NAT must be endpoint independent: %d vs %d", p1, p2)
	}
	if pred := n.predict(internal); pred != p1 {
		t.Fatalf("prediction %d must match actual %d", pred, p1)
	}
	if back, ok := n.lookup(p1); !ok || back != internal {
		t.Fatalf("reverse lookup failed: %v %v", back, ok)
	}
}

func TestNATBrokenMappingUnpredictable(t *testing.T) {
	n := newTestBrokenNAT()
	internal := Endpoint{Addr: "10.1.0.2", Port: 5000}
	dst := Endpoint{Addr: "198.51.9.9", Port: 80}
	actual := n.translate(internal, dst)
	pred := n.predict(internal)
	if actual == pred {
		t.Fatalf("broken NAT should not honour the predicted mapping (actual=%d pred=%d)", actual, pred)
	}
}

func TestNATQuickDistinctInternalsGetDistinctPorts(t *testing.T) {
	n := newNATState(newTestRand(), CompliantNAT)
	f := func(p1, p2 uint16) bool {
		a := Endpoint{Addr: "10.0.0.1", Port: int(p1)%30000 + 1}
		b := Endpoint{Addr: "10.0.0.2", Port: int(p2)%30000 + 1}
		dst := Endpoint{Addr: "198.51.1.1", Port: 80}
		pa := n.translate(a, dst)
		pb := n.translate(b, dst)
		return pa != pb || a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
