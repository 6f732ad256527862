package estab

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"netibis/internal/emunet"
	"netibis/internal/relay"
	"netibis/internal/socks"
)

// world builds the multi-site grid used throughout the establishment
// integration tests: a public gateway running the relay and a SOCKS
// proxy, plus one host in each interesting kind of site.
type world struct {
	fabric *emunet.Fabric

	relaySrv *relay.Server
	socksSrv *socks.Server
	gateway  *emunet.Host

	relayPort int
	socksPort int
}

func newWorld(t *testing.T) *world {
	t.Helper()
	f := emunet.NewFabric(emunet.WithSeed(11))
	gw := f.AddSite("gateway", emunet.SiteConfig{Firewall: emunet.Open}).AddHost("gateway")

	w := &world{fabric: f, gateway: gw, relayPort: 4500, socksPort: 1080}

	rl, err := gw.Listen(w.relayPort)
	if err != nil {
		t.Fatal(err)
	}
	w.relaySrv = relay.NewServer()
	go w.relaySrv.Serve(rl)

	sl, err := gw.Listen(w.socksPort)
	if err != nil {
		t.Fatal(err)
	}
	w.socksSrv = socks.NewServer(func(host string, port int) (net.Conn, error) {
		return gw.Dial(emunet.Endpoint{Addr: emunet.Address(host), Port: port})
	}, nil)
	go w.socksSrv.Serve(sl)

	t.Cleanup(func() {
		w.relaySrv.Close()
		w.socksSrv.Close()
		f.Close()
	})
	return w
}

// connector creates a host in a site with the given config and wires it
// up with a relay attachment and (optionally) the gateway SOCKS proxy.
func (w *world) connector(t *testing.T, siteName, hostName string, cfg emunet.SiteConfig, withProxy bool) *Connector {
	t.Helper()
	site := w.fabric.Site(siteName)
	if site == nil {
		if cfg.Firewall == emunet.Strict {
			cfg.AllowedEgress = append(cfg.AllowedEgress, w.gateway.Address())
		}
		site = w.fabric.AddSite(siteName, cfg)
	}
	h := site.AddHost(hostName)
	conn, err := h.Dial(emunet.Endpoint{Addr: w.gateway.Address(), Port: w.relayPort})
	if err != nil {
		t.Fatalf("%s: dial relay: %v", hostName, err)
	}
	rc, err := relay.Attach(conn, hostName)
	if err != nil {
		t.Fatalf("%s: attach relay: %v", hostName, err)
	}
	c := &Connector{Host: h, Relay: rc, AcceptRouted: acceptRouted(rc), SpliceTimeout: 500 * time.Millisecond, AcceptTimeout: 5 * time.Second}
	if withProxy {
		c.ProxyAddr = emunet.Endpoint{Addr: w.gateway.Address(), Port: w.socksPort}
	}
	t.Cleanup(func() { rc.Close() })
	return c
}

// acceptRouted is a test connector's AcceptRouted hook, what core's
// dispatcher is to a node: on first use it starts one pump over the relay
// attachment, which lives as long as the attachment, every wait takes the
// pump's next link, and a link its acceptor abandoned (a lost race) is
// discarded.
func acceptRouted(rc *relay.Client) func(string, time.Duration, <-chan struct{}) (net.Conn, error) {
	var once sync.Once
	links := make(chan net.Conn, 1)
	return func(_ string, timeout time.Duration, cancel <-chan struct{}) (net.Conn, error) {
		once.Do(func() {
			go func() {
				defer close(links)
				for {
					conn, err := rc.Accept()
					if err != nil {
						return
					}
					links <- conn
				}
			}()
		})
		deadline := time.After(timeout)
		for {
			select {
			case conn, ok := <-links:
				if !ok {
					return nil, relay.ErrClosed
				}
				if conn.(interface{ Abandoned() bool }).Abandoned() {
					conn.Close()
					continue
				}
				return conn, nil
			case <-cancel:
				return nil, errRaceLost
			case <-deadline:
				return nil, errors.New("timed out waiting for a routed link")
			}
		}
	}
}

// establishPair is establishPairOpts without a cache key, fatal on
// error.
func establishPair(t *testing.T, init, acc *Connector) (net.Conn, net.Conn, Method) {
	t.Helper()
	a, b, m, err := establishPairOpts(t, init, acc, EstablishOpts{})
	if err != nil {
		t.Fatalf("establish: %v", err)
	}
	return a, b, m
}

// verifyLink pushes data both ways across the established link.
func verifyLink(t *testing.T, a, b net.Conn) {
	t.Helper()
	msg := bytes.Repeat([]byte("data link payload "), 500)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, len(msg))
		if _, err := io.ReadFull(b, buf); err != nil {
			t.Errorf("peer read: %v", err)
			return
		}
		if !bytes.Equal(buf, msg) {
			t.Error("payload mismatch A->B")
			return
		}
		b.Write(buf)
	}()
	if _, err := a.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	back := make([]byte, len(msg))
	if _, err := io.ReadFull(a, back); err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !bytes.Equal(back, msg) {
		t.Fatal("payload mismatch B->A")
	}
	wg.Wait()
	a.Close()
	b.Close()
}

func TestEstablishClientServerToOpenPeer(t *testing.T) {
	w := newWorld(t)
	init := w.connector(t, "fw-a", "init-1", emunet.SiteConfig{Firewall: emunet.Stateful}, false)
	acc := w.connector(t, "open-a", "acc-1", emunet.SiteConfig{Firewall: emunet.Open}, false)
	a, b, m := establishPair(t, init, acc)
	if m != ClientServer {
		t.Fatalf("method = %v, want ClientServer", m)
	}
	verifyLink(t, a, b)
}

func TestEstablishClientServerReverseDirection(t *testing.T) {
	// The initiator is the open one; the acceptor sits behind a
	// firewall, so the data connection must be dialed by the acceptor
	// towards the initiator.
	w := newWorld(t)
	init := w.connector(t, "open-b", "init-2", emunet.SiteConfig{Firewall: emunet.Open}, false)
	acc := w.connector(t, "fw-b", "acc-2", emunet.SiteConfig{Firewall: emunet.Stateful}, false)
	a, b, m := establishPair(t, init, acc)
	if m != ClientServer {
		t.Fatalf("method = %v, want ClientServer", m)
	}
	verifyLink(t, a, b)
}

// TestEstablishSplicingBetweenFirewalledSites is the headline
// qualitative result: both sites run stateful firewalls and no ports are
// opened, yet a native (non-relayed) data link comes up via splicing.
func TestEstablishSplicingBetweenFirewalledSites(t *testing.T) {
	w := newWorld(t)
	init := w.connector(t, "fw-c", "init-3", emunet.SiteConfig{Firewall: emunet.Stateful}, false)
	acc := w.connector(t, "fw-d", "acc-3", emunet.SiteConfig{Firewall: emunet.Stateful}, false)
	a, b, m := establishPair(t, init, acc)
	if m != Splicing {
		t.Fatalf("method = %v, want Splicing", m)
	}
	verifyLink(t, a, b)
}

func TestEstablishSplicingThroughCompliantNAT(t *testing.T) {
	w := newWorld(t)
	init := w.connector(t, "nat-ok", "init-4", emunet.SiteConfig{Firewall: emunet.Stateful, NAT: emunet.CompliantNAT}, false)
	acc := w.connector(t, "fw-e", "acc-4", emunet.SiteConfig{Firewall: emunet.Stateful}, false)
	a, b, m := establishPair(t, init, acc)
	if m != Splicing {
		t.Fatalf("method = %v, want Splicing", m)
	}
	verifyLink(t, a, b)
}

// TestEstablishProxyForBrokenNAT reproduces the paper's fallback: a NAT
// implementation that defeats splicing forces the connection through a
// SOCKS proxy (which still needs no firewall holes).
func TestEstablishProxyForBrokenNAT(t *testing.T) {
	w := newWorld(t)
	init := w.connector(t, "nat-broken", "init-5", emunet.SiteConfig{Firewall: emunet.Stateful, NAT: emunet.BrokenNAT}, true)
	acc := w.connector(t, "open-c", "acc-5", emunet.SiteConfig{Firewall: emunet.Open}, false)
	// Client/server would win otherwise (the peer is openly reachable);
	// force both sides onto the proxy path to exercise it end to end.
	init.ForcedMethod = Proxy
	acc.ForcedMethod = Proxy
	a, b, m := establishPair(t, init, acc)
	if m != Proxy {
		t.Fatalf("method = %v, want Proxy", m)
	}
	verifyLink(t, a, b)
	if w.socksSrv.Connections() == 0 {
		t.Fatal("SOCKS proxy saw no connections")
	}
}

func TestEstablishRoutedBetweenBrokenNATAndFirewall(t *testing.T) {
	w := newWorld(t)
	init := w.connector(t, "nat-broken-2", "init-6", emunet.SiteConfig{Firewall: emunet.Stateful, NAT: emunet.BrokenNAT}, false)
	acc := w.connector(t, "fw-f", "acc-6", emunet.SiteConfig{Firewall: emunet.Stateful}, false)
	a, b, m := establishPair(t, init, acc)
	if m != Routed {
		t.Fatalf("method = %v, want Routed", m)
	}
	verifyLink(t, a, b)
	if w.relaySrv.Stats().FramesRouted == 0 {
		t.Fatal("relay routed no frames for a routed data link")
	}
}

func TestEstablishRoutedForStrictFirewall(t *testing.T) {
	w := newWorld(t)
	init := w.connector(t, "strict-a", "init-7", emunet.SiteConfig{Firewall: emunet.Strict, PrivateAddresses: true}, false)
	acc := w.connector(t, "fw-g", "acc-7", emunet.SiteConfig{Firewall: emunet.Stateful}, false)
	a, b, m := establishPair(t, init, acc)
	if m != Routed {
		t.Fatalf("method = %v, want Routed", m)
	}
	verifyLink(t, a, b)
}

func TestEstablishSameSite(t *testing.T) {
	w := newWorld(t)
	init := w.connector(t, "cluster", "init-8", emunet.SiteConfig{Firewall: emunet.Stateful, PrivateAddresses: true}, false)
	acc := w.connector(t, "cluster", "acc-8", emunet.SiteConfig{}, false)
	a, b, m := establishPair(t, init, acc)
	if m != ClientServer {
		t.Fatalf("method = %v, want ClientServer", m)
	}
	verifyLink(t, a, b)
}

func TestForcedMethodOverridesDecision(t *testing.T) {
	w := newWorld(t)
	init := w.connector(t, "open-d", "init-9", emunet.SiteConfig{Firewall: emunet.Open}, false)
	acc := w.connector(t, "open-e", "acc-9", emunet.SiteConfig{Firewall: emunet.Open}, false)
	init.ForcedMethod = Routed
	acc.ForcedMethod = Routed
	a, b, m := establishPair(t, init, acc)
	if m != Routed {
		t.Fatalf("method = %v, want forced Routed", m)
	}
	verifyLink(t, a, b)
}

func TestEstablishmentDelayMeasurable(t *testing.T) {
	// Establishment delay is one of the paper's connection properties;
	// make sure repeated establishments over the same world work and can
	// be timed (the actual numbers are reported by the benchmarks).
	w := newWorld(t)
	init := w.connector(t, "fw-h", "init-10", emunet.SiteConfig{Firewall: emunet.Stateful}, false)
	acc := w.connector(t, "fw-i", "acc-10", emunet.SiteConfig{Firewall: emunet.Stateful}, false)
	for i := 0; i < 5; i++ {
		start := time.Now()
		a, b, m := establishPair(t, init, acc)
		if m != Splicing {
			t.Fatalf("iteration %d: method %v", i, m)
		}
		if time.Since(start) > 5*time.Second {
			t.Fatalf("iteration %d: establishment took too long", i)
		}
		a.Close()
		b.Close()
	}
}

func TestProfileReflectsConnector(t *testing.T) {
	w := newWorld(t)
	c := w.connector(t, "nat-prof", "prof-1", emunet.SiteConfig{Firewall: emunet.Stateful, NAT: emunet.BrokenNAT}, true)
	p := c.Profile()
	if !p.Firewalled || p.NAT != emunet.BrokenNAT || !p.PrivateAddr || !p.HasProxy || !p.HasRelay {
		t.Fatalf("profile does not reflect topology: %+v", p)
	}
	if p.RelayID != "prof-1" {
		t.Fatalf("relay ID = %q", p.RelayID)
	}
	if p.PublicAddr == "" || p.Addr == "" {
		t.Fatal("addresses missing from profile")
	}
}

func TestBootstrapDial(t *testing.T) {
	w := newWorld(t)
	c := w.connector(t, "fw-j", "boot-1", emunet.SiteConfig{Firewall: emunet.Stateful}, false)
	// Bootstrap to the public gateway must always work: it is an
	// ordinary outgoing client/server dial.
	l, err := w.gateway.Listen(9999)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := l.Accept()
		if err == nil {
			conn.Close()
		}
	}()
	conn, err := c.Host.Dial(emunet.Endpoint{Addr: w.gateway.Address(), Port: 9999})
	if err != nil {
		t.Fatalf("bootstrap dial: %v", err)
	}
	conn.Close()
}
