package core

// End-to-end tests of the secure deployment mode on the emulated
// internetwork: CA-issued node and relay identities, authenticated
// attaches, signed registry records and sealed routed links — exercised
// through the full Node/port stack, including a cross-relay failover.

import (
	"errors"
	"testing"
	"time"

	"netibis/internal/drivers/secure"
	"netibis/internal/emunet"
	"netibis/internal/estab"
	"netibis/internal/identity"
	"netibis/internal/ipl"
	"netibis/internal/nameservice"
)

// newSecureGrid is newTestGrid on a secure federated deployment.
func newSecureGrid(t *testing.T, relayCount int) *testGrid {
	t.Helper()
	f := emunet.NewFabric(emunet.WithSeed(11))
	dep, err := NewSecureFederatedDeployment(f, relayCount, nil)
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

// secureNode joins an identity-carrying instance in the named site.
func (g *testGrid) secureNode(name, siteName string, cfg emunet.SiteConfig, mutate func(*Config)) *Node {
	g.t.Helper()
	site := g.fabric.Site(siteName)
	if site == nil {
		site = g.dep.AddSite(siteName, cfg)
	}
	host := site.AddHost(name)
	nodeCfg, err := g.dep.SecureNodeConfig(host, "testpool", name)
	if err != nil {
		g.t.Fatal(err)
	}
	nodeCfg.SpliceTimeout = 500 * time.Millisecond
	nodeCfg.AcceptTimeout = 5 * time.Second
	if mutate != nil {
		mutate(&nodeCfg)
	}
	n, err := Join(nodeCfg)
	if err != nil {
		g.t.Fatalf("join %s: %v", name, err)
	}
	g.addNode(n)
	return n
}

func TestSecureDeploymentMessageChannel(t *testing.T) {
	g := newSecureGrid(t, 2)
	// Strict firewalls on both sites force the routed method — the path
	// the end-to-end seal covers.
	a := g.secureNode("alice", "site-a", emunet.SiteConfig{Firewall: emunet.Strict}, func(c *Config) {
		c.Relays = []emunet.Endpoint{g.dep.Relays[0].Endpoint()}
	})
	b := g.secureNode("bob", "site-b", emunet.SiteConfig{Firewall: emunet.Strict}, func(c *Config) {
		c.Relays = []emunet.Endpoint{g.dep.Relays[1].Endpoint()}
	})

	pt := ipl.PortType{Name: "secure-chan", Stack: "tcpblk"}
	sp, rp := channel(t, a, b, pt, "inbox")
	defer sp.Close()
	defer rp.Close()

	sendText(t, sp, "sealed across two authenticated relays")
	got, origin := recvText(t, rp)
	if got != "sealed across two authenticated relays" {
		t.Fatalf("got %q", got)
	}
	if origin.Name != "alice" {
		t.Fatalf("origin %v", origin)
	}
}

// keylessStack names "secure" without key= or psk=: the layer is keyed by
// the two nodes' identities or not at all.
const keylessStack = "zip:codec=lz/secure/multi:streams=2/tcpblk"

// TestSecureStackSealedOnEveryMethod: the key of a keyless secure layer
// comes from the service link's handshake, so it is there — and the same
// on both ends — whichever establishment method carries the data link,
// for each sub-stream of the stack.
func TestSecureStackSealedOnEveryMethod(t *testing.T) {
	for _, tc := range []struct {
		name string
		site emunet.SiteConfig
		want estab.Method
	}{
		{"open", emunet.SiteConfig{Firewall: emunet.Open}, estab.ClientServer},
		{"stateful", emunet.SiteConfig{Firewall: emunet.Stateful}, estab.Splicing},
		{"strict", emunet.SiteConfig{Firewall: emunet.Strict}, estab.Routed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newSecureGrid(t, 1)
			a := g.secureNode("alice", "site-a", tc.site, nil)
			b := g.secureNode("bob", "site-b", tc.site, nil)
			sp, rp := channel(t, a, b, ipl.PortType{Name: "sealed", Stack: keylessStack}, "inbox")
			defer sp.Close()
			defer rp.Close()

			sendText(t, sp, "keyed by who we are")
			got, origin := recvText(t, rp)
			if got != "keyed by who we are" || origin != a.Identifier() {
				t.Fatalf("got %q from %v", got, origin)
			}
			methods := SendPortMethods(sp)
			if len(methods) != 1 || methods[rp.ID().String()] != tc.want {
				t.Fatalf("methods %v, want %v", methods, tc.want)
			}
		})
	}
}

// TestSecureChannel: on a secure deployment a port type that names no
// stack is sealed all the same.
func TestSecureChannel(t *testing.T) {
	g := newSecureGrid(t, 1)
	a := g.secureNode("sec-a", "site-sec-a", emunet.SiteConfig{Firewall: emunet.Stateful}, nil)
	b := g.secureNode("sec-b", "site-sec-b", emunet.SiteConfig{Firewall: emunet.Open}, nil)

	sp, rp := channel(t, a, b, ipl.PortType{Name: "secure-control"}, "secure-inbox")
	defer sp.Close()
	defer rp.Close()
	if sp.Type().Stack != "secure/tcpblk" || rp.Type().Stack != "secure/tcpblk" {
		t.Fatalf("stacks %q, %q, want secure/tcpblk", sp.Type().Stack, rp.Type().Stack)
	}
	sendText(t, sp, "authenticated and encrypted")
	got, origin := recvText(t, rp)
	if got != "authenticated and encrypted" || origin != a.Identifier() {
		t.Fatalf("got %q from %v", got, origin)
	}
}

// TestSecureStackFailsClosedWithoutIdentities: on a grid without
// identities the service link exports no key, and a keyless secure layer
// is an error on both ends before any data connection exists — never a
// plaintext link.
func TestSecureStackFailsClosedWithoutIdentities(t *testing.T) {
	g := newTestGrid(t)
	a := g.node("alice", "site-a", emunet.SiteConfig{Firewall: emunet.Open}, nil)
	b := g.node("bob", "site-b", emunet.SiteConfig{Firewall: emunet.Open}, nil)

	pt := ipl.PortType{Name: "sealed", Stack: keylessStack}
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
	if err := sp.Connect(rp.ID()); !errors.Is(err, secure.ErrNoKey) {
		t.Fatalf("connect: %v, want secure.ErrNoKey", err)
	}
	if m := SendPortMethods(sp); len(m) != 0 {
		t.Fatalf("a data connection was established: %v", m)
	}
	// The acceptor serves its end of the service link one request at a
	// time: once it answers a ping it is done with the connect, and it
	// refused to build its side too.
	if _, err := a.Ping("bob"); err != nil {
		t.Fatal(err)
	}
	port := rp.(*receivePort)
	port.mu.Lock()
	defer port.mu.Unlock()
	if len(port.sources) != 0 {
		t.Fatalf("the receive port took %d source(s) over an unkeyed secure stack", len(port.sources))
	}
}

func TestSecureDeploymentRejectsAnonymousNode(t *testing.T) {
	g := newSecureGrid(t, 1)
	site := g.dep.AddSite("site-x", emunet.SiteConfig{Firewall: emunet.Open})
	host := site.AddHost("mallory")
	// Plain NodeConfig: no identity, no trust. The relay demands
	// authentication, so the join fails with the typed error.
	cfg := g.dep.NodeConfig(host, "testpool", "mallory")
	_, err := Join(cfg)
	if err == nil {
		t.Fatal("anonymous node joined a secure deployment")
	}
	if !errors.Is(err, identity.ErrAuthRequired) {
		t.Fatalf("anonymous join: got %v", err)
	}
}

func TestSecureDeploymentRejectsForeignIdentity(t *testing.T) {
	g := newSecureGrid(t, 1)
	site := g.dep.AddSite("site-x", emunet.SiteConfig{Firewall: emunet.Open})
	host := site.AddHost("mallory")
	cfg := g.dep.NodeConfig(host, "testpool", "mallory")
	// A self-issued CA: valid-looking identity, wrong root of trust.
	foreignCA, err := identity.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	cfg.NodeIdentity, err = foreignCA.Issue("testpool/mallory")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trust = g.dep.Trust // trusts the deployment CA (so relay auth passes)
	_, err = Join(cfg)
	if !errors.Is(err, identity.ErrUnknownIdentity) {
		t.Fatalf("foreign-identity join: got %v", err)
	}
}

func TestSecureRegistryRejectsPoisonedRecords(t *testing.T) {
	g := newSecureGrid(t, 1)
	// A direct registry client (an attacker with network reach) tries to
	// overwrite the relay's advertised address and to plant a node
	// record. Both must be denied by the registration policy.
	conn, err := g.dep.Gateway.Dial(g.dep.RegistryEndpoint())
	if err != nil {
		t.Fatal(err)
	}
	cli := nameservice.NewClient(conn)
	defer cli.Close()

	err = cli.Register("overlay/relay/relay-0", []byte("6.6.6.6:4500"))
	if !errors.Is(err, nameservice.ErrDenied) {
		t.Fatalf("poisoned relay record: got %v", err)
	}
	err = cli.Register("testpool/node/alice", []byte("whatever"))
	if !errors.Is(err, nameservice.ErrDenied) {
		t.Fatalf("poisoned node record: got %v", err)
	}
	// A record signed by an untrusted identity is denied too.
	rogue, _ := identity.Generate("relay-0")
	err = cli.Register("overlay/relay/relay-0", identity.SealRecord(rogue, "overlay/relay/relay-0", []byte("6.6.6.6:4500")))
	if !errors.Is(err, nameservice.ErrDenied) {
		t.Fatalf("rogue-signed relay record: got %v", err)
	}
	// App-level records remain open (ports registry etc.).
	if err := cli.Register("testpool/app/counter", []byte("7")); err != nil {
		t.Fatalf("app record: %v", err)
	}
}

func TestSecureDeploymentFailoverKeepsSealedLink(t *testing.T) {
	g := newSecureGrid(t, 2)
	a := g.secureNode("alice", "site-a", emunet.SiteConfig{Firewall: emunet.Strict}, func(c *Config) {
		c.Relays = []emunet.Endpoint{g.dep.Relays[1].Endpoint()}
	})
	b := g.secureNode("bob", "site-b", emunet.SiteConfig{Firewall: emunet.Strict}, func(c *Config) {
		c.Relays = []emunet.Endpoint{g.dep.Relays[0].Endpoint()}
	})

	pt := ipl.PortType{Name: "secure-chan", Stack: "tcpblk"}
	sp, rp := channel(t, a, b, pt, "inbox")
	defer sp.Close()
	defer rp.Close()

	sendText(t, sp, "before failover")
	if got, _ := recvText(t, rp); got != "before failover" {
		t.Fatalf("got %q", got)
	}

	// Kill alice's relay: the node must re-authenticate on the survivor
	// (Resume runs the full handshake) and the sealed link must keep
	// working — the explicit record sequence tolerates the frames lost
	// with the dead relay.
	g.dep.Relays[1].Kill()
	deadline := time.Now().Add(15 * time.Second)
	for a.RelayEndpoint() != g.dep.Relays[0].Endpoint() {
		if time.Now().After(deadline) {
			t.Fatal("alice did not fail over to the surviving relay")
		}
		time.Sleep(20 * time.Millisecond)
	}

	sendText(t, sp, "after failover, still sealed")
	if got, _ := recvText(t, rp); got != "after failover, still sealed" {
		t.Fatalf("after failover got %q", got)
	}
}
