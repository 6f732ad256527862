package estab

import (
	"errors"
	"testing"
	"testing/quick"

	"netibis/internal/emunet"
	"netibis/internal/wire"
)

// Profile fixtures matching the site archetypes of the paper's testbed.
var (
	openSite    = Profile{SiteName: "open", Addr: "198.51.1.2", PublicAddr: "198.51.1.2", HasRelay: true, RelayID: "open-node"}
	fwSite      = Profile{SiteName: "fw", Firewalled: true, Addr: "198.51.2.2", PublicAddr: "198.51.2.2", HasRelay: true, RelayID: "fw-node"}
	fwSite2     = Profile{SiteName: "fw2", Firewalled: true, Addr: "198.51.7.2", PublicAddr: "198.51.7.2", HasRelay: true, RelayID: "fw2-node"}
	natSite     = Profile{SiteName: "nat", Firewalled: true, NAT: emunet.CompliantNAT, PrivateAddr: true, Addr: "10.3.0.2", PublicAddr: "198.51.3.1", HasRelay: true, RelayID: "nat-node"}
	natSite2    = Profile{SiteName: "nat2", Firewalled: true, NAT: emunet.CompliantNAT, PrivateAddr: true, Addr: "10.8.0.2", PublicAddr: "198.51.8.1", HasRelay: true, RelayID: "nat2-node"}
	brokenSite  = Profile{SiteName: "broken", Firewalled: true, NAT: emunet.BrokenNAT, PrivateAddr: true, Addr: "10.4.0.2", PublicAddr: "198.51.4.1", HasProxy: true, HasRelay: true, RelayID: "broken-node"}
	strictSite  = Profile{SiteName: "strict", Firewalled: true, Strict: true, PrivateAddr: true, Addr: "10.5.0.2", PublicAddr: "198.51.5.1", HasRelay: true, RelayID: "strict-node"}
	strictSite2 = Profile{SiteName: "strict2", Firewalled: true, Strict: true, PrivateAddr: true, Addr: "10.9.0.2", PublicAddr: "198.51.9.1", HasRelay: true, RelayID: "strict2-node"}
	privateSite = Profile{SiteName: "priv", PrivateAddr: true, Addr: "10.6.0.2", PublicAddr: "10.6.0.2", HasRelay: true, RelayID: "priv-node"}
)

// TestTable1 pins the property matrix to the paper's Table 1, row by row
// and column by column.
func TestTable1(t *testing.T) {
	type row struct {
		method           Method
		crossesFirewalls bool
		nat              NATSupport
		bootstrap        bool
		nativeTCP        bool
		relayed          bool
		brokering        bool
	}
	rows := []row{
		{ClientServer, false, NATClientOnly, true, true, false, false},
		{Splicing, true, NATPartial, false, true, false, true},
		{Proxy, true, NATYes, false, true, true, true},
		{Routed, true, NATYes, true, false, true, false},
	}
	for _, r := range rows {
		p := PropertiesOf(r.method)
		if p.CrossesFirewalls != r.crossesFirewalls {
			t.Errorf("%v: CrossesFirewalls = %v", r.method, p.CrossesFirewalls)
		}
		if p.NAT != r.nat {
			t.Errorf("%v: NAT = %v, want %v", r.method, p.NAT, r.nat)
		}
		if p.Bootstrap != r.bootstrap {
			t.Errorf("%v: Bootstrap = %v", r.method, p.Bootstrap)
		}
		if p.NativeTCP != r.nativeTCP {
			t.Errorf("%v: NativeTCP = %v", r.method, p.NativeTCP)
		}
		if p.Relayed != r.relayed {
			t.Errorf("%v: Relayed = %v", r.method, p.Relayed)
		}
		if p.NeedsBrokering != r.brokering {
			t.Errorf("%v: NeedsBrokering = %v", r.method, p.NeedsBrokering)
		}
	}
}

// TestPrecedenceOrder pins the paper's preference list: native TCP and
// non-relayed methods first, brokering-free before brokered within that.
func TestPrecedenceOrder(t *testing.T) {
	want := []Method{ClientServer, Splicing, Proxy, Routed}
	if len(Precedence) != len(want) {
		t.Fatalf("precedence has %d entries", len(Precedence))
	}
	for i := range want {
		if Precedence[i] != want[i] {
			t.Fatalf("precedence[%d] = %v, want %v", i, Precedence[i], want[i])
		}
	}
}

// TestDecisionTree covers the decision tree of Figure 4 for the
// topology archetypes of the paper's evaluation.
func TestDecisionTree(t *testing.T) {
	cases := []struct {
		name       string
		initiator  Profile
		acceptor   Profile
		bootstrap  bool
		wantMethod Method
	}{
		{"open to open", openSite, openSite, false, ClientServer},
		{"firewalled to open", fwSite, openSite, false, ClientServer},
		{"open to firewalled (reverse direction dialable)", openSite, fwSite, false, ClientServer},
		{"firewalled to firewalled", fwSite, fwSite2, false, Splicing},
		{"firewalled to compliant NAT", fwSite, natSite, false, Splicing},
		{"compliant NAT to compliant NAT", natSite, natSite2, false, Splicing},
		{"broken NAT to open", brokenSite, openSite, false, ClientServer},
		{"broken NAT to firewalled", brokenSite, fwSite, false, Routed},
		{"firewalled to broken NAT", fwSite, brokenSite, false, Routed},
		{"broken NAT with proxy to open (forced away from c/s by firewall)", brokenSite, fwSite, false, Routed},
		{"strict to open", strictSite, openSite, false, Routed},
		{"strict to firewalled", strictSite, fwSite, false, Routed},
		{"private (no NAT) to firewalled", privateSite, fwSite, false, Routed},
		{"bootstrap to open registry", fwSite, openSite, true, ClientServer},
		{"bootstrap from NAT to open registry", natSite, openSite, true, ClientServer},
		{"bootstrap between firewalled sites", fwSite, fwSite2, true, Routed},
	}
	for _, c := range cases {
		got, err := Decide(c.initiator, c.acceptor, c.bootstrap)
		if err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
			continue
		}
		if got != c.wantMethod {
			t.Errorf("%s: Decide = %v, want %v", c.name, got, c.wantMethod)
		}
	}
}

func TestDecideProxyPreferredOverRouted(t *testing.T) {
	// A host behind a broken NAT with a SOCKS proxy, talking to a
	// reachable peer: proxy wins over routed (Table 1 precedence), and
	// client/server is impossible only if the reachable peer cannot dial
	// back. Here the peer is open, so client/server wins outright; make
	// the peer open but the initiator un-dialable to force the choice.
	init := brokenSite // HasProxy
	acc := openSite
	m, err := Decide(init, acc, false)
	if err != nil {
		t.Fatal(err)
	}
	// The open acceptor is directly dialable, so client/server wins.
	if m != ClientServer {
		t.Fatalf("got %v, want ClientServer", m)
	}
	// Remove direct dialability by firewalling the acceptor but keep it
	// reachable... not possible; instead verify the proxy branch with a
	// strict-firewalled initiator that still has a proxy whitelisted.
	strictWithProxy := strictSite
	strictWithProxy.HasProxy = true
	m, err = Decide(strictWithProxy, openSite, false)
	if err != nil {
		t.Fatal(err)
	}
	if m != Proxy {
		t.Fatalf("strict+proxy to open: got %v, want Proxy", m)
	}
}

func TestDecideNoMethod(t *testing.T) {
	// Two strict sites without relay attachment cannot talk at all.
	a := strictSite
	a.HasRelay = false
	b := strictSite2
	b.HasRelay = false
	if _, err := Decide(a, b, false); err != ErrNoMethod {
		t.Fatalf("expected ErrNoMethod, got %v", err)
	}
}

func TestSameSiteAlwaysDirect(t *testing.T) {
	a := Profile{SiteName: "cluster", Firewalled: true, PrivateAddr: true, Addr: "10.9.0.1"}
	b := Profile{SiteName: "cluster", Firewalled: true, PrivateAddr: true, Addr: "10.9.0.2"}
	m, err := Decide(a, b, false)
	if err != nil {
		t.Fatal(err)
	}
	if m != ClientServer {
		t.Fatalf("intra-site connection should use client/server, got %v", m)
	}
}

func TestPossibleSplicingRules(t *testing.T) {
	if Possible(Splicing, brokenSite, fwSite, false) {
		t.Fatal("splicing must be impossible behind a broken NAT")
	}
	if Possible(Splicing, strictSite, fwSite, false) {
		t.Fatal("splicing must be impossible behind a strict firewall")
	}
	if Possible(Splicing, privateSite, fwSite, false) {
		t.Fatal("splicing must be impossible for private addresses without NAT")
	}
	if !Possible(Splicing, natSite, fwSite, false) {
		t.Fatal("splicing should work behind a compliant NAT")
	}
	if Possible(Splicing, fwSite, fwSite, true) {
		t.Fatal("splicing cannot be used for bootstrap links")
	}
}

func TestDecisionConsistencyQuick(t *testing.T) {
	// Property: Decide is symmetric in outcome-category for symmetric
	// methods — if it picks Splicing for (a,b) it must pick Splicing for
	// (b,a); and the chosen method must always be Possible.
	gen := func(fw, strict, priv, proxy bool, natRaw uint8, relay bool) Profile {
		p := Profile{
			SiteName:    "s" + string(rune('a'+natRaw%5)),
			Firewalled:  fw || strict,
			Strict:      strict,
			NAT:         emunet.NATMode(natRaw % 3),
			PrivateAddr: priv || emunet.NATMode(natRaw%3) != emunet.NoNAT,
			HasProxy:    proxy,
			HasRelay:    relay,
			RelayID:     "id",
			Addr:        "10.0.0.1",
			PublicAddr:  "198.51.99.1",
		}
		return p
	}
	f := func(fw1, st1, pv1, px1 bool, nat1 uint8, rl1 bool,
		fw2, st2, pv2, px2 bool, nat2 uint8, rl2 bool) bool {
		a := gen(fw1, st1, pv1, px1, nat1, rl1)
		a.SiteName = "siteA"
		b := gen(fw2, st2, pv2, px2, nat2, rl2)
		b.SiteName = "siteB"
		m1, err1 := Decide(a, b, false)
		m2, err2 := Decide(b, a, false)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		if !Possible(m1, a, b, false) {
			return false
		}
		// Symmetric methods must be chosen symmetrically.
		if m1 == Splicing || m1 == Routed {
			return m1 == m2
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestProfileEncodeDecodeRoundTrip(t *testing.T) {
	for _, p := range []Profile{openSite, fwSite, natSite, brokenSite, strictSite, privateSite, {}} {
		got, err := DecodeProfile(p.Encode())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got != p {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, p)
		}
	}
}

// TestProfileDecodeCorrupt: the profile has one layout; anything shorter
// or longer than it is an error, never a profile with fields defaulted.
func TestProfileDecodeCorrupt(t *testing.T) {
	home := natSite
	home.HomeRelay = "relay-1"
	full := home.Encode()
	noHome := full[:len(full)-1-len(home.HomeRelay)] // one length byte + the ID
	for what, bad := range map[string][]byte{
		"garbage":       {0xFF},
		"empty":         nil,
		"no HomeRelay":  noHome,
		"trailing byte": append(append([]byte(nil), full...), 0),
	} {
		if _, err := DecodeProfile(bad); err == nil {
			t.Errorf("profile with %s decoded", what)
		}
	}
	if got, err := DecodeProfile(full); err != nil || got != home {
		t.Fatalf("canonical profile: %+v, %v", got, err)
	}
}

// TestEndpointDecodeCorrupt: the msgListen body is string addr ‖ uvarint
// port and nothing else, and a port is at most 65535.
func TestEndpointDecodeCorrupt(t *testing.T) {
	body := func(addr string, port uint64) []byte {
		return wire.AppendUvarint(wire.AppendString(nil, addr), port)
	}
	full := body("10.1.0.2", 40000)
	if ep, err := decodeEndpoint(full); err != nil || ep != (emunet.Endpoint{Addr: "10.1.0.2", Port: 40000}) {
		t.Fatalf("canonical endpoint: %+v, %v", ep, err)
	}
	if _, err := decodeEndpoint(body("10.1.0.2", 65535)); err != nil {
		t.Fatalf("port 65535: %v", err)
	}
	for what, bad := range map[string][]byte{
		"empty":         nil,
		"truncated":     full[:len(full)-1],
		"no port":       wire.AppendString(nil, "10.1.0.2"),
		"trailing byte": append(append([]byte(nil), full...), 0),
		"port 65536":    body("10.1.0.2", 65536),
	} {
		if _, err := decodeEndpoint(bad); !errors.Is(err, ErrProtocol) {
			t.Errorf("endpoint with %s: %v, want ErrProtocol", what, err)
		}
	}
}

func TestProfileEncodeDecodeQuick(t *testing.T) {
	f := func(site, addr, pub, relayID string, flags uint8, nat uint8) bool {
		p := Profile{
			SiteName:    site,
			Firewalled:  flags&1 != 0,
			Strict:      flags&2 != 0,
			PrivateAddr: flags&4 != 0,
			HasProxy:    flags&8 != 0,
			HasRelay:    flags&16 != 0,
			NAT:         emunet.NATMode(nat % 3),
			Addr:        emunet.Address(addr),
			PublicAddr:  emunet.Address(pub),
			RelayID:     relayID,
		}
		got, err := DecodeProfile(p.Encode())
		return err == nil && got == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMethodStrings(t *testing.T) {
	for m, want := range map[Method]string{
		MethodNone:   "none",
		ClientServer: "client/server",
		Splicing:     "tcp-splicing",
		Proxy:        "tcp-proxy",
		Routed:       "routed-messages",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
	if NATPartial.String() != "partial" || NATYes.String() != "yes" ||
		NATClientOnly.String() != "client" || NATNo.String() != "no" {
		t.Error("NATSupport strings wrong")
	}
}
