package core

import (
	"testing"

	"netibis/internal/emunet"
	"netibis/internal/estab"
	"netibis/internal/ipl"
)

// TestConnectivityMatrix reproduces the paper's qualitative result: "In
// all cases, we were able to establish a connection from every node to
// every other node without opening ports in firewalls." One node per
// site archetype on a two-relay mesh, and every ordered pair connects
// and carries a message.
//
// The first six archetypes are the paper's testbed: an open site, two
// stateful firewalls, a compliant NAT and a broken one, plus a
// firewalled site whose node attaches to the mesh's second relay, so its
// pairs cross the relay-to-relay link. The last three go beyond it: a
// strict private cluster that reaches out only through a proxy, a
// firewall that drops simultaneous-open SYNs, and a port-restricted NAT
// whose predictions always miss.
func TestConnectivityMatrix(t *testing.T) {
	const paperSites = 6
	archetypes := []struct {
		name  string
		site  emunet.SiteConfig
		relay int
	}{
		{"open", emunet.SiteConfig{Firewall: emunet.Open}, 0},
		{"firewalled-nl", stateful, 0},
		{"firewalled-fr", stateful, 0},
		{"nat", emunet.SiteConfig{Firewall: emunet.Stateful, NAT: emunet.CompliantNAT}, 0},
		{"broken-nat", emunet.SiteConfig{Firewall: emunet.Stateful, NAT: emunet.BrokenNAT}, 0},
		{"multi-relay", stateful, 1},
		{"strict", emunet.SiteConfig{Firewall: emunet.Strict, PrivateAddresses: true}, 0},
		{"asym-firewall", emunet.SiteConfig{Firewall: emunet.Stateful, SpliceHostile: true}, 0},
		{"port-restricted", emunet.SiteConfig{Firewall: emunet.Stateful, NAT: emunet.PortRestrictedNAT}, 0},
	}
	g := newFederatedGrid(t, 2)
	pt := ipl.PortType{Name: "matrix", Stack: "tcpblk"}
	nodes := make([]*Node, len(archetypes))
	ports := make([]ipl.ReceivePort, len(archetypes))
	for i, a := range archetypes {
		nodes[i] = g.nodeOnRelay(a.name+"-node", a.name, a.site, a.relay, nil)
		rp, err := nodes[i].CreateReceivePort(pt, "inbox-"+a.name)
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = rp
	}

	hist := make(map[estab.Method]int) // over pairs of paper sites
	for i, from := range archetypes {
		for j, to := range archetypes {
			if i == j {
				continue
			}
			sp, err := nodes[i].CreateSendPort(pt)
			if err != nil {
				t.Fatal(err)
			}
			if err := sp.Connect(ports[j].ID()); err != nil {
				t.Errorf("%s -> %s: %v", from.name, to.name, err)
				sp.Close()
				continue
			}
			probe := "probe " + from.name + "->" + to.name
			sendText(t, sp, probe)
			if got, _ := recvText(t, ports[j]); got != probe {
				t.Errorf("%s -> %s carried %q", from.name, to.name, got)
			}
			m := SendPortMethods(sp)[ports[j].ID().String()]
			sp.Close()
			involves := func(name string) bool { return from.name == name || to.name == name }
			switch {
			case involves("strict") && m != estab.Proxy && m != estab.Routed:
				t.Errorf("%s -> %s came up by %v, want tcp-proxy or routed-messages", from.name, to.name, m)
			case (involves("asym-firewall") || involves("port-restricted")) && m == estab.Splicing:
				t.Errorf("%s -> %s came up spliced through a site that cannot splice", from.name, to.name)
			}
			if i < paperSites && j < paperSites {
				hist[m]++
			}
		}
	}

	// Native TCP (client/server or splicing) dominates the paper's
	// testbed; the broken NAT falls back to proxy or routed.
	native := hist[estab.ClientServer] + hist[estab.Splicing]
	fallback := hist[estab.Proxy] + hist[estab.Routed]
	if fallback == 0 || native < fallback || hist[estab.Splicing] == 0 {
		t.Errorf("paper-testbed methods %v: want native >= fallback > 0 and at least one splice", hist)
	}
}
