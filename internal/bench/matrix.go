package bench

import (
	"fmt"
	"strings"
	"time"

	"netibis/internal/core"
	"netibis/internal/emunet"
	"netibis/internal/estab"
	"netibis/internal/ipl"
)

// SiteArchetype is one of the site kinds encountered in the paper's
// testbed (Netherlands, France, Poland, Germany): open, firewalled,
// firewalled with well-behaved NAT, firewalled with a broken NAT, and a
// strictly firewalled private cluster.
type SiteArchetype struct {
	Name   string
	Config emunet.SiteConfig
}

// Archetypes is the default site mix of the qualitative evaluation. It
// mirrors the paper's testbed: one open site, two sites behind ordinary
// stateful firewalls, one behind a standards-compliant NAT and one
// behind a broken NAT implementation ("most of the sites are protected
// by stateful firewalls, and some use NAT and private IP addresses").
// The "multi-relay" row goes beyond the paper: its node is pinned to a
// second, federated relay of the mesh, so every service link it brokers
// over (and any routed data link it falls back to) crosses a
// relay-to-relay peer link.
var Archetypes = []SiteArchetype{
	{Name: "open", Config: emunet.SiteConfig{Firewall: emunet.Open}},
	{Name: "firewalled-nl", Config: emunet.SiteConfig{Firewall: emunet.Stateful}},
	{Name: "firewalled-fr", Config: emunet.SiteConfig{Firewall: emunet.Stateful}},
	{Name: "nat", Config: emunet.SiteConfig{Firewall: emunet.Stateful, NAT: emunet.CompliantNAT}},
	{Name: "broken-nat", Config: emunet.SiteConfig{Firewall: emunet.Stateful, NAT: emunet.BrokenNAT}},
	MultiRelayArchetype,
}

// MultiRelayArchetype is the federated-relay row of the matrix: an
// ordinary stateful-firewalled site whose node attaches to the mesh's
// second relay instead of the first.
var MultiRelayArchetype = SiteArchetype{
	Name:   "multi-relay",
	Config: emunet.SiteConfig{Firewall: emunet.Stateful},
}

// StrictArchetype is the additional "severe firewall" site kind of the
// paper's Section 3.3 discussion: outgoing connections only through a
// well-controlled proxy. It is not part of the default matrix (the
// paper's testbed had none) but examples and extended experiments can
// append it.
var StrictArchetype = SiteArchetype{
	Name:   "strict",
	Config: emunet.SiteConfig{Firewall: emunet.Strict, PrivateAddresses: true},
}

// AsymFirewallArchetype is a site behind an asymmetric firewall that
// permits outgoing connections but silently drops simultaneous-open
// SYNs — indistinguishable from a splice-friendly firewall in the
// connectivity profile, so the preferred splice hangs instead of
// failing fast. Like StrictArchetype it is not part of the paper's
// testbed mix; the benchmark's "raced" connect scenario measures it, and
// examples can append it to the matrix.
var AsymFirewallArchetype = SiteArchetype{
	Name:   "asym-firewall",
	Config: emunet.SiteConfig{Firewall: emunet.Stateful, SpliceHostile: true},
}

// PortRestrictedArchetype is a site behind a port-restricted NAT:
// endpoint-independent (so it looks spliceable), never on the predicted
// port (so splices deterministically miss). The racing establishment's
// other pathological scenario; see AsymFirewallArchetype.
var PortRestrictedArchetype = SiteArchetype{
	Name:   "port-restricted",
	Config: emunet.SiteConfig{Firewall: emunet.Stateful, NAT: emunet.PortRestrictedNAT},
}

// MatrixEntry is one ordered pair of the connectivity matrix.
type MatrixEntry struct {
	From, To string
	Method   estab.Method
	OK       bool
	Err      string
	// Delay is the wall-clock connection establishment delay (port
	// creation to connected), one of the connection properties the
	// paper discusses.
	Delay time.Duration
}

// ConnectivityMatrix runs the paper's qualitative experiment on an
// emulated grid: one NetIbis node per site archetype, and a data-link
// connection attempt for every ordered pair of nodes, without opening
// any firewall ports. It reports which establishment method each pair
// ended up using.
func ConnectivityMatrix(archetypes []SiteArchetype) ([]MatrixEntry, error) {
	if len(archetypes) == 0 {
		archetypes = Archetypes
	}
	f := emunet.NewFabric(emunet.WithSeed(17))
	defer f.Close()
	// Two federated relays: the "multi-relay" archetype is pinned to the
	// second one, everything else to the first, so the matrix also
	// proves full connectivity across the relay mesh.
	dep, err := core.NewFederatedDeployment(f, 2)
	if err != nil {
		return nil, err
	}
	defer dep.Close()

	nodes := make(map[string]*core.Node, len(archetypes))
	ports := make(map[string]ipl.ReceivePort, len(archetypes))
	pt := ipl.PortType{Name: "matrix", Stack: "tcpblk"}
	for _, a := range archetypes {
		site := dep.AddSite(a.Name, a.Config)
		host := site.AddHost(a.Name + "-node")
		relayIdx := 0
		if a.Name == MultiRelayArchetype.Name {
			relayIdx = 1
		}
		cfg := dep.NodeConfigOnRelay(host, "matrix", a.Name, relayIdx)
		cfg.SpliceTimeout = 500 * time.Millisecond
		cfg.AcceptTimeout = 5 * time.Second
		n, err := core.Join(cfg)
		if err != nil {
			return nil, fmt.Errorf("join %s: %w", a.Name, err)
		}
		defer n.Close()
		nodes[a.Name] = n
		rp, err := n.CreateReceivePort(pt, "inbox-"+a.Name)
		if err != nil {
			return nil, err
		}
		ports[a.Name] = rp
	}

	var entries []MatrixEntry
	for _, from := range archetypes {
		for _, to := range archetypes {
			if from.Name == to.Name {
				continue
			}
			entry := MatrixEntry{From: from.Name, To: to.Name}
			sp, err := nodes[from.Name].CreateSendPort(pt)
			if err != nil {
				entry.Err = err.Error()
				entries = append(entries, entry)
				continue
			}
			start := time.Now()
			err = sp.Connect(ports[to.Name].ID())
			entry.Delay = time.Since(start)
			if err != nil {
				entry.Err = err.Error()
				entries = append(entries, entry)
				sp.Close()
				continue
			}
			// Exchange one message to prove the link really works.
			m, err := sp.NewMessage()
			if err == nil {
				m.WriteString("probe " + from.Name + "->" + to.Name)
				err = m.Finish()
			}
			if err == nil {
				msg, rerr := ports[to.Name].Receive()
				if rerr == nil {
					_, rerr = msg.ReadString()
				}
				err = rerr
			}
			if err != nil {
				entry.Err = err.Error()
			} else {
				entry.OK = true
				for _, method := range core.SendPortMethods(sp) {
					entry.Method = method
				}
			}
			sp.Close()
			entries = append(entries, entry)
		}
	}
	return entries, nil
}

// FullConnectivity reports whether every ordered pair connected.
func FullConnectivity(entries []MatrixEntry) bool {
	for _, e := range entries {
		if !e.OK {
			return false
		}
	}
	return len(entries) > 0
}

// MethodHistogram counts how many pairs used each establishment method.
func MethodHistogram(entries []MatrixEntry) map[estab.Method]int {
	hist := make(map[estab.Method]int)
	for _, e := range entries {
		if e.OK {
			hist[e.Method]++
		}
	}
	return hist
}

// FormatMatrix renders the connectivity matrix as a text table.
func FormatMatrix(entries []MatrixEntry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-12s %-18s %-8s %s\n", "from", "to", "method", "ok", "establish delay")
	for _, e := range entries {
		status := "yes"
		if !e.OK {
			status = "NO: " + e.Err
		}
		fmt.Fprintf(&b, "%-12s %-12s %-18s %-8s %v\n", e.From, e.To, e.Method, status, e.Delay.Round(time.Microsecond))
	}
	return b.String()
}
