package core

import (
	"slices"
	"testing"
	"time"

	"netibis/internal/emunet"
	"netibis/internal/estab"
	"netibis/internal/ipl"
	"netibis/internal/testutil"
)

// TestTimeToConnect pins the time a cold Connect takes, in round trips
// r of the service link it brokers over, for the benchmark's four
// connect scenarios and a reverse one on 4, 30 and 43 ms links at time
// scale 1. Direct is the connect request and its reply, one r (the
// emulator's dial crosses no link); a spliced, routed or reverse connect
// costs what direct does, for the acceptor's simultaneous open, its
// routed open and its dial of the listener the initiator sent in the
// request (reverse: the initiator listens) go out right behind its
// reply. A raced connect whose splice hangs pays the request and
// reply and one head start of max(r, estab.MinRaceStagger), after which
// routed takes the link the acceptor opened behind its reply. A direct
// connect issued back to back behind another, as soon as that one
// returned and with no ping between, costs what a lone one does: its
// request goes out right behind the previous connect's done marker, and
// only its reply waits for that connect's barrier. Each row
// is the fastest of its connects, each with the connectivity cache
// emptied, against the fastest of the pings before them: on a shared
// host the wall clock also counts the time the hypervisor holds the
// vCPUs (steal) and other processes' load, which only ever add to a
// reading and, at 4 ms, land on any connect as often as one in five, so
// a median of five is sometimes a stolen reading while the fastest is
// the connect's cost. The 4 ms row, whose connects are cheapest and
// most exposed, takes fifteen; the others take five.
func TestTimeToConnect(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's instrumentation adds milliseconds to a connect, which is what the rows time")
	}
	scenarios := []struct {
		name      string
		init, acc emunet.SiteConfig
		routed    bool // the initiator has no proxy either
		want      estab.Method
	}{
		{"direct", emunet.SiteConfig{Firewall: emunet.Open}, emunet.SiteConfig{Firewall: emunet.Open}, false, estab.ClientServer},
		{"splice", stateful, stateful, false, estab.Splicing},
		{"routed", emunet.SiteConfig{Firewall: emunet.Stateful, NAT: emunet.BrokenNAT}, stateful, true, estab.Routed},
		{"raced", emunet.SiteConfig{Firewall: emunet.Stateful, SpliceHostile: true}, stateful, false, estab.Routed},
		{"reverse", emunet.SiteConfig{Firewall: emunet.Open}, stateful, false, estab.ClientServer},
	}
	for _, row := range []struct {
		rtt      time.Duration
		connects int
	}{{4 * time.Millisecond, 15}, {30 * time.Millisecond, 5}, {43 * time.Millisecond, 5}} {
		t.Run(row.rtt.String(), func(t *testing.T) {
			t.Parallel()
			g := newLinkedGrid(t, 1, row.rtt)
			pt := ipl.PortType{Name: "chan", Stack: "tcpblk"}
			type rig struct {
				init, acc   *Node
				rp          ipl.ReceivePort
				pings, took []time.Duration
				behind      []time.Duration // direct: the connect back to back behind each
			}
			rigs := make([]*rig, len(scenarios))
			for j, sc := range scenarios {
				a := g.node(sc.name+"-init", sc.name+"-site-a", sc.init, func(c *Config) {
					if sc.routed {
						c.Proxy = emunet.Endpoint{}
					}
				})
				b := g.node(sc.name+"-acc", sc.name+"-site-b", sc.acc, nil)
				rp, err := b.CreateReceivePort(pt, "inbox")
				if err != nil {
					t.Fatal(err)
				}
				defer rp.Close()
				if _, err := a.Ping(b.id.Name); err != nil { // the service link's open
					t.Fatal(err)
				}
				rigs[j] = &rig{init: a, acc: b, rp: rp}
			}
			// The scenarios take turns, so whatever else loads the host
			// falls on all rows alike.
			// connect runs one cold connect of scenario j, timed, and checks
			// the method it came up by.
			connect := func(j, i int) (ipl.SendPort, time.Duration) {
				sc, rg := scenarios[j], rigs[j]
				rg.init.connector.Cache.Invalidate(rg.acc.relayID())
				sp, err := rg.init.CreateSendPort(pt)
				if err != nil {
					t.Fatal(err)
				}
				start := time.Now()
				if err := sp.Connect(rg.rp.ID()); err != nil {
					t.Fatalf("%s connect %d: %v", sc.name, i, err)
				}
				took := time.Since(start)
				if m := SendPortMethods(sp)[rg.rp.ID().String()]; m != sc.want {
					t.Fatalf("%s connect %d came up by %v, want %v", sc.name, i, m, sc.want)
				}
				return sp, took
			}
			for i := range row.connects {
				for j, sc := range scenarios {
					rg := rigs[j]
					// The ping waits out the previous connect's barrier
					// before it goes, so it times one round trip, and the
					// cold connect behind it finds the link idle.
					r, err := rg.init.Ping(rg.acc.id.Name)
					if err != nil {
						t.Fatal(err)
					}
					sp, took := connect(j, i)
					rg.pings, rg.took = append(rg.pings, r), append(rg.took, took)
					sps := []ipl.SendPort{sp}
					if sc.name == "direct" {
						behind, took := connect(j, i)
						rg.behind = append(rg.behind, took)
						sps = append(sps, behind)
					}
					for _, sp := range sps {
						sendText(t, sp, sc.name)
						if got, _ := recvText(t, rg.rp); got != sc.name {
							t.Fatalf("%s connect %d carried %q", sc.name, i, got)
						}
						sp.Close()
					}
				}
			}
			// r and took are each scenario's fastest readings: the service
			// link's round trip and the cold connect.
			r, took := map[string]time.Duration{}, map[string]time.Duration{}
			for j, sc := range scenarios {
				r[sc.name], took[sc.name] = slices.Min(rigs[j].pings), slices.Min(rigs[j].took)
				t.Logf("%s: r %v, connects %v", sc.name, r[sc.name], rigs[j].took)
			}
			behind := slices.Min(rigs[0].behind)
			t.Logf("direct back to back: connects %v", rigs[0].behind)

			if d, r := took["direct"], r["direct"]; d < r/2 || d > r*3/2 {
				t.Errorf("direct took %v, want 1 r = %v ± r/2", d, r)
			}
			if behind > took["direct"]*11/10 {
				t.Errorf("a direct connect back to back behind another took %v, want at most 1.1 × a lone one's %v", behind, took["direct"])
			}
			for _, name := range []string{"splice", "routed", "reverse"} {
				if took[name] > took["direct"]*11/10 {
					t.Errorf("%s took %v, want at most 1.1 × direct's %v", name, took[name], took["direct"])
				}
			}
			rr := r["raced"]
			want := rr + max(rr, estab.MinRaceStagger)
			if got := took["raced"]; got < want-rr/2 || got > want+rr/2 {
				t.Errorf("raced took %v, want r + max(r, %v) = %v ± r/2 (r = %v)", got, estab.MinRaceStagger, want, rr)
			}
		})
	}
}
