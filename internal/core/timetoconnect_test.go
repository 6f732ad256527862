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
// connect scenarios on 4, 30 and 43 ms links at time scale 1. Direct is
// the connect request and its reply, one r (the emulator's dial crosses
// no link); a spliced or routed connect costs what direct does, for the
// acceptor's simultaneous open and its routed open go out right behind
// its reply. A raced connect whose splice hangs pays the request and
// reply, one head start of max(r, estab.MinRaceStagger), and the routed
// cue and the acceptor's open, one r more. Each row is the median of
// five connects, each with the connectivity cache emptied.
func TestTimeToConnect(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's instrumentation adds milliseconds to a connect, which is what the rows time")
	}
	const connects = 5
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
	}
	for _, rtt := range []time.Duration{4 * time.Millisecond, 30 * time.Millisecond, 43 * time.Millisecond} {
		t.Run(rtt.String(), func(t *testing.T) {
			t.Parallel()
			g := newLinkedGrid(t, 1, rtt)
			pt := ipl.PortType{Name: "chan", Stack: "tcpblk"}
			type rig struct {
				init, acc   *Node
				rp          ipl.ReceivePort
				pings, took []time.Duration
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
			// falls on all four rows alike.
			for i := range connects {
				for j, sc := range scenarios {
					rg := rigs[j]
					// The ping also waits out the previous connect's
					// barrier, which a cold connect does not pay.
					r, err := rg.init.Ping(rg.acc.id.Name)
					if err != nil {
						t.Fatal(err)
					}
					rg.init.connector.Cache.Invalidate(rg.acc.relayID())
					sp, err := rg.init.CreateSendPort(pt)
					if err != nil {
						t.Fatal(err)
					}
					start := time.Now()
					if err := sp.Connect(rg.rp.ID()); err != nil {
						t.Fatalf("%s connect %d: %v", sc.name, i, err)
					}
					rg.pings, rg.took = append(rg.pings, r), append(rg.took, time.Since(start))
					if m := SendPortMethods(sp)[rg.rp.ID().String()]; m != sc.want {
						t.Fatalf("%s connect %d came up by %v, want %v", sc.name, i, m, sc.want)
					}
					sendText(t, sp, sc.name)
					if got, _ := recvText(t, rg.rp); got != sc.name {
						t.Fatalf("%s connect %d carried %q", sc.name, i, got)
					}
					sp.Close()
				}
			}
			// r and took are each scenario's medians: the service link's
			// round trip and the cold connect.
			r, took := map[string]time.Duration{}, map[string]time.Duration{}
			for j, sc := range scenarios {
				r[sc.name], took[sc.name] = median(rigs[j].pings), median(rigs[j].took)
				t.Logf("%s: r %v, connects %v", sc.name, r[sc.name], rigs[j].took)
			}

			if d, r := took["direct"], r["direct"]; d < r/2 || d > r*3/2 {
				t.Errorf("direct took %v, want 1 r = %v ± r/2", d, r)
			}
			for _, name := range []string{"splice", "routed"} {
				if took[name] > took["direct"]*11/10 {
					t.Errorf("%s took %v, want at most 1.1 × direct's %v", name, took[name], took["direct"])
				}
			}
			rr := r["raced"]
			want := 2*rr + max(rr, estab.MinRaceStagger)
			if got := took["raced"]; got < want-rr/2 || got > want+rr/2 {
				t.Errorf("raced took %v, want 2 r + max(r, %v) = %v ± r/2 (r = %v)", got, estab.MinRaceStagger, want, rr)
			}
		})
	}
}

// median is the middle value of ds (the upper one of an even count).
func median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}
