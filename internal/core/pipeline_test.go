package core

// Tests of connects that share one service link: a request goes out
// right behind the previous connect's done marker and only its reply
// waits for that connect's barrier, so each connect must still read its
// own reply, take its own routed halves and carry its own bytes.

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"netibis/internal/emunet"
	"netibis/internal/estab"
	"netibis/internal/ipl"
	"netibis/internal/testutil"
	"netibis/internal/wire"
)

// TestPipelinedConnects: four connects to one peer back to back, each
// issued as soon as the previous one returned, then four at once, each
// to its own receive port, on three pairs. A routed pair takes the
// acceptor's routed halves; a raced pair whose splice hangs takes them
// after its head start; a spliced pair of four streams discards the four
// the acceptor opens behind every reply, so the next connect's routed
// waiters stand while the previous connect's abandoned halves may still
// arrive. Each link comes up by its pair's method and carries its own
// bytes to its own port, and the routed links and goroutines of the lot
// are gone at the end.
func TestPipelinedConnects(t *testing.T) {
	const connects = 4
	for _, sc := range []struct {
		name      string
		init, acc emunet.SiteConfig
		routed    bool // the initiator has no proxy either
		stack     string
		want      estab.Method
	}{
		{"routed", emunet.SiteConfig{Firewall: emunet.Stateful, NAT: emunet.BrokenNAT}, stateful, true, "tcpblk", estab.Routed},
		{"raced", emunet.SiteConfig{Firewall: emunet.Stateful, SpliceHostile: true}, stateful, false, "tcpblk", estab.Routed},
		{"spliced streams", stateful, stateful, false, "multi:streams=4/tcpblk", estab.Splicing},
	} {
		t.Run(sc.name, func(t *testing.T) {
			g := newShapedGrid(t, 0.25)
			a := g.node("alice", "site-a", sc.init, func(c *Config) {
				if sc.routed {
					c.Proxy = emunet.Endpoint{}
				}
			})
			b := g.node("bob", "site-b", sc.acc, nil)
			if sc.want == estab.Splicing {
				// Routed is never launched: the acceptor's routed halves
				// are all discarded.
				a.connector.RaceStagger = time.Hour
				a.connector.SpliceTimeout = 10 * time.Second
				b.connector.SpliceTimeout = 10 * time.Second
			}
			pt := ipl.PortType{Name: "chan", Stack: sc.stack}
			rps := make([]ipl.ReceivePort, connects)
			for k := range rps {
				rp, err := b.CreateReceivePort(pt, fmt.Sprintf("inbox-%d", k))
				if err != nil {
					t.Fatal(err)
				}
				defer rp.Close()
				rps[k] = rp
			}
			if _, err := a.Ping("bob"); err != nil { // the service link's open
				t.Fatal(err)
			}
			first, err := a.serviceLinkTo("bob")
			if err != nil {
				t.Fatal(err)
			}
			linksA, linksB := a.relayCli.LinkCount(), b.relayCli.LinkCount()
			checkLeaks := testutil.LeakCheck(t, 0)

			connect := func(k int) (ipl.SendPort, error) {
				sp, err := a.CreateSendPort(pt)
				if err != nil {
					return nil, err
				}
				if err := sp.Connect(rps[k].ID()); err != nil {
					sp.Close()
					return nil, err
				}
				return sp, nil
			}
			// carry checks that every connect came up by the pair's method
			// and that its bytes reach its own port, then closes it.
			carry := func(round string, sps []ipl.SendPort) {
				t.Helper()
				for k, sp := range sps {
					if m := SendPortMethods(sp)[rps[k].ID().String()]; m != sc.want {
						t.Errorf("%s connect %d came up by %v, want %v", round, k, m, sc.want)
					}
					want := fmt.Sprintf("%s %d", round, k)
					sendText(t, sp, want)
					if got, _ := recvText(t, rps[k]); got != want {
						t.Errorf("port %d received %q, want %q", k, got, want)
					}
					sp.Close()
				}
			}

			sps := make([]ipl.SendPort, connects)
			for k := range sps {
				a.connector.Cache.Invalidate(b.relayID()) // every connect races
				if sps[k], err = connect(k); err != nil {
					t.Fatalf("back-to-back connect %d: %v", k, err)
				}
			}
			carry("back to back", sps)

			errs := make([]error, connects)
			var wg sync.WaitGroup
			for k := range sps {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sps[k], errs[k] = connect(k)
				}()
			}
			wg.Wait()
			for k, err := range errs {
				if err != nil {
					t.Fatalf("concurrent connect %d: %v", k, err)
				}
			}
			carry("concurrent", sps)

			if now, err := a.serviceLinkTo("bob"); err != nil || now != first {
				t.Fatalf("the service link was evicted along the way (%v)", err)
			}
			if why := testutil.Settle(func() (bool, string) {
				na, nb := a.relayCli.LinkCount(), b.relayCli.LinkCount()
				return na == linksA && nb == linksB, fmt.Sprintf("routed links: the initiator holds %d (%d before), the acceptor %d (%d before)", na, linksA, nb, linksB)
			}); why != "" {
				t.Error(why)
			}
			checkLeaks()
		})
	}
}

// severingConn closes a service connection right after the first write
// that follows a done marker: the next connect's request has gone out
// behind the marker, and its reply never comes.
type severingConn struct {
	net.Conn
	mu      sync.Mutex
	wrote   bytes.Buffer
	severed bool
}

func (c *severingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	behindDone := slices.ContainsFunc(parseFrames(c.wrote.Bytes()), func(f wire.Frame) bool { return f.Kind == kindMuxDone })
	c.wrote.Write(p)
	n, err := c.Conn.Write(p)
	if behindDone && !c.severed {
		c.severed = true
		c.Conn.Close()
	}
	return n, err
}

// TestPipelinedConnectSeveredBehindDoneMarker: the service link dies
// between one connect's done marker and the next connect's reply, whose
// request went out right behind that marker. The first connect has
// succeeded already; the second retries once, on a fresh service link,
// and comes up by its method. Both carry their bytes, and nothing is
// left behind.
func TestPipelinedConnectSeveredBehindDoneMarker(t *testing.T) {
	g := newShapedGrid(t, 0.25)
	a := g.node("alice", "site-a", emunet.SiteConfig{Firewall: emunet.Stateful, NAT: emunet.BrokenNAT}, func(c *Config) {
		c.Proxy = emunet.Endpoint{}
	})
	b := g.node("bob", "site-b", stateful, nil)
	pt := ipl.PortType{Name: "chan", Stack: "tcpblk"}
	rp, err := b.CreateReceivePort(pt, "inbox")
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	if _, err := a.Ping("bob"); err != nil {
		t.Fatal(err)
	}
	severed, err := a.serviceLinkTo("bob")
	if err != nil {
		t.Fatal(err)
	}
	sever := &severingConn{Conn: severed.conn}
	severed.wmu.Lock()
	severed.rmu.Lock()
	severed.conn, severed.r, severed.w = sever, wire.NewReader(sever), wire.NewWriter(sever)
	severed.rmu.Unlock()
	severed.wmu.Unlock()
	linksA, linksB := a.relayCli.LinkCount(), b.relayCli.LinkCount()
	checkLeaks := testutil.LeakCheck(t, 0)

	var sps []ipl.SendPort
	for i := range 2 {
		sp, err := a.CreateSendPort(pt)
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.Connect(rp.ID()); err != nil {
			t.Fatalf("connect %d: %v", i, err)
		}
		if m := SendPortMethods(sp)[rp.ID().String()]; m != estab.Routed {
			t.Fatalf("connect %d came up by %v, want routed", i, m)
		}
		sps = append(sps, sp)
	}
	sever.mu.Lock()
	cut, requests := sever.severed, 0
	for _, f := range parseFrames(sever.wrote.Bytes()) {
		if f.Kind == wire.KindControl && f.Flags == opConnect {
			requests++
		}
	}
	sever.mu.Unlock()
	if !cut || requests != 2 {
		t.Fatalf("severed %v with %d connect requests on the link, want severed with both", cut, requests)
	}
	if fresh, err := a.serviceLinkTo("bob"); err != nil || fresh == severed {
		t.Fatalf("the second connect's retry ran over the severed link (%v)", err)
	}
	for i, sp := range sps {
		want := fmt.Sprintf("connect %d", i)
		sendText(t, sp, want)
		if got, _ := recvText(t, rp); got != want {
			t.Fatalf("got %q, want %q", got, want)
		}
		sp.Close()
	}
	// The fresh service link stands where the severed one stood.
	if why := testutil.Settle(func() (bool, string) {
		na, nb := a.relayCli.LinkCount(), b.relayCli.LinkCount()
		return na == linksA && nb == linksB, fmt.Sprintf("routed links: the initiator holds %d (%d before), the acceptor %d (%d before)", na, linksA, nb, linksB)
	}); why != "" {
		t.Error(why)
	}
	checkLeaks()
}
