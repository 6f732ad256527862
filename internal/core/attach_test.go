package core

import (
	"errors"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"netibis/internal/emunet"
	"netibis/internal/obs"
	"netibis/internal/relay"
	"netibis/internal/testutil"
	"netibis/internal/wire"
)

// attachWorld is a fabric with stand-alone relays a test kills and
// restores, and one node site the attachments under test live on.
type attachWorld struct {
	t       *testing.T
	hosts   []*emunet.Host
	srvs    []*relay.Server // nil while killed
	probes  []atomic.Int64  // per relay: the RTT probes it answered
	node    *emunet.Host
	closers []func() error
}

// probeCounter is a relay's listener that counts the keep-alives each
// accepted connection carries before its first other frame: the
// pre-attach RTT probes the relay answers.
type probeCounter struct {
	net.Listener
	probes *atomic.Int64
}

func (l probeCounter) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &probeCountingConn{Conn: conn, probes: l.probes}, nil
}

// probeCountingConn parses what the relay reads until the first frame
// that is not a keep-alive. Only the relay's reader touches it.
type probeCountingConn struct {
	net.Conn
	probes  *atomic.Int64
	head    []byte
	counted int
	done    bool
}

func (c *probeCountingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.done {
		return n, err
	}
	c.head = append(c.head, p[:n]...)
	leading := 0
	for _, f := range parseFrames(c.head) {
		if f.Kind != wire.KindKeepAlive {
			c.done, c.head = true, nil
			break
		}
		leading++
	}
	c.probes.Add(int64(leading - c.counted))
	c.counted = leading
	return n, err
}

// newAttachWorld starts one relay per entry of rtts, each behind a link
// of that round-trip time from the node site (all zero: unshaped).
func newAttachWorld(t *testing.T, rtts []time.Duration) *attachWorld {
	scale := 0.0
	for _, rtt := range rtts {
		if rtt > 0 {
			scale = 1
		}
	}
	f := emunet.NewFabric(emunet.WithSeed(5), emunet.WithTimeScale(scale))
	t.Cleanup(f.Close)
	w := &attachWorld{t: t, srvs: make([]*relay.Server, len(rtts)), probes: make([]atomic.Int64, len(rtts))}
	w.node = f.AddSite("nodes", emunet.SiteConfig{Firewall: emunet.Stateful}).AddHost("node")
	for i, rtt := range rtts {
		site := "relay-" + string(rune('a'+i))
		w.hosts = append(w.hosts, f.AddSite(site, emunet.SiteConfig{Firewall: emunet.Open}).AddHost(site))
		if rtt > 0 {
			f.SetLink("nodes", site, emunet.LinkParams{CapacityBps: 100e6, RTT: rtt})
		}
		w.restore(i)
	}
	t.Cleanup(func() {
		for i := range w.srvs {
			w.kill(i)
		}
	})
	return w
}

func (w *attachWorld) ep(i int) emunet.Endpoint {
	return emunet.Endpoint{Addr: w.hosts[i].Address(), Port: RelayPort}
}

func (w *attachWorld) eps() []emunet.Endpoint {
	eps := make([]emunet.Endpoint, len(w.hosts))
	for i := range eps {
		eps[i] = w.ep(i)
	}
	return eps
}

func (w *attachWorld) kill(i int) {
	if w.srvs[i] != nil {
		w.srvs[i].Close()
		w.srvs[i] = nil
	}
}

func (w *attachWorld) restore(i int) {
	if w.srvs[i] != nil {
		return
	}
	l, err := w.hosts[i].Listen(RelayPort)
	if err != nil {
		w.t.Fatal(err)
	}
	w.srvs[i] = relay.NewServer()
	w.srvs[i].SetID(w.hosts[i].Name())
	go w.srvs[i].Serve(probeCounter{Listener: l, probes: &w.probes[i]})
}

// attached is an Attachment pinned to relay 0 that finds the others
// after a failure, with its resume callback and metric family exposed.
type attached struct {
	*Attachment
	resumed chan time.Duration
	reg     *obs.Registry
}

func (w *attachWorld) attach(id string) *attached {
	a := &attached{resumed: make(chan time.Duration, detachStormLimit+1), reg: obs.NewRegistry()}
	a.Attachment = &Attachment{
		Host:     w.node,
		NodeID:   id,
		Pinned:   []emunet.Endpoint{w.ep(0)},
		Discover: w.eps,
		OnResume: func(took time.Duration) { a.resumed <- took },
	}
	if err := a.Attach(); err != nil {
		w.t.Fatal(err)
	}
	a.MetricsInto(a.reg)
	w.closers = append(w.closers, a.Close)
	return a
}

// link opens a routed link from a to a plain client attached beside it
// on relay 0: what reads on a's end of it report is how a's attachment
// ended.
func (w *attachWorld) link(a *attached) net.Conn {
	conn, err := w.node.Dial(w.ep(0))
	if err != nil {
		w.t.Fatal(err)
	}
	peer, err := relay.Attach(conn, "pool/peer")
	if err != nil {
		w.t.Fatal(err)
	}
	w.closers = append(w.closers, peer.Close)
	l, err := a.Client().Dial("pool/peer", 5*time.Second)
	if err != nil {
		w.t.Fatal(err)
	}
	return l
}

// scrapeReg renders and parses a registry, as a poller would.
func scrapeReg(t *testing.T, reg *obs.Registry) *obs.Scrape {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	sc, err := obs.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// counters scrapes the attachment's metric family: detaches, resumes
// and abandonments.
func (a *attached) counters(t *testing.T) (detaches, ok, abandoned float64) {
	sc := scrapeReg(t, a.reg)
	detaches, _ = sc.Value("netibis_core_relay_detach_total")
	results := sc.Labeled("netibis_core_reattach_total", "result")
	return detaches, results["ok"], results["abandoned"]
}

// awaitResume waits for the resume callback. The timeout is a safety
// net against a hang, not a margin the test's verdict depends on.
func (a *attached) awaitResume(t *testing.T) {
	t.Helper()
	select {
	case <-a.resumed:
	case <-time.After(10 * time.Second):
		t.Fatal("attachment never resumed")
	}
}

// TestAttachmentPolicy drives the relay-attachment lifecycle through
// every branch of its failover policy by killing and restoring relays,
// ordered by the events the attachment itself reports. Each case ends
// with its attachments closed and every relay back up, and must leave
// no goroutine behind: a probe connection that lost to a better
// candidate, or a failover still retrying, would.
func TestAttachmentPolicy(t *testing.T) {
	cases := []struct {
		name string
		rtts []time.Duration
		run  func(t *testing.T, w *attachWorld)
	}{
		{"resumes on the lowest-RTT survivor", []time.Duration{time.Millisecond, 80 * time.Millisecond, 5 * time.Millisecond},
			func(t *testing.T, w *attachWorld) {
				a := w.attach("pool/picker")
				w.kill(0)
				a.awaitResume(t)
				// Both survivors answered the probe; the far one lost.
				if a.Endpoint() != w.ep(2) || a.Client().ServerID() != "relay-c" {
					t.Errorf("resumed on %v (%s), want the nearer survivor %v", a.Endpoint(), a.Client().ServerID(), w.ep(2))
				}
				// The pinned first attach had nothing to rank.
				if got := []int64{w.probes[0].Load(), w.probes[1].Load(), w.probes[2].Load()}; !slices.Equal(got, []int64{0, 1, 1}) {
					t.Errorf("the relays answered %v RTT probes, want [0 1 1]", got)
				}
				if d, ok, ab := a.counters(t); d != 1 || ok != 1 || ab != 0 {
					t.Errorf("detaches %v, resumed %v, abandoned %v; want 1, 1, 0", d, ok, ab)
				}
			}},
		{"a lone candidate attaches unprobed, on join and on failover", []time.Duration{4 * time.Millisecond, 4 * time.Millisecond},
			func(t *testing.T, w *attachWorld) {
				a := w.attach("pool/single")
				w.kill(0)
				a.awaitResume(t)
				if a.Endpoint() != w.ep(1) {
					t.Errorf("resumed on %v, want the one survivor %v", a.Endpoint(), w.ep(1))
				}
				if p0, p1 := w.probes[0].Load(), w.probes[1].Load(); p0 != 0 || p1 != 0 {
					t.Errorf("the relays answered %d and %d RTT probes, want none: each attach had one candidate reachable", p0, p1)
				}
			}},
		{"every candidate dead: abandons after the retry budget", []time.Duration{0, 0},
			func(t *testing.T, w *attachWorld) {
				a := w.attach("pool/orphan")
				l := w.link(a)
				w.kill(1)
				w.kill(0)
				_, err := l.Read(make([]byte, 1))
				if !errors.Is(err, ErrPeerUnavailable) {
					t.Errorf("link failed with %v, want ErrPeerUnavailable", err)
				}
				if d, ok, ab := a.counters(t); d != 1 || ok != 0 || ab != 1 {
					t.Errorf("detaches %v, resumed %v, abandoned %v; want 1, 0, 1", d, ok, ab)
				}
			}},
		{"detach storm: abandons as a duplicate identity", []time.Duration{0, 0},
			func(t *testing.T, w *attachWorld) {
				a := w.attach("pool/twin")
				l := w.link(a)
				home := 0
				for i := 0; i < detachStormLimit; i++ {
					w.kill(home)
					a.awaitResume(t)
					w.restore(home)
					home = 1 - home
				}
				w.kill(home) // one detach too many inside the window
				_, err := l.Read(make([]byte, 1))
				if err == nil || !strings.Contains(err.Error(), "duplicate node identity") {
					t.Errorf("link failed with %v, want the duplicate-identity diagnosis", err)
				}
				if d, ok, ab := a.counters(t); d != detachStormLimit+1 || ok != detachStormLimit || ab != 1 {
					t.Errorf("detaches %v, resumed %v, abandoned %v; want %d, %d, 1", d, ok, ab, detachStormLimit+1, detachStormLimit)
				}
			}},
		{"closed mid-retry: returns without abandoning", []time.Duration{0},
			func(t *testing.T, w *attachWorld) {
				a := w.attach("pool/leaver")
				w.kill(0)
				if why := testutil.Settle(func() (bool, string) {
					return a.Client().Detached(), "the client never noticed its relay die"
				}); why != "" {
					t.Fatal(why)
				}
				a.Close()
				// The runner's leak check proves the retry loop returned.
				t.Cleanup(func() {
					if _, ok, ab := a.counters(t); ok != 0 || ab != 0 {
						t.Errorf("resumed %v, abandoned %v after Close; want 0, 0", ok, ab)
					}
				})
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newAttachWorld(t, tc.rtts)
			checkLeaks := testutil.LeakCheck(t, 0)
			tc.run(t, w)
			for _, c := range w.closers {
				c()
			}
			for i := range w.srvs {
				w.restore(i)
			}
			checkLeaks()
		})
	}
}
