package relay

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"netibis/internal/emunet"
	"netibis/internal/wire"
)

// relayWorld models the deployment of paper Figure 3: a relay on a
// public gateway, and nodes in firewalled (and NAT'ed) sites that can
// only open outgoing connections.
type relayWorld struct {
	fabric *emunet.Fabric
	server *Server
	relay  *emunet.Host
	nextID int
}

func newRelayWorld(t *testing.T) *relayWorld {
	t.Helper()
	f := emunet.NewFabric()
	relayHost := f.AddSite("gateway", emunet.SiteConfig{Firewall: emunet.Open}).AddHost("relay")
	l, err := relayHost.Listen(4500)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	go srv.Serve(l)
	w := &relayWorld{fabric: f, server: srv, relay: relayHost}
	t.Cleanup(func() {
		srv.Close()
		f.Close()
	})
	return w
}

// attach creates a node in a fresh firewalled (optionally NAT'ed) site
// and attaches it to the relay.
func (w *relayWorld) attach(t *testing.T, id string, nat emunet.NATMode) *Client {
	t.Helper()
	w.nextID++
	site := w.fabric.AddSite(fmt.Sprintf("site-%d-%s", w.nextID, id),
		emunet.SiteConfig{Firewall: emunet.Stateful, NAT: nat})
	h := site.AddHost(id)
	conn, err := h.Dial(emunet.Endpoint{Addr: w.relay.Address(), Port: 4500})
	if err != nil {
		t.Fatalf("dial relay: %v", err)
	}
	c, err := Attach(conn, id)
	if err != nil {
		t.Fatalf("attach %s: %v", id, err)
	}
	return c
}

func TestRelayRoutingBetweenFirewalledNodes(t *testing.T) {
	w := newRelayWorld(t)
	a := w.attach(t, "node-a", emunet.NoNAT)
	b := w.attach(t, "node-b", emunet.CompliantNAT)
	defer a.Close()
	defer b.Close()

	var got []byte
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := b.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		defer c.Close()
		got, _ = io.ReadAll(c)
	}()

	c, err := a.Dial("node-b", 2*time.Second)
	if err != nil {
		t.Fatalf("routed dial: %v", err)
	}
	msg := bytes.Repeat([]byte("routed message "), 10000) // > one relay frame
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	c.Close()
	wg.Wait()
	if !bytes.Equal(got, msg) {
		t.Fatalf("routed payload mismatch: got %d bytes want %d", len(got), len(msg))
	}
	st := w.server.Stats()
	if st.FramesRouted == 0 || st.BytesRouted == 0 {
		t.Fatal("relay reports no routed traffic")
	}
}

func TestRelayBidirectionalTraffic(t *testing.T) {
	w := newRelayWorld(t)
	a := w.attach(t, "ping", emunet.NoNAT)
	b := w.attach(t, "pong", emunet.NoNAT)
	defer a.Close()
	defer b.Close()

	go func() {
		c, err := b.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 4)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			c.Write(bytes.ToUpper(buf))
		}
	}()
	c, err := a.Dial("pong", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 50; i++ {
		if _, err := c.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4)
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatal(err)
		}
		if string(buf) != "PING" {
			t.Fatalf("iteration %d: got %q", i, buf)
		}
	}
}

func TestRelayDialUnknownPeer(t *testing.T) {
	w := newRelayWorld(t)
	a := w.attach(t, "lonely", emunet.NoNAT)
	defer a.Close()
	if _, err := a.Dial("ghost", 200*time.Millisecond); err == nil {
		t.Fatal("dialing an unattached peer should fail")
	}
}

func TestRelayDuplicateNodeIDEvictsStaleAttachment(t *testing.T) {
	w := newRelayWorld(t)
	a := w.attach(t, "twin", emunet.NoNAT)
	defer a.Close()
	other := w.attach(t, "other", emunet.NoNAT)
	defer other.Close()

	// Latest attachment wins: a re-attach under the same ID (the node
	// resuming after an asymmetric connection failure) evicts the stale
	// one instead of being refused.
	site := w.fabric.AddSite("dup-site", emunet.SiteConfig{Firewall: emunet.Stateful})
	h := site.AddHost("twin2")
	conn, err := h.Dial(emunet.Endpoint{Addr: w.relay.Address(), Port: 4500})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Attach(conn, "twin")
	if err != nil {
		t.Fatalf("re-attach under the same ID should take over: %v", err)
	}
	defer b.Close()

	// The relay now routes "twin" to the new attachment...
	go func() {
		c, err := b.Accept()
		if err != nil {
			return
		}
		io.Copy(c, c)
	}()
	c, err := other.Dial("twin", 2*time.Second)
	if err != nil {
		t.Fatalf("dial after takeover: %v", err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("to-new")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 6)
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "to-new" {
		t.Fatalf("echo via new attachment: %q %v", buf, err)
	}
	// ... and the stale client's connection was closed underneath it.
	if _, err := a.Dial("other", 500*time.Millisecond); err == nil {
		t.Fatal("stale attachment should be dead after eviction")
	}
}

// TestDialRightAfterAttach: a node is routable the moment its Attach
// returns. The relay used to ack first and publish the node after, so an
// open that arrived inside that window was refused as "unknown peer"
// (about one dial in twenty on a two-core box).
func TestDialRightAfterAttach(t *testing.T) {
	w := newRelayWorld(t)
	a := w.attach(t, "early-a", emunet.NoNAT)
	defer a.Close()
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("early-b-%d", i)
		b := w.attach(t, id, emunet.NoNAT)
		c, err := a.Dial(id, 2*time.Second)
		if err != nil {
			t.Fatalf("dial %s right after its attach returned: %v", id, err)
		}
		c.Close()
		b.Close()
	}
}

func TestRelayMultipleChannelsBetweenSamePair(t *testing.T) {
	w := newRelayWorld(t)
	a := w.attach(t, "multi-a", emunet.NoNAT)
	b := w.attach(t, "multi-b", emunet.NoNAT)
	defer a.Close()
	defer b.Close()

	const channels = 5
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < channels; i++ {
			c, err := b.Accept()
			if err != nil {
				t.Errorf("accept %d: %v", i, err)
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(c, c)
			}(c)
		}
	}()

	var cwg sync.WaitGroup
	for i := 0; i < channels; i++ {
		cwg.Add(1)
		go func(i int) {
			defer cwg.Done()
			c, err := a.Dial("multi-b", 2*time.Second)
			if err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			defer c.Close()
			msg := bytes.Repeat([]byte{byte(i + 1)}, 10_000)
			go c.Write(msg)
			got := make([]byte, len(msg))
			if _, err := io.ReadFull(c, got); err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
			if !bytes.Equal(got, msg) {
				t.Errorf("channel %d payload mismatch", i)
			}
		}(i)
	}
	cwg.Wait()
	wg.Wait()
}

// TestRelayCrossDialSameChannelNumbers exercises the case where both
// peers dial each other and their locally allocated channel numbers
// collide; the direction flag must keep the links separate.
func TestRelayCrossDialSameChannelNumbers(t *testing.T) {
	w := newRelayWorld(t)
	a := w.attach(t, "cross-a", emunet.NoNAT)
	b := w.attach(t, "cross-b", emunet.NoNAT)
	defer a.Close()
	defer b.Close()

	// Each side echoes whatever arrives on accepted links.
	for _, cl := range []*Client{a, b} {
		go func(cl *Client) {
			for {
				c, err := cl.Accept()
				if err != nil {
					return
				}
				go func(c net.Conn) {
					defer c.Close()
					io.Copy(c, c)
				}(c)
			}
		}(cl)
	}

	ca, err := a.Dial("cross-b", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	cb, err := b.Dial("cross-a", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()

	// Both dialed links use channel number 1 on their respective sides.
	ca.Write([]byte("from-a"))
	cb.Write([]byte("from-b"))
	bufA := make([]byte, 6)
	if _, err := io.ReadFull(ca, bufA); err != nil || string(bufA) != "from-a" {
		t.Fatalf("echo to a corrupted: %q %v", bufA, err)
	}
	bufB := make([]byte, 6)
	if _, err := io.ReadFull(cb, bufB); err != nil || string(bufB) != "from-b" {
		t.Fatalf("echo to b corrupted: %q %v", bufB, err)
	}
}

func TestRelayPeerCloseGivesEOF(t *testing.T) {
	w := newRelayWorld(t)
	a := w.attach(t, "eof-a", emunet.NoNAT)
	b := w.attach(t, "eof-b", emunet.NoNAT)
	defer a.Close()
	defer b.Close()

	go func() {
		c, err := b.Accept()
		if err != nil {
			return
		}
		c.Write([]byte("bye"))
		c.Close()
	}()
	c, err := a.Dial("eof-b", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "bye" {
		t.Fatalf("got %q", got)
	}
}

func TestRelayClientCloseUnblocksAccept(t *testing.T) {
	w := newRelayWorld(t)
	a := w.attach(t, "closer", emunet.NoNAT)
	done := make(chan error, 1)
	go func() {
		_, err := a.Accept()
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("Accept after Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Accept not unblocked by Close")
	}
}

func TestRelayAttachedNodes(t *testing.T) {
	w := newRelayWorld(t)
	a := w.attach(t, "n1", emunet.NoNAT)
	b := w.attach(t, "n2", emunet.BrokenNAT)
	defer a.Close()
	defer b.Close()
	ids := w.server.AttachedNodes()
	if len(ids) != 2 {
		t.Fatalf("attached nodes = %v", ids)
	}
	if a.ID() != "n1" || b.ID() != "n2" {
		t.Fatalf("client IDs wrong: %q %q", a.ID(), b.ID())
	}
}

func TestRoutedConnAddrs(t *testing.T) {
	w := newRelayWorld(t)
	a := w.attach(t, "addr-a", emunet.NoNAT)
	b := w.attach(t, "addr-b", emunet.NoNAT)
	defer a.Close()
	defer b.Close()
	go func() {
		c, err := b.Accept()
		if err == nil {
			defer c.Close()
			io.Copy(io.Discard, c)
		}
	}()
	c, err := a.Dial("addr-b", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.LocalAddr().String() != "addr-a" || c.RemoteAddr().String() != "addr-b" {
		t.Fatalf("addrs = %v -> %v", c.LocalAddr(), c.RemoteAddr())
	}
	if c.LocalAddr().Network() != "relay" {
		t.Fatalf("network = %q", c.LocalAddr().Network())
	}
}

func TestRoutedFrameParsing(t *testing.T) {
	payload := AppendRouted(nil, "destination-node", 42, []byte("body"))
	dst, channel, body, ok := ParseRouted(payload)
	if !ok || string(dst) != "destination-node" || channel != 42 || string(body) != "body" {
		t.Fatalf("ParseRouted = %q %d %q %v", dst, channel, body, ok)
	}
	if _, _, _, ok := ParseRouted([]byte{0xFF}); ok {
		t.Fatal("corrupt routed frame should not parse")
	}
}

// TestStatsConcurrentWithTraffic hammers Stats while frames are being
// routed; the race detector verifies the counters are safe.
func TestStatsConcurrentWithTraffic(t *testing.T) {
	w := newRelayWorld(t)
	a := w.attach(t, "stat-a", emunet.NoNAT)
	b := w.attach(t, "stat-b", emunet.NoNAT)
	defer a.Close()
	defer b.Close()

	go func() {
		c, err := b.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(io.Discard, c)
	}()
	c, err := a.Dial("stat-b", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	done := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
					st := w.server.Stats()
					_ = st.FramesRouted + st.BytesRouted + st.FramesForwarded
				}
			}
		}()
	}
	chunk := bytes.Repeat([]byte("s"), 8*1024)
	for i := 0; i < 200; i++ {
		if _, err := c.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	readers.Wait()
	if st := w.server.Stats(); st.FramesRouted == 0 {
		t.Fatal("no frames counted")
	}
}

// TestClientResumeOnSecondRelay attaches a node to one relay, kills that
// relay and resumes the same client on a second, independent relay; the
// node identity and dialability must carry over.
func TestClientResumeOnSecondRelay(t *testing.T) {
	w := newRelayWorld(t)
	a := w.attach(t, "resume-a", emunet.NoNAT)
	defer a.Close()
	detached := make(chan error, 1)
	a.SetDetachHandler(func(err error) { detached <- err })

	// A second relay on its own gateway.
	gw2 := w.fabric.AddSite("gateway-2", emunet.SiteConfig{Firewall: emunet.Open}).AddHost("relay-2")
	l2, err := gw2.Listen(4500)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer()
	srv2.SetID("second")
	go srv2.Serve(l2)
	defer srv2.Close()

	b := func() *Client { // peer attached to the second relay
		site := w.fabric.AddSite("site-resume-b", emunet.SiteConfig{Firewall: emunet.Stateful})
		h := site.AddHost("resume-b")
		conn, err := h.Dial(emunet.Endpoint{Addr: gw2.Address(), Port: 4500})
		if err != nil {
			t.Fatal(err)
		}
		c, err := Attach(conn, "resume-b")
		if err != nil {
			t.Fatal(err)
		}
		return c
	}()
	defer b.Close()

	w.server.Close() // the first relay dies
	select {
	case <-detached:
	case <-time.After(5 * time.Second):
		t.Fatal("detach handler never fired")
	}
	if !a.Detached() {
		t.Fatal("client should report detached")
	}
	if _, err := a.Dial("resume-b", 100*time.Millisecond); err != ErrDetached {
		t.Fatalf("dial while detached = %v, want ErrDetached", err)
	}

	// Resume on the second relay.
	site := w.fabric.Site("site-1-resume-a")
	conn, err := site.Hosts()[0].Dial(emunet.Endpoint{Addr: gw2.Address(), Port: 4500})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Resume(conn, nil); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if a.Detached() || a.ServerID() != "second" {
		t.Fatalf("after resume: detached=%v server=%q", a.Detached(), a.ServerID())
	}

	// Both directions work on the new relay.
	go func() {
		c, err := b.Accept()
		if err != nil {
			return
		}
		io.Copy(c, c)
	}()
	c, err := a.Dial("resume-b", 2*time.Second)
	if err != nil {
		t.Fatalf("dial after resume: %v", err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("post-resume")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 11)
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "post-resume" {
		t.Fatalf("echo after resume: %q %v", buf, err)
	}
}

// TestServeCloseAttachRace runs Serve, Close and a node's attach at once,
// in whatever order the scheduler picks, many times over. Close returns,
// Serve returns (also when it starts after Close), and a node whose
// attach went through is detached by the time Close returns.
func TestServeCloseAttachRace(t *testing.T) {
	const deadline = 5 * time.Second
	for i := 0; i < 40; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer()
		served := make(chan error, 1)
		attached := make(chan *Client, 1)
		go func() { served <- srv.Serve(l) }()
		go func() {
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				attached <- nil // the relay closed its listener first
				return
			}
			c, err := Attach(conn, "node")
			if err != nil {
				conn.Close()
				attached <- nil // refused: the relay was closing
				return
			}
			attached <- c
		}()
		time.Sleep(time.Duration(i%8) * 50 * time.Microsecond)
		closed := make(chan struct{})
		go func() {
			srv.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(deadline):
			t.Fatalf("round %d: Close hung", i)
		}
		select {
		case <-served:
		case <-time.After(deadline):
			t.Fatalf("round %d: Serve still accepting after Close", i)
		}
		c := <-attached
		if c == nil {
			continue
		}
		gone := make(chan error, 1)
		go func() {
			_, err := c.Accept()
			gone <- err
		}()
		select {
		case <-gone:
		case <-time.After(deadline):
			t.Fatalf("round %d: the node is still attached after Close", i)
		}
		c.Close()
	}
}

// TestCloseDoesNotWaitForSilentDialers: a connection whose first
// meaningful frame never comes — one that sends nothing at all, one that
// probes the round trip once and falls silent — used to hold Close for
// the 30 s pre-attach deadline. Close closes them and returns at once.
func TestCloseDoesNotWaitForSilentDialers(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	go srv.Serve(l)
	var conns []net.Conn
	for range 2 {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns = append(conns, c)
	}
	// The second one probes: its echo says the relay has accepted both.
	prober := conns[1]
	if err := wire.NewWriter(prober).WriteFrame(wire.KindKeepAlive, 0, nil); err != nil {
		t.Fatal(err)
	}
	prober.SetReadDeadline(time.Now().Add(5 * time.Second))
	if f, err := wire.NewReader(prober).ReadFrame(); err != nil || f.Kind != wire.KindKeepAlive {
		t.Fatalf("probe answered with %v (%v), want its echo", f, err)
	}

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close waits for connections that never sent their first frame")
	}
	for i, c := range conns {
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		if n, err := c.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("connection %d: read %d bytes, %v after Close, want the relay to have closed it", i, n, err)
		}
	}
}
