package emunet

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"netibis/internal/testutil"
)

// twoSiteWorld builds two open public sites with one host each and a
// listener on b, returning the hosts and the established a->b conn pair.
func twoSiteWorld(t *testing.T, opts ...Option) (f *Fabric, ha, hb *Host, conn net.Conn, accepted net.Conn) {
	t.Helper()
	f = NewFabric(opts...)
	sa := f.AddSite("alpha", SiteConfig{Firewall: Open})
	sb := f.AddSite("beta", SiteConfig{Firewall: Open})
	ha = sa.AddHost("a1")
	hb = sb.AddHost("b1")
	l, err := hb.Listen(7000)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	acceptCh := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			acceptCh <- c
		}
	}()
	conn, err = ha.Dial(Endpoint{Addr: hb.Address(), Port: 7000})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	accepted = <-acceptCh
	return f, ha, hb, conn, accepted
}

func TestPartitionBlocksNewDials(t *testing.T) {
	f, ha, hb, conn, accepted := twoSiteWorld(t)
	defer f.Close()
	defer conn.Close()
	defer accepted.Close()

	f.Partition("alpha", "beta")
	_, err := ha.Dial(Endpoint{Addr: hb.Address(), Port: 7000})
	if !errors.Is(err, ErrPartitioned) {
		t.Fatalf("dial across partition: got %v, want ErrPartitioned", err)
	}

	f.Heal("alpha", "beta")
	c, err := ha.Dial(Endpoint{Addr: hb.Address(), Port: 7000})
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	c.Close()
}

func TestPartitionSeversExistingConns(t *testing.T) {
	f, _, _, conn, accepted := twoSiteWorld(t)
	defer f.Close()

	// Sanity: data flows before the partition.
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatalf("pre-partition write: %v", err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(accepted, buf); err != nil {
		t.Fatalf("pre-partition read: %v", err)
	}

	f.Partition("alpha", "beta")

	// Both ends observe the severed link: reads drain to EOF, writes
	// fail once the pipe is closed.
	accepted.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := accepted.Read(buf); err != io.EOF {
		t.Fatalf("read on severed conn: got %v, want EOF", err)
	}
	if _, err := conn.Write([]byte("x")); err == nil {
		t.Fatalf("write on severed conn unexpectedly succeeded")
	}

	// Healing does not resurrect severed connections.
	f.Heal("alpha", "beta")
	if _, err := conn.Write([]byte("x")); err == nil {
		t.Fatalf("write after heal on severed conn unexpectedly succeeded")
	}
}

func TestPartitionLeavesOtherLinksAlone(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	for _, name := range []string{"alpha", "beta", "gamma"} {
		s := f.AddSite(name, SiteConfig{Firewall: Open})
		s.AddHost(name + "-h")
	}
	hg := f.Site("gamma").Hosts()[0]
	l, err := hg.Listen(7000)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()

	f.Partition("alpha", "beta")
	ha := f.Site("alpha").Hosts()[0]
	c, err := ha.Dial(Endpoint{Addr: hg.Address(), Port: 7000})
	if err != nil {
		t.Fatalf("dial alpha->gamma with alpha-beta partitioned: %v", err)
	}
	c.Close()
}

func TestConnTrackingDrainsOnClose(t *testing.T) {
	f, ha, hb, conn, accepted := twoSiteWorld(t)
	defer f.Close()

	f.mu.Lock()
	live := len(f.conns[orderedLinkKey("alpha", "beta")])
	f.mu.Unlock()
	if live != 2 {
		t.Fatalf("tracked conns after dial: got %d, want 2", live)
	}
	conn.Close()
	accepted.Close()
	f.mu.Lock()
	live = len(f.conns[orderedLinkKey("alpha", "beta")])
	f.mu.Unlock()
	if live != 0 {
		t.Fatalf("tracked conns after close: got %d, want 0", live)
	}

	// An acceptor that closes at once must not race the dial's tracking
	// (run under -race) nor leave a closed conn tracked for good, and a
	// dial the listener's full backlog refuses leaves nothing behind.
	l, err := hb.Listen(7001)
	if err != nil {
		t.Fatal(err)
	}
	target := Endpoint{Addr: hb.Address(), Port: 7001}
	const dials = 200
	closed := make(chan error)
	go func() {
		for i := 0; i < dials; i++ {
			c, err := l.Accept()
			if err == nil {
				c.Close() // possibly while the dial is still returning
			}
			closed <- err
		}
	}()
	for i := 0; i < dials; i++ {
		c, err := ha.Dial(target)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		c.Close()
		if err := <-closed; err != nil {
			t.Fatalf("accept %d: %v", i, err)
		}
	}
	var queued []net.Conn
	for {
		c, err := ha.Dial(target)
		if err != nil {
			break
		}
		queued = append(queued, c)
	}
	for _, c := range queued {
		c.Close()
		far, err := l.Accept()
		if err != nil {
			t.Fatalf("draining the backlog: %v", err)
		}
		far.Close()
	}
	f.mu.Lock()
	live = len(f.conns[orderedLinkKey("alpha", "beta")])
	f.mu.Unlock()
	if live != 0 {
		t.Fatalf("tracked conns after accept-and-close and refused dials: got %d, want 0", live)
	}
}

func TestJitterAddsBoundedDelay(t *testing.T) {
	// At time scale 1 a 0-RTT link with jitter delivers [0, Jitter)
	// after the write; with the same seed the delays replay identically.
	params := LinkParams{CapacityBps: 0, RTT: 0, Jitter: 20 * time.Millisecond}
	now := time.Unix(1000, 0)
	sample := func(seed int64) []time.Duration {
		pc := newPacer(params, 1.0, seed)
		out := make([]time.Duration, 8)
		for i := range out {
			at, _, _ := pc.reserve(1, now)
			out[i] = at.Sub(now)
		}
		return out
	}
	a, b := sample(7), sample(7)
	var nonzero bool
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jitter not replayable: sample %d: %v != %v", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= params.Jitter {
			t.Fatalf("jitter out of bounds: %v", a[i])
		}
		if a[i] > 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatalf("jitter never fired across %d samples", len(a))
	}
	if c := sample(8); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Fatalf("different seeds produced identical jitter prefix")
	}

	// Jitter moves when bytes arrive, never their order: a connection
	// clamps its delivery times monotone. Each byte carries its index.
	defer testutil.LeakCheck(t, 0)()
	f, dial := shapedLink(t, LinkParams{CapacityBps: 1e6, RTT: 2 * time.Millisecond, Jitter: 20 * time.Millisecond}, WithTimeScale(0.1), WithSeed(7))
	defer f.Close()
	w, e := dial()
	defer e.Close()
	const count = 200
	go func() {
		for i := 0; i < count; i++ {
			w.Write([]byte{byte(i)})
		}
		w.Close()
	}()
	got, err := io.ReadAll(e)
	if err != nil || len(got) != count {
		t.Fatalf("read %d of %d bytes, err %v", len(got), count, err)
	}
	for i, b := range got {
		if b != byte(i) {
			t.Fatalf("byte %d arrived in place %d: jitter reordered the stream", b, i)
		}
	}
}

// TestSetLinkChangesLiveConns: SetLink changes the link under the
// connections already crossing it, and connections opened before and
// after it go on sharing one link.
func TestSetLinkChangesLiveConns(t *testing.T) {
	defer testutil.LeakCheck(t, 0)()
	link := LinkParams{CapacityBps: 2e6, RTT: 10 * time.Millisecond}
	f, dial := shapedLink(t, link, WithTimeScale(1), WithSocketBuffer(64<<10))
	defer f.Close()

	oldW, oldE := dial()
	if got := pingPong(t, oldW, oldE, 5); !within(got.Seconds(), link.RTT.Seconds(), 0.25) {
		t.Fatalf("before SetLink: ping-pong %v, want the link's %v", got, link.RTT)
	}
	slow := link
	slow.RTT *= 4
	f.SetLink("west", "east", slow)
	if got := oldW.(*Conn).LinkParams(); got != slow {
		t.Errorf("a conn opened before SetLink reports %+v, want %+v", got, slow)
	}
	if got := pingPong(t, oldW, oldE, 5); !within(got.Seconds(), slow.RTT.Seconds(), 0.25) {
		t.Errorf("a conn opened before SetLink(RTT x4): ping-pong %v, want the new %v", got, slow.RTT)
	}

	// One link, not one per generation of conns: together the old conn
	// and a new one get the capacity once, and about half each.
	f.SetLink("west", "east", link)
	newW, newE := dial()
	rates := blast([]net.Conn{oldW, newW}, []net.Conn{oldE, newE}, 1, 10*link.RTT, 40*link.RTT)
	if total := sum(rates); !within(total, link.CapacityBps, 0.15) {
		t.Errorf("conns opened either side of a SetLink carry %.2f MB/s together, want the link's %.2f", total/1e6, link.CapacityBps/1e6)
	}
	for i, r := range rates {
		if share := r / sum(rates); share < 0.3 || share > 0.7 {
			t.Errorf("conn %d got %.0f%% of the link, want about half", i, share*100)
		}
	}
}
