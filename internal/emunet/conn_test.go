package emunet

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"netibis/internal/testutil"
)

func connPairForTest() (net.Conn, net.Conn) {
	a := Endpoint{Addr: "198.51.1.2", Port: 1}
	b := Endpoint{Addr: "198.51.2.2", Port: 2}
	return newConnPair(a, b, newPacer(DefaultLAN, 0, 1), newPacer(DefaultLAN, 0, 2), 0)
}

// TestConnLargeTransferIntegrity: 8 MiB arrive byte-exact, over the bare
// pipe and over a link that loses segments and jitters deliveries — a
// byte stream never reorders, whatever the link does to its timing.
func TestConnLargeTransferIntegrity(t *testing.T) {
	t.Run("unshaped", func(t *testing.T) {
		ca, cb := connPairForTest()
		transferIntegrity(t, ca, cb)
	})
	t.Run("lossy jittered link", func(t *testing.T) {
		defer testutil.LeakCheck(t, 0)()
		link := LinkParams{CapacityBps: 50e6, RTT: 10 * time.Millisecond, Jitter: 20 * time.Millisecond, LossRate: 0.01}
		f, dial := shapedLink(t, link, WithTimeScale(0.01), WithSeed(3))
		defer f.Close()
		ca, cb := dial()
		defer cb.Close()
		transferIntegrity(t, ca, cb)
	})
}

// transferIntegrity writes 8 MiB into ca in odd-sized chunks, closes it
// and checks that cb reads exactly those bytes and then EOF.
func transferIntegrity(t *testing.T, ca, cb net.Conn) {
	const total = 8 << 20
	data := make([]byte, total)
	rand.New(rand.NewSource(3)).Read(data)
	wantSum := sha256.Sum256(data)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Write in odd-sized chunks to exercise buffering boundaries.
		for off := 0; off < total; {
			n := 37777
			if off+n > total {
				n = total - off
			}
			if _, err := ca.Write(data[off : off+n]); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			off += n
		}
		ca.Close()
	}()
	got, err := io.ReadAll(cb)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != total {
		t.Fatalf("received %d bytes, want %d", len(got), total)
	}
	if sha256.Sum256(got) != wantSum {
		t.Fatal("payload corrupted in transit")
	}
}

func TestConnBidirectional(t *testing.T) {
	ca, cb := connPairForTest()
	defer ca.Close()
	defer cb.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 5)
		io.ReadFull(cb, buf)
		cb.Write(bytes.ToUpper(buf))
	}()
	ca.Write([]byte("hello"))
	buf := make([]byte, 5)
	if _, err := io.ReadFull(ca, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "HELLO" {
		t.Fatalf("got %q", buf)
	}
	<-done
}

func TestConnReadAfterCloseDrainsThenEOF(t *testing.T) {
	ca, cb := connPairForTest()
	ca.Write([]byte("last words"))
	ca.Close()
	got, err := io.ReadAll(cb)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "last words" {
		t.Fatalf("got %q", got)
	}
	if _, err := cb.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestConnWriteAfterPeerClose(t *testing.T) {
	ca, cb := connPairForTest()
	cb.Close()
	// The peer closed both directions; our writes must fail rather than
	// silently filling an unbounded buffer.
	_, err := ca.Write([]byte("into the void"))
	if err == nil {
		t.Fatal("expected error writing to closed connection")
	}
}

func TestConnReadDeadline(t *testing.T) {
	ca, cb := connPairForTest()
	defer ca.Close()
	defer cb.Close()
	ca.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	start := time.Now()
	_, err := ca.Read(make([]byte, 1))
	if err == nil {
		t.Fatal("expected timeout error")
	}
	nerr, ok := err.(net.Error)
	if !ok || !nerr.Timeout() {
		t.Fatalf("expected net.Error timeout, got %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("deadline fired far too late")
	}
	// Clearing the deadline must make reads blocking again (verified by
	// a successful read after the peer writes).
	ca.SetReadDeadline(time.Time{})
	go cb.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(ca, buf); err != nil {
		t.Fatalf("read after clearing deadline: %v", err)
	}
}

func TestConnAddrs(t *testing.T) {
	a := Endpoint{Addr: "198.51.1.2", Port: 10}
	b := Endpoint{Addr: "198.51.2.2", Port: 20}
	ca, cb := newConnPair(a, b, nil, nil, 0)
	if ca.LocalAddr().String() != a.String() || ca.RemoteAddr().String() != b.String() {
		t.Fatalf("conn A addrs wrong: %v %v", ca.LocalAddr(), ca.RemoteAddr())
	}
	if cb.LocalAddr().String() != b.String() || cb.RemoteAddr().String() != a.String() {
		t.Fatalf("conn B addrs wrong: %v %v", cb.LocalAddr(), cb.RemoteAddr())
	}
	if ca.LinkParams() != (LinkParams{}) {
		t.Fatalf("unshaped conn should report zero link params")
	}
}

func TestConnDoubleCloseIsSafe(t *testing.T) {
	ca, cb := connPairForTest()
	if err := ca.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ca.Close(); err != nil {
		t.Fatal(err)
	}
	cb.Close()
}

// TestShaperScaledDelayRoughlyProportional: bytes are readable at the
// far end after their serialisation at the link's capacity plus RTT/2,
// back-to-back reservations queue behind each other, the opposite
// direction is a queue of its own, and all of it scales.
func TestShaperScaledDelayRoughlyProportional(t *testing.T) {
	// 1 MB/s at scale 1.0: 100 KB take 100 ms to serialise and 10 ms to
	// cross. The pacer is handed the clock, so nothing sleeps.
	link := LinkParams{CapacityBps: 1e6, RTT: 20 * time.Millisecond}
	now := time.Unix(1000, 0)
	pc := newPacer(link, 1.0, 1)
	at1, ack1, lost := pc.reserve(100*1000, now)
	if d := at1.Sub(now); d != 110*time.Millisecond {
		t.Errorf("100 KB readable after %v, want 100 ms + RTT/2 = 110 ms", d)
	}
	if d := ack1.Sub(at1); d != link.RTT/2 {
		t.Errorf("acknowledgement back %v after delivery, want RTT/2 = %v", d, link.RTT/2)
	}
	if lost {
		t.Error("a link without loss lost a segment")
	}
	// The second reservation queues behind the first.
	at2, _, _ := pc.reserve(100*1000, now)
	if d := at2.Sub(at1); d != 100*time.Millisecond {
		t.Errorf("second 100 KB readable %v after the first, want its 100 ms of serialisation", d)
	}
	// Once the link has drained, a reservation starts from now.
	later := now.Add(time.Second)
	if at3, _, _ := pc.reserve(1000, later); at3.Sub(later) != 11*time.Millisecond {
		t.Errorf("1 KB on an idle link readable after %v, want 11 ms", at3.Sub(later))
	}
	// At scale 0.1 everything is a tenth.
	if at, _, _ := newPacer(link, 0.1, 1).reserve(100*1000, now); at.Sub(now) != 11*time.Millisecond {
		t.Errorf("at scale 0.1: readable after %v, want 11 ms", at.Sub(now))
	}

	// The two directions of a site pair are two queues.
	f := NewFabric(WithTimeScale(1))
	defer f.Close()
	f.AddSite("a", SiteConfig{})
	f.AddSite("b", SiteConfig{})
	f.SetLink("a", "b", link)
	ab, ba := f.pacersFor("a", "b")
	if ba2, ab2 := f.pacersFor("b", "a"); ab2 != ab || ba2 != ba || ab == ba {
		t.Fatal("pacersFor does not return one pacer per direction of the pair")
	}
	ab.reserve(1000*1000, now)
	if at, _, _ := ba.reserve(1000, now); at.Sub(now) != 11*time.Millisecond {
		t.Errorf("1 KB against a second of bulk readable after %v, want 11 ms", at.Sub(now))
	}
}

func TestShapedConnEndToEnd(t *testing.T) {
	// A tiny time scale keeps the test fast while still exercising the
	// shaped path: sender, pacer, delivery goroutine.
	f := NewFabric(WithTimeScale(0.001))
	defer f.Close()
	f.AddSite("a", SiteConfig{})
	f.AddSite("b", SiteConfig{})
	f.SetLink("a", "b", LinkParams{CapacityBps: 1.6e6, RTT: 30 * time.Millisecond})
	ha := f.Site("a").AddHost("ha")
	hb := f.Site("b").AddHost("hb")
	l, err := hb.Listen(9000)
	if err != nil {
		t.Fatal(err)
	}
	received := make(chan int64, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		n, _ := io.Copy(io.Discard, c)
		c.Close()
		received <- n
	}()
	c, err := ha.Dial(Endpoint{Addr: hb.Address(), Port: 9000})
	if err != nil {
		t.Fatal(err)
	}
	if c.(*Conn).LinkParams().CapacityBps != 1.6e6 {
		t.Fatalf("conn should report its link parameters")
	}
	payload := make([]byte, 256*1024)
	start := time.Now()
	if _, err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if n := <-received; n != int64(len(payload)) {
		t.Fatalf("received %d of %d bytes", n, len(payload))
	}
	// 256 KiB at 1.6 MB/s is 164 ms of link time, 0.16 ms at this scale.
	if elapsed := time.Since(start); elapsed < 160*time.Microsecond {
		t.Fatalf("256 KiB crossed in %v, faster than the link carries them", elapsed)
	}
}

func TestConcurrentDialsManyClients(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	server := f.AddSite("srv", SiteConfig{Firewall: Open}).AddHost("server")
	clients := f.AddSite("cli", SiteConfig{Firewall: Stateful})
	l, err := server.Listen(5555)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(c, c)
			}(c)
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		h := clients.AddHost("c" + string(rune('a'+i)))
		wg.Add(1)
		go func(h *Host, i int) {
			defer wg.Done()
			c, err := h.Dial(Endpoint{Addr: server.Address(), Port: 5555})
			if err != nil {
				t.Errorf("client %d dial: %v", i, err)
				return
			}
			defer c.Close()
			msg := bytes.Repeat([]byte{byte(i)}, 1000)
			c.Write(msg)
			got := make([]byte, len(msg))
			if _, err := io.ReadFull(c, got); err != nil {
				t.Errorf("client %d read: %v", i, err)
				return
			}
			if !bytes.Equal(got, msg) {
				t.Errorf("client %d echo mismatch", i)
			}
		}(h, i)
	}
	wg.Wait()
	l.Close()
}

// TestHalfPipeRingProperty: seeded random walks over one halfPipe,
// checked against a bytes.Buffer oracle. Writes and reads of random
// sizes wrap the ring at every offset; a writer pushing past the socket
// buffer blocks until reads make room; a stalled pipe and an expired
// read deadline time out with bytes buffered and without; close drains
// to EOF and drops the storage. After every step the pipe holds what
// the oracle holds, and its storage never exceeds the socket buffer.
func TestHalfPipeRingProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { halfPipeWalk(t, seed, 300) })
	}
}

func halfPipeWalk(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	sockBuf := 1000 + rng.Intn(9000) // not a power of two: wraps land anywhere
	hp := newHalfPipe(sockBuf)
	var want bytes.Buffer // written, not yet read
	next := byte(0)
	data := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i], next = next, next*7+byte(seed)+1
		}
		return p
	}
	check := func(step string) {
		t.Helper()
		hp.mu.Lock()
		n, size := hp.buf.n, len(hp.buf.buf)
		hp.mu.Unlock()
		if n != want.Len() {
			t.Fatalf("%s: pipe holds %d bytes, oracle %d", step, n, want.Len())
		}
		if size > sockBuf {
			t.Fatalf("%s: ring storage %d bytes, socket buffer %d", step, size, sockBuf)
		}
		if room := hp.room(); room != sockBuf-want.Len() {
			t.Fatalf("%s: room %d, want %d", step, room, sockBuf-want.Len())
		}
	}
	read := func(step string, max int) {
		t.Helper()
		got := make([]byte, 1+rng.Intn(max))
		n, err := hp.read(got)
		if err != nil {
			t.Fatalf("%s: read: %v", step, err)
		}
		if exp := want.Next(n); !bytes.Equal(got[:n], exp) {
			t.Fatalf("%s: read %d bytes that differ from the oracle's", step, n)
		}
	}
	expectTimeout := func(step string) {
		t.Helper()
		if _, err := hp.read(make([]byte, 16)); err != ErrTimeout {
			t.Fatalf("%s: read = %v, want ErrTimeout", step, err)
		}
		hp.setDeadline(time.Time{})
	}

	for i := 0; i < steps; i++ {
		switch op := rng.Intn(10); {
		case op < 4: // a write that fits
			if room := sockBuf - want.Len(); room > 0 {
				p := data(1 + rng.Intn(room))
				if n, err := hp.write(p); n != len(p) || err != nil {
					t.Fatalf("write of %d: %d, %v", len(p), n, err)
				}
				want.Write(p)
			}
			check("write")
		case op < 7: // a read of what is there
			if want.Len() > 0 {
				read("read", sockBuf)
			}
			check("read")
		case op == 7: // a writer blocks on a full buffer until reads make room
			p := data(sockBuf - want.Len() + 1 + rng.Intn(sockBuf))
			done := make(chan error, 1)
			go func() {
				_, err := hp.write(p)
				done <- err
			}()
			for hp.room() > 0 {
				runtime.Gosched()
			}
			select {
			case err := <-done:
				t.Fatalf("a write past the socket buffer returned (%v) with no reader", err)
			default:
			}
			want.Write(p)
			for want.Len() > 0 {
				read("read under a blocked writer", sockBuf)
			}
			if err := <-done; err != nil {
				t.Fatalf("blocked write: %v", err)
			}
			check("blocked write")
		case op == 8: // a stalled pipe times out with bytes buffered
			hp.setStall(true)
			hp.setDeadline(time.Now().Add(time.Millisecond))
			expectTimeout("stalled read")
			hp.setStall(false)
			check("stall")
		default: // an expired deadline times out, with or without bytes
			hp.setDeadline(time.Now().Add(-time.Millisecond))
			if want.Len() > 0 {
				hp.setStall(true) // buffered bytes would be returned, not a timeout
				expectTimeout("expired deadline, stalled")
				hp.setStall(false)
			} else {
				expectTimeout("expired deadline, empty")
			}
			check("deadline")
		}
	}

	// Close: writes fail, the reader drains and reads EOF, the storage goes.
	if room := sockBuf - want.Len(); room > 0 {
		p := data(1 + rng.Intn(room))
		hp.write(p)
		want.Write(p)
	}
	hp.close()
	if _, err := hp.write([]byte{1}); err != io.ErrClosedPipe {
		t.Fatalf("write after close = %v, want io.ErrClosedPipe", err)
	}
	for want.Len() > 0 {
		read("drain after close", 512)
	}
	if _, err := hp.read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read past the drained bytes = %v, want io.EOF", err)
	}
	if hp.buf.buf != nil {
		t.Fatalf("a closed, drained pipe keeps %d bytes of storage", len(hp.buf.buf))
	}
}

// TestReadStallFreezesConsumerAndBackpressuresWriter: the slow-consumer
// knob. A stalled end's Read blocks even with data buffered; the peer
// can keep writing until the (small, configured) socket buffer fills
// and then blocks, exactly like TCP against a closed receive window;
// clearing the stall drains everything intact.
func TestReadStallFreezesConsumerAndBackpressuresWriter(t *testing.T) {
	const sockBuf = 8 << 10
	a := Endpoint{Addr: "198.51.1.2", Port: 1}
	b := Endpoint{Addr: "198.51.2.2", Port: 2}
	ca, cb := newConnPair(a, b, newPacer(DefaultLAN, 0, 1), newPacer(DefaultLAN, 0, 2), sockBuf)

	cb.SetReadStall(true)

	// Reads block while stalled, even once data is buffered.
	if _, err := ca.Write([]byte("frozen")); err != nil {
		t.Fatal(err)
	}
	cb.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := cb.Read(make([]byte, 4)); err != ErrTimeout {
		t.Fatalf("read on a stalled conn = %v, want ErrTimeout", err)
	}
	cb.SetReadDeadline(time.Time{})

	// The writer fills the socket buffer and then blocks.
	written := make(chan int, 1)
	go func() {
		n, _ := ca.Write(make([]byte, 4*sockBuf))
		written <- n
	}()
	select {
	case n := <-written:
		t.Fatalf("writer pushed %d bytes past a stalled reader's %d-byte socket buffer", n+6, sockBuf)
	case <-time.After(100 * time.Millisecond):
	}

	// Unstall: everything drains, intact and in order.
	cb.SetReadStall(false)
	got := make([]byte, 0, 6+4*sockBuf)
	buf := make([]byte, 1024)
	for len(got) < 6+4*sockBuf {
		n, err := cb.Read(buf)
		if err != nil {
			t.Fatalf("read after unstall: %v", err)
		}
		got = append(got, buf[:n]...)
	}
	if string(got[:6]) != "frozen" {
		t.Fatalf("drained prefix = %q", got[:6])
	}
	if n := <-written; n != 4*sockBuf {
		t.Fatalf("writer completed %d bytes, want %d", n, 4*sockBuf)
	}
}
