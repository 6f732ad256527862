package emunet

import (
	"bytes"
	"io"
	"math"
	"net"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"netibis/internal/testutil"
)

// The two WAN links of the paper's evaluation (Section 4.2).
var (
	delftSophia     = LinkParams{CapacityBps: 9e6, RTT: 43 * time.Millisecond}
	amsterdamRennes = LinkParams{CapacityBps: 1.6e6, RTT: 30 * time.Millisecond, LossRate: 0.003}
)

// shapedLink builds two open sites "west" and "east" joined by p and
// returns the fabric and a dialer of connection pairs west -> east.
func shapedLink(t *testing.T, p LinkParams, opts ...Option) (*Fabric, func() (west, east net.Conn)) {
	t.Helper()
	f := NewFabric(opts...)
	hw := f.AddSite("west", SiteConfig{Firewall: Open}).AddHost("w")
	he := f.AddSite("east", SiteConfig{Firewall: Open}).AddHost("e")
	f.SetLink("west", "east", p)
	l, err := he.Listen(7000)
	if err != nil {
		t.Fatal(err)
	}
	return f, func() (net.Conn, net.Conn) {
		t.Helper()
		w, err := hw.Dial(Endpoint{Addr: he.Address(), Port: 7000})
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		e, err := l.Accept()
		if err != nil {
			t.Fatalf("accept: %v", err)
		}
		return w, e
	}
}

// blast writes from[i] -> to[i] as fast as the conns take it and
// returns, per pair, the link's rate over the window of emulated time
// that follows the warm-up: the bytes it scheduled per emulated second of
// their delivery times. It closes the conns.
//
// The rate is read off the link's schedule, not off the instants a reader
// got the bytes, so host load cannot bias it. On a loaded host every
// goroutine wakes late. A late reader leaves a full receive buffer, which
// holds no more than the window; that stalls delivery and, with it, the
// acknowledgements that open the window, so bytes arrive late. But each
// byte is still scheduled to leave when the acknowledgement that made
// room for it came back, however late the sender ran. Each writer makes
// one long Write, so no byte waits for the host to call it again.
func blast(from, to []net.Conn, scale float64, warm, window time.Duration) []float64 {
	src := make([]byte, 16<<20)
	var wg sync.WaitGroup
	for i := range from {
		wg.Add(2)
		go func(c net.Conn) {
			defer wg.Done()
			for {
				if _, err := c.Write(src); err != nil {
					return
				}
			}
		}(from[i])
		go func(c net.Conn) {
			defer wg.Done()
			io.Copy(io.Discard, c)
		}(to[i])
	}
	snap := func() (sent []int64, at []time.Time) {
		for _, c := range from {
			n, due, _ := c.(*Conn).Scheduled()
			sent, at = append(sent, n), append(at, due)
		}
		return sent, at
	}
	time.Sleep(time.Duration(float64(warm) * scale))
	n0, at0 := snap()
	time.Sleep(time.Duration(float64(window) * scale))
	n1, at1 := snap()
	for i := range from {
		from[i].Close()
		to[i].Close()
	}
	wg.Wait()
	rates := make([]float64, len(from))
	for i := range rates {
		if d := at1[i].Sub(at0[i]).Seconds() / scale; d > 0 {
			rates[i] = float64(n1[i]-n0[i]) / d
		}
	}
	return rates
}

// crossing blasts w -> e and returns the rate, in bytes per emulated
// second, at which the link scheduled the stream from where the reader
// passes byte skip to where it passes byte skip+count. It closes the
// conns.
//
// The stream positions are read off the sender's schedule when the
// reader passes them, as blast reads them, and not off the instants the
// reader got the bytes: a late reader or writer moves neither. Measured
// between two places in the stream and not two instants, it covers
// nearly the same bytes, and so the same losses, on every run. The
// writer makes one long Write, so no byte waits for the host to call it
// again.
func crossing(t *testing.T, w, e net.Conn, scale float64, skip, count int) float64 {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		src := make([]byte, 16<<20)
		for {
			if _, err := w.Write(src); err != nil {
				return
			}
		}
	}()
	buf := make([]byte, 64<<10)
	var n0 int64
	var at0 time.Time
	for got := 0; got < skip+count; {
		n, err := e.Read(buf)
		if err != nil {
			t.Fatalf("read after %d bytes: %v", got, err)
		}
		if got < skip && got+n >= skip {
			n0, at0, _ = w.(*Conn).Scheduled()
		}
		got += n
	}
	n1, at1, _ := w.(*Conn).Scheduled()
	w.Close()
	e.Close()
	<-done
	return float64(n1-n0) / (at1.Sub(at0).Seconds() / scale)
}

func sum(xs []float64) (s float64) {
	for _, x := range xs {
		s += x
	}
	return s
}

// pingPong returns the median of n round trips of one byte a -> b -> a
// on a link at time scale 1, as the link scheduled them: for each
// direction, the time from when the byte left its sender to when it was
// due at the far end. The bytes make the trip; what is read is the link's
// delay, which host load cannot lengthen, and not how late the host woke
// the goroutines that carry them.
func pingPong(t *testing.T, a, b net.Conn, n int) time.Duration {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 1)
		for i := 0; i < n; i++ {
			if _, err := io.ReadFull(b, buf); err != nil {
				return
			}
			b.Write(buf)
		}
	}()
	rtts := make([]time.Duration, n)
	buf := make([]byte, 1)
	for i := range rtts {
		if _, err := a.Write(buf); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
		_, due, left := a.(*Conn).Scheduled()
		if _, err := io.ReadFull(a, buf); err != nil {
			t.Fatalf("pong %d: %v", i, err)
		}
		_, backDue, backLeft := b.(*Conn).Scheduled()
		rtts[i] = due.Sub(left) + backDue.Sub(backLeft)
	}
	<-done
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	return rtts[n/2]
}

// within reports whether got is within tol (a fraction) of want.
func within(got, want, tol float64) bool {
	return got >= want*(1-tol) && got <= want*(1+tol)
}

// TestWindowLaw is gate (a): without loss a connection runs at
// window/RTT until the link's capacity bounds it, and connections add
// up. (The time scales keep the real byte rate low enough for the race
// detector, which charges every byte copied.)
func TestWindowLaw(t *testing.T) {
	defer testutil.LeakCheck(t, 0)()
	const window = 64 << 10
	perConn := window / delftSophia.RTT.Seconds() // ~1.5 MB/s

	one := func(scale float64, skip, count int, opts ...Option) float64 {
		f, dial := shapedLink(t, delftSophia, append(opts, WithTimeScale(scale))...)
		defer f.Close()
		w, e := dial()
		return crossing(t, w, e, scale, skip, count)
	}
	if got := one(0.25, 256<<10, 2<<20, WithSocketBuffer(window)); !within(got, perConn, 0.15) {
		t.Errorf("one conn, 64 KiB window: %.2f MB/s, want window/RTT = %.2f MB/s +-15%%", got/1e6, perConn/1e6)
	}
	// Slow start takes the default 4 MiB window past the link's 387 KB
	// bandwidth-delay product in five round trips; from there on the
	// link is the bound.
	if got := one(0.5, 4<<20, 8<<20); got < 0.9*delftSophia.CapacityBps || got > 1.05*delftSophia.CapacityBps {
		t.Errorf("one conn, default window: %.2f MB/s, want 90-105%% of the link's %.2f MB/s", got/1e6, delftSophia.CapacityBps/1e6)
	}

	const scale = 0.25
	f, dial := shapedLink(t, delftSophia, WithTimeScale(scale), WithSocketBuffer(window))
	defer f.Close()
	from, to := make([]net.Conn, 4), make([]net.Conn, 4)
	for i := range from {
		from[i], to[i] = dial()
	}
	if got := sum(blast(from, to, scale, 8*delftSophia.RTT, 30*delftSophia.RTT)); !within(got, 4*perConn, 0.15) {
		t.Errorf("four conns, 64 KiB windows: %.2f MB/s, want 4 x window/RTT = %.2f MB/s +-15%%", got/1e6, 4*perConn/1e6)
	}
}

// TestLossLaw is gate (b): on the paper's lossy link one 64 KiB
// connection is held where the Reno loss law says it is, and four
// recover the link.
//
// The law is the closed form of Mathis et al. (1997) capped by the link
// and the window: min(capacity, window/RTT, MSS/RTT·√(3/2p)), 68 % of
// Amsterdam–Rennes. The 8 MiB the single connection is timed over hold
// some seventeen losses, so what it reads depends on where they fall:
// 50 to 74 % over eight seeds, 61 % in the mean — under the law, which
// charges a loss a halved window but no stalled round trip. The seed
// pins one ordinary sequence; given it, the same bytes are lost on
// every run.
func TestLossLaw(t *testing.T) {
	defer testutil.LeakCheck(t, 0)()
	const scale = 0.2
	p := amsterdamRennes
	law := min(p.CapacityBps, (64<<10)/p.RTT.Seconds(),
		mss/p.RTT.Seconds()*math.Sqrt(3/(2*p.LossRate))) / p.CapacityBps
	opts := []Option{WithTimeScale(scale), WithSocketBuffer(64 << 10), WithSeed(5)}

	f, dial := shapedLink(t, amsterdamRennes, opts...)
	w, e := dial()
	const count = 8 << 20
	one := crossing(t, w, e, scale, 256<<10, count) / amsterdamRennes.CapacityBps
	f.Close()
	if one < law-0.10 || one > law+0.10 {
		t.Errorf("one conn: %.0f%% of capacity, want the law's %.0f%% +-10 points", one*100, law*100)
	}

	f, dial = shapedLink(t, amsterdamRennes, opts...)
	from, to := make([]net.Conn, 4), make([]net.Conn, 4)
	for i := range from {
		from[i], to[i] = dial()
	}
	four := sum(blast(from, to, scale, 10*amsterdamRennes.RTT, 60*amsterdamRennes.RTT)) / amsterdamRennes.CapacityBps
	f.Close()
	if four < 0.9 || four > 1.05 {
		t.Errorf("four conns: %.0f%% of capacity, want 90-105%%", four*100)
	}
	t.Logf("one conn %.0f%% of capacity (law %.0f%%), four conns %.0f%%", one*100, law*100, four*100)
}

// TestLossSequenceReplays: the losses of a direction are a function of
// its seed and of the bytes that crossed it, not of how writers chunked
// them or of the clock.
func TestLossSequenceReplays(t *testing.T) {
	lostSegments := func(seed int64, chunk int) []int {
		pc := newPacer(amsterdamRennes, 1, seed)
		now := time.Unix(0, 0)
		var lost []int
		for off := 0; off < 2000*mss; off += chunk {
			if _, _, l := pc.reserve(chunk, now); l {
				lost = append(lost, off/mss) // the segment that starts in this chunk
			}
		}
		return lost
	}
	whole := lostSegments(5, mss)
	if len(whole) == 0 {
		t.Fatal("no loss in 2000 segments at 0.3%")
	}
	if again := lostSegments(5, mss); !slices.Equal(whole, again) {
		t.Errorf("same seed, different losses: %v then %v", whole, again)
	}
	if small := lostSegments(5, mss/4); !slices.Equal(whole, small) {
		t.Errorf("losses moved with the chunking: %v in segments, %v in quarter segments", whole, small)
	}
	if other := lostSegments(6, mss); slices.Equal(whole, other) {
		t.Errorf("different seeds lost the same segments %v", whole)
	}
}

// TestRenoStep pins the congestion law without a clock.
func TestRenoStep(t *testing.T) {
	for _, tc := range []struct {
		name           string
		cwnd, ssthresh float64
		acked          int
		lost           bool
		wantCwnd       float64
		wantSsthresh   float64
	}{
		{"slow start adds what was acknowledged", 10 * mss, 100 * mss, 2 * mss, false, 12 * mss, 100 * mss},
		{"congestion avoidance adds a segment per window", 20 * mss, 20 * mss, 2 * mss, false, 20*mss + mss/10.0, 20 * mss},
		{"a loss halves window and threshold", 40 * mss, 100 * mss, 2 * mss, true, 20 * mss, 20 * mss},
		{"a loss in slow start ends it", 16 * mss, 1 << 30, mss, true, 8 * mss, 8 * mss},
		{"the window never falls under two segments", 3 * mss, 10 * mss, mss, true, 2 * mss, 2 * mss},
	} {
		cwnd, ssthresh := renoStep(tc.cwnd, tc.ssthresh, tc.acked, tc.lost)
		if cwnd != tc.wantCwnd || ssthresh != tc.wantSsthresh {
			t.Errorf("%s: renoStep(%v, %v, %d, %v) = %v, %v; want %v, %v",
				tc.name, tc.cwnd, tc.ssthresh, tc.acked, tc.lost, cwnd, ssthresh, tc.wantCwnd, tc.wantSsthresh)
		}
	}
	// Without loss the window only grows: a full round trip of
	// acknowledgements doubles it in slow start and adds one segment
	// after.
	cwnd, ssthresh := float64(10*mss), float64(40*mss)
	for round := 0; round < 8; round++ {
		before := cwnd
		for acked := 0.0; acked < before; acked += mss {
			cwnd, ssthresh = renoStep(cwnd, ssthresh, mss, false)
		}
		switch {
		case before < ssthresh && cwnd != 2*before:
			t.Errorf("round %d: slow start took %v to %v, want doubled", round, before, cwnd)
		case before >= ssthresh && (cwnd < before+0.9*mss || cwnd > before+mss):
			t.Errorf("round %d: congestion avoidance took %v to %v, want about one segment more", round, before, cwnd)
		}
	}
}

// TestRTTUnaffectedByOppositeBulk is gate (c): the two directions of a
// link are two pacers, and a connection held under the link's capacity
// by its window leaves no queue on its own. A bulk transfer east -> west
// in 256 KiB writes therefore costs a west -> east ping-pong nothing:
// the pings cross the idle direction, the pongs wait for at most one
// quantum of bulk. (With one queue for both directions and the sender
// asleep for each write's serialisation, every ping waited for the
// 29 ms a bulk write holds the link.)
func TestRTTUnaffectedByOppositeBulk(t *testing.T) {
	defer testutil.LeakCheck(t, 0)()
	f, dial := shapedLink(t, delftSophia, WithTimeScale(1), WithSocketBuffer(64<<10))
	defer f.Close()
	pingW, pingE := dial()
	defer pingW.Close()
	defer pingE.Close()
	bulkW, bulkE := dial()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		chunk := make([]byte, 256<<10)
		for {
			if _, err := bulkE.Write(chunk); err != nil {
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		io.Copy(io.Discard, bulkW)
	}()
	time.Sleep(5 * delftSophia.RTT) // the bulk is past slow start

	got := pingPong(t, pingW, pingE, 11)
	if !within(got.Seconds(), delftSophia.RTT.Seconds(), 0.05) {
		t.Errorf("ping-pong against a bulk transfer: median %v, want the link's RTT %v +-5%%", got, delftSophia.RTT)
	}
	bulkW.Close()
	bulkE.Close()
	wg.Wait()
}

// TestWriteDoesNotWaitForTheLink is gate (e), first half: latency lands
// on delivery, never on the caller.
func TestWriteDoesNotWaitForTheLink(t *testing.T) {
	defer testutil.LeakCheck(t, 0)()
	link := LinkParams{CapacityBps: 1e6, RTT: 200 * time.Millisecond}
	f, dial := shapedLink(t, link, WithTimeScale(1))
	defer f.Close()
	w, e := dial()
	defer w.Close()
	defer e.Close()

	msg := bytes.Repeat([]byte("x"), 10<<10) // under the initial window
	start := time.Now()
	if n, err := w.Write(msg); n != len(msg) || err != nil {
		t.Fatalf("write: %d, %v", n, err)
	}
	wrote := time.Since(start)
	if _, err := io.ReadFull(e, make([]byte, len(msg))); err != nil {
		t.Fatal(err)
	}
	arrived := time.Since(start)
	if wrote >= link.RTT/2 {
		t.Errorf("Write took %v: it waited for the link (RTT/2 = %v)", wrote, link.RTT/2)
	}
	// 10 KiB at 1 MB/s is 10 ms of serialisation, then RTT/2.
	if want := link.RTT/2 + 10*time.Millisecond; arrived < want || arrived > want+want/2 {
		t.Errorf("bytes readable after %v, want serialisation + RTT/2 = %v", arrived, want)
	}
}

// TestWriteDeadlineOnFullWindow is gate (e), second half: a stalled
// reader closes the window and the writer times out at its deadline,
// reporting what it had got in.
func TestWriteDeadlineOnFullWindow(t *testing.T) {
	defer testutil.LeakCheck(t, 0)()
	const sockBuf = 8 << 10
	f, dial := shapedLink(t, LinkParams{CapacityBps: 10e6, RTT: 2 * time.Millisecond}, WithTimeScale(1), WithSocketBuffer(sockBuf))
	defer f.Close()
	w, e := dial()
	defer w.Close()
	defer e.Close()
	e.(*Conn).SetReadStall(true)

	const timeout = 100 * time.Millisecond
	payload := make([]byte, 8*sockBuf)
	start := time.Now()
	w.SetWriteDeadline(start.Add(timeout))
	n, err := w.Write(payload)
	took := time.Since(start)
	if err != ErrTimeout {
		t.Fatalf("write into a stalled peer: %d, %v; want ErrTimeout", n, err)
	}
	// The receive buffer filled and then one more window: no further.
	if n < sockBuf || n > 2*sockBuf {
		t.Errorf("write into a stalled peer took %d bytes, want between one and two socket buffers (%d)", n, sockBuf)
	}
	if took < timeout || took > timeout+time.Second {
		t.Errorf("timed out after %v, want the deadline's %v", took, timeout)
	}

	// SetDeadline arms the write side too, and clearing it unblocks
	// nothing by itself: the reader has to thaw.
	w.SetDeadline(time.Now().Add(20 * time.Millisecond))
	if _, err := w.Write(payload); err != ErrTimeout {
		t.Fatalf("write after SetDeadline: %v, want ErrTimeout", err)
	}
	w.SetDeadline(time.Time{})
	e.(*Conn).SetReadStall(false)
	go io.Copy(io.Discard, e)
	if _, err := w.Write(payload); err != nil {
		t.Fatalf("write after the reader thawed: %v", err)
	}
}

// TestCloseDrainsSeverDrops is gate (f): Close is a FIN behind the data
// already accepted; a partition, or closing the fabric, drops what is in
// flight and fails both ends. Neither leaves a goroutine.
func TestCloseDrainsSeverDrops(t *testing.T) {
	defer testutil.LeakCheck(t, 0)()
	link := LinkParams{CapacityBps: 1e6, RTT: 60 * time.Millisecond}
	payload := make([]byte, 12<<10) // under the initial window: one Write takes it all
	for i := range payload {
		payload[i] = byte(i)
	}

	t.Run("close drains", func(t *testing.T) {
		f, dial := shapedLink(t, link, WithTimeScale(1))
		defer f.Close()
		w, e := dial()
		defer e.Close()
		start := time.Now()
		if _, err := w.Write(payload); err != nil {
			t.Fatal(err)
		}
		w.Close()
		got, err := io.ReadAll(e)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("after Close the reader got %d of %d bytes, err %v", len(got), len(payload), err)
		}
		if took := time.Since(start); took < link.RTT/2 {
			t.Errorf("the closing end's bytes arrived after %v, before the link could carry them (RTT/2 = %v)", took, link.RTT/2)
		}
	})

	for _, sever := range []struct {
		name string
		cut  func(f *Fabric)
	}{
		{"partition drops", func(f *Fabric) { f.Partition("west", "east") }},
		{"fabric close drops", func(f *Fabric) { f.Close() }},
	} {
		t.Run(sever.name, func(t *testing.T) {
			f, dial := shapedLink(t, link, WithTimeScale(1))
			defer f.Close()
			w, e := dial()
			defer w.Close()
			defer e.Close()
			if _, err := w.Write(payload); err != nil {
				t.Fatal(err)
			}
			sever.cut(f)
			e.SetReadDeadline(time.Now().Add(2 * time.Second))
			if got, err := io.ReadAll(e); err != nil || len(got) != 0 {
				t.Errorf("after the cut the reader got %d bytes, err %v; want none and EOF", len(got), err)
			}
			if _, err := w.Write(payload); err == nil {
				t.Error("write on a severed conn succeeded")
			}
			if _, err := e.Write(payload); err == nil {
				t.Error("write on the other end of a severed conn succeeded")
			}
		})
	}
}

// TestShaperZeroScaleNoDelay is gate (g): at time scale 0 a connection
// is two halfPipes and nothing else — no sender, no goroutine, no
// delay, and a Write+Read pair allocates nothing.
func TestShaperZeroScaleNoDelay(t *testing.T) {
	f, dial := shapedLink(t, delftSophia) // a link with delay, on a fabric without a time scale
	defer f.Close()
	w, e := dial()
	defer w.Close()
	defer e.Close()
	if c := w.(*Conn); c.tx != nil || c.rx != nil {
		t.Fatal("a conn at time scale 0 has a sender")
	}
	if got := w.(*Conn).LinkParams(); got != delftSophia {
		t.Errorf("LinkParams() = %+v, want the link's %+v", got, delftSophia)
	}

	before := runtime.NumGoroutine()
	msg, buf := make([]byte, 1024), make([]byte, 1024)
	start := time.Now()
	allocs := testing.AllocsPerRun(200, func() {
		w.Write(msg)
		io.ReadFull(e, buf)
	})
	if took := time.Since(start); took > delftSophia.RTT {
		t.Errorf("200 write+read pairs took %v at time scale 0", took)
	}
	// None: the pipe's ring grew to the bytes in flight on the first
	// write and runs in place from then on.
	if !testutil.RaceEnabled && allocs != 0 {
		t.Errorf("a Write+Read pair at time scale 0 allocates %v times, want 0", allocs)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("writing at time scale 0 started %d goroutines", after-before)
	}
}
