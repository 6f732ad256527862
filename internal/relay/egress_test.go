package relay

// Egress batching and scheduler-fairness tests. These run the real
// writer goroutine against scriptable connections (blockable, erroring)
// so the batch boundaries, the mid-batch backpressure behaviour and the
// abort path are exercised exactly as on a live destination — run them
// with -race.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netibis/internal/obs"
	"netibis/internal/testutil"
	"netibis/internal/wire"
)

// scriptConn is a net.Conn stub for egress tests: written bytes
// accumulate in a buffer for later frame-level parsing, the gate (when
// armed) parks Write until released, and failAfter makes the Nth
// successful Write call and everything after it return an error.
type scriptConn struct {
	mu        sync.Mutex
	buf       bytes.Buffer
	gate      chan struct{}
	writes    int
	failAfter int // error once this many Write calls succeeded; <0 never
	closed    atomic.Bool
}

var errScriptConn = errors.New("scriptConn: scripted write failure")

func newScriptConn() *scriptConn { return &scriptConn{failAfter: -1} }

// hold arms the gate: Writes park until release is called.
func (c *scriptConn) hold() {
	c.mu.Lock()
	c.gate = make(chan struct{})
	c.mu.Unlock()
}

func (c *scriptConn) release() {
	c.mu.Lock()
	if c.gate != nil {
		close(c.gate)
		c.gate = nil
	}
	c.mu.Unlock()
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	gate := c.gate
	c.mu.Unlock()
	if gate != nil {
		<-gate
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failAfter >= 0 && c.writes >= c.failAfter {
		return 0, errScriptConn
	}
	c.writes++
	c.buf.Write(p)
	return len(p), nil
}

// frames parses everything written so far.
func (c *scriptConn) frames(t *testing.T) []wire.Frame {
	t.Helper()
	c.mu.Lock()
	data := append([]byte(nil), c.buf.Bytes()...)
	c.mu.Unlock()
	var out []wire.Frame
	r := wire.NewReader(bytes.NewReader(data))
	for {
		f, err := r.ReadFrame()
		if err != nil {
			return out
		}
		out = append(out, f)
	}
}

func (c *scriptConn) Read([]byte) (int, error)         { select {} }
func (c *scriptConn) Close() error                     { c.closed.Store(true); c.release(); return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return routedAddr{id: "script"} }
func (c *scriptConn) RemoteAddr() net.Addr             { return routedAddr{id: "script"} }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// seqPayload tags a frame with its source and per-source sequence number
// so emitted streams can be checked for per-link FIFO order.
func seqPayload(src byte, seq uint32) []byte {
	p := make([]byte, 5)
	p[0] = src
	binary.BigEndian.PutUint32(p[1:], seq)
	return p
}

// TestEgressCompactPreservesOrderAndCursor is the regression test for
// the compaction fairness bug: reclaiming idle sources used to rebuild
// the round-robin ring in nondeterministic map order and snap the cursor
// back to slot 0. Compaction must keep the survivors in their previous
// relative order with the cursor still pointing at the source that was
// due next.
func TestEgressCompactPreservesOrderAndCursor(t *testing.T) {
	// Handle the lock and state directly — no writer goroutine, so the
	// pre-compaction shape is exactly what the test laid out.
	e := &Egress{sources: make(map[string]*egressSource)}
	e.cond = sync.NewCond(&e.mu)
	add := func(id string, queued int) *egressSource {
		q := &egressSource{id: id, entries: make([]egressEntry, DefaultEgressQueueFrames)}
		for i := 0; i < queued; i++ {
			q.push(KindData, nil, nil, nil)
			e.pending++
		}
		e.sources[id] = q
		e.order = append(e.order, q)
		return q
	}
	add("a", 0)
	b := add("b", 2)
	add("c", 0)
	d := add("d", 1)
	add("e", 0)
	e.empties = 3
	// Cursor past b: the next source due is d (first non-empty at or
	// after the cursor), and after d the rotation must come back to b.
	e.next = 2

	e.mu.Lock()
	e.compactLocked()
	if got, want := len(e.order), 2; got != want {
		t.Fatalf("%d sources survive compaction, want %d", got, want)
	}
	if e.order[0] != b || e.order[1] != d {
		t.Fatalf("survivor order = [%s %s], want [b d] (previous relative order)", e.order[0].id, e.order[1].id)
	}
	if picked := e.pickLocked(); picked != d {
		t.Fatalf("first source served after compaction = %s, want d (the cursor's successor)", picked.id)
	}
	if picked := e.pickLocked(); picked != b {
		t.Fatalf("second source served after compaction = %s, want b", picked.id)
	}
	e.mu.Unlock()
}

// TestEgressFairnessAcrossCompaction drives the full scheduler through a
// compaction while two long-lived sources keep frames queued, and checks
// the emitted stream stays strictly alternating between them — the
// end-to-end fairness property the cursor/order fix protects.
func TestEgressFairnessAcrossCompaction(t *testing.T) {
	defer testutil.LeakCheck(t, 0)()
	conn := newScriptConn()
	conn.hold()
	eg := NewEgress(conn, wire.NewWriter(conn), nil)
	defer eg.Close()
	// One sacrificial frame occupies the writer (parked in the held
	// Write) so everything below queues up behind it deterministically.
	if err := eg.Enqueue("warmup", KindData, nil, seqPayload('w', 0), nil); err != nil {
		t.Fatal(err)
	}
	if why := testutil.Settle(func() (bool, string) {
		return eg.Backlog() == 0, "writer did not pick up the warmup frame"
	}); why != "" {
		t.Fatal(why)
	}

	// Churn enough one-shot sources to push the empty count over the
	// compaction threshold once they drain, with the two persistent
	// sources' frames interleaved among them.
	const churn = egressCompactThreshold + 4
	for i := 0; i < churn; i++ {
		if err := eg.Enqueue(fmt.Sprintf("churn-%d", i), KindShut, nil, []byte{0}, nil); err != nil {
			t.Fatal(err)
		}
	}
	const perSource = 6
	for i := uint32(0); i < perSource; i++ {
		if err := eg.Enqueue("left", KindData, nil, seqPayload('L', i), nil); err != nil {
			t.Fatal(err)
		}
		if err := eg.Enqueue("right", KindData, nil, seqPayload('R', i), nil); err != nil {
			t.Fatal(err)
		}
	}
	conn.release()
	if why := testutil.Settle(func() (bool, string) {
		return eg.Backlog() == 0, fmt.Sprintf("backlog %d", eg.Backlog())
	}); why != "" {
		t.Fatal(why)
	}

	var order []byte
	var seqs = map[byte]uint32{}
	for _, f := range conn.frames(t) {
		if f.Kind != KindData || len(f.Payload) != 5 || f.Payload[0] == 'w' {
			continue
		}
		src := f.Payload[0]
		if seq := binary.BigEndian.Uint32(f.Payload[1:]); seq != seqs[src] {
			t.Fatalf("source %c emitted seq %d, want %d (per-link FIFO broken)", src, seq, seqs[src])
		}
		seqs[src]++
		order = append(order, src)
	}
	if len(order) != 2*perSource {
		t.Fatalf("parsed %d tagged frames, want %d", len(order), 2*perSource)
	}
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			t.Fatalf("emission order %q serves %c twice in a row: round-robin fairness lost (compaction reset?)", order, order[i])
		}
	}
}

// TestEgressBatchPreservesPerLinkOrder queues bursts from two sources
// spanning several batch budgets and checks every source's frames leave
// in FIFO order across the batch boundaries — and that batching actually
// happened (fewer vectored writes than frames, observed through the
// frames-per-write histogram).
func TestEgressBatchPreservesPerLinkOrder(t *testing.T) {
	defer testutil.LeakCheck(t, 0)()
	conn := newScriptConn()
	conn.hold()
	hist := obs.NewHistogram([]float64{1, 2, 4, 8, 16, 32})
	eg := NewEgress(conn, wire.NewWriter(conn), hist)
	defer eg.Close()

	if err := eg.Enqueue("warmup", KindData, nil, seqPayload('w', 0), nil); err != nil {
		t.Fatal(err)
	}
	if why := testutil.Settle(func() (bool, string) {
		return eg.Backlog() == 0, "writer did not pick up the warmup frame"
	}); why != "" {
		t.Fatal(why)
	}
	// Each source fills its queue: four batch budgets' worth of frames.
	const perSource = DefaultEgressQueueFrames
	for i := uint32(0); i < perSource; i++ {
		if err := eg.Enqueue("a", KindData, nil, seqPayload('A', i), nil); err != nil {
			t.Fatal(err)
		}
		if err := eg.Enqueue("b", KindData, nil, seqPayload('B', i), nil); err != nil {
			t.Fatal(err)
		}
	}
	conn.release()
	if why := testutil.Settle(func() (bool, string) {
		return eg.Backlog() == 0, fmt.Sprintf("backlog %d", eg.Backlog())
	}); why != "" {
		t.Fatal(why)
	}

	seqs := map[byte]uint32{}
	tagged := 0
	for _, f := range conn.frames(t) {
		if f.Kind != KindData || len(f.Payload) != 5 || f.Payload[0] == 'w' {
			continue
		}
		src := f.Payload[0]
		if seq := binary.BigEndian.Uint32(f.Payload[1:]); seq != seqs[src] {
			t.Fatalf("source %c emitted seq %d, want %d (order broken across batch boundary)", src, seq, seqs[src])
		}
		seqs[src]++
		tagged++
	}
	if tagged != 2*perSource {
		t.Fatalf("parsed %d tagged frames, want %d", tagged, 2*perSource)
	}
	// The warmup's write, then the burst cut by the production budget:
	// at least one write per budget, and far fewer than one per frame.
	writes, frames := hist.Count(), int64(hist.Sum())
	if frames < 2*perSource {
		t.Fatalf("histogram saw %d frames, want >= %d", frames, 2*perSource)
	}
	if least := 1 + 2*perSource/DefaultEgressBatchFrames; writes < int64(least) || writes >= frames {
		t.Fatalf("%d writes for %d frames: want at least %d (the budget cuts the burst) and fewer than one per frame", writes, frames, least)
	}
}

// TestEgressStalledDestinationIsolatesSource: with the writer parked
// mid-batch in a stalled destination's Write, a source that filled its
// own queue blocks — and only that source; an innocent source keeps
// enqueueing without waiting.
func TestEgressStalledDestinationIsolatesSource(t *testing.T) {
	defer testutil.LeakCheck(t, 0)()
	conn := newScriptConn()
	conn.hold()
	const limit = DefaultEgressQueueFrames
	eg := NewEgress(conn, wire.NewWriter(conn), nil)
	defer eg.Close()

	// Wedge the writer mid-batch, then fill the offender's ring.
	if err := eg.Enqueue("offender", KindData, nil, []byte("stuck"), nil); err != nil {
		t.Fatal(err)
	}
	if why := testutil.Settle(func() (bool, string) {
		return eg.Backlog() == 0, "writer did not pick up the wedge frame"
	}); why != "" {
		t.Fatal(why)
	}
	for i := 0; i < limit; i++ {
		if err := eg.Enqueue("offender", KindData, nil, []byte("fill"), nil); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error, 1)
	go func() { blocked <- eg.Enqueue("offender", KindData, nil, []byte("overflow"), nil) }()
	select {
	case err := <-blocked:
		t.Fatalf("enqueue past a full ring returned early (err=%v), want it to block", err)
	case <-time.After(50 * time.Millisecond):
	}

	// The innocent source must get through promptly despite the stall.
	done := make(chan error, 1)
	go func() { done <- eg.Enqueue("innocent", KindData, nil, []byte("prompt"), nil) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("innocent enqueue = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("innocent source's enqueue blocked behind another source's full queue")
	}

	conn.release()
	if err := <-blocked; err != nil {
		t.Fatalf("blocked enqueue after drain = %v", err)
	}
	if why := testutil.Settle(func() (bool, string) {
		return eg.Backlog() == 0, fmt.Sprintf("backlog %d", eg.Backlog())
	}); why != "" {
		t.Fatal(why)
	}
}

// TestEgressAbortedBatchReleasesOwnersOnce: when the vectored write
// fails mid-batch, the owner Buf of every frame — the ones in the
// aborted batch and the ones still queued behind it — is released
// exactly once. The test keeps its own reference on each Buf, so a
// settled refcount of exactly 1 proves the egress released its reference
// and never double-released (a double release would panic the writer).
func TestEgressAbortedBatchReleasesOwnersOnce(t *testing.T) {
	defer testutil.LeakCheck(t, 0)()
	conn := newScriptConn()
	conn.hold()
	eg := NewEgress(conn, wire.NewWriter(conn), nil)
	defer eg.Close()

	// Wedge the writer on a throwaway frame, then queue owned frames
	// behind it so the next collect drains them as one multi-frame batch.
	if err := eg.Enqueue("src", KindData, nil, []byte("wedge"), nil); err != nil {
		t.Fatal(err)
	}
	if why := testutil.Settle(func() (bool, string) {
		return eg.Backlog() == 0, "writer did not pick up the wedge frame"
	}); why != "" {
		t.Fatal(why)
	}
	const frames = 8
	owners := make([]*wire.Buf, frames)
	for i := range owners {
		b := wire.GetBuf(4096)
		b.Retain() // the egress's reference; ours keeps the Buf observable
		owners[i] = b
		if err := eg.Enqueue("src", KindData, nil, b.Bytes(), b); err != nil {
			t.Fatal(err)
		}
	}
	// Every Write from here on fails: the wedged write aborts, and so
	// does the batch the writer collects next (if it gets that far
	// before shutdown) — either path must release each owner once.
	conn.mu.Lock()
	conn.failAfter = 0
	conn.mu.Unlock()
	conn.release()

	if why := testutil.Settle(func() (bool, string) {
		for i, b := range owners {
			if refs := b.Refs(); refs != 1 {
				return false, fmt.Sprintf("owner %d has %d refs, want 1 (egress reference not released exactly once)", i, refs)
			}
		}
		return true, ""
	}); why != "" {
		t.Fatal(why)
	}
	if !conn.closed.Load() {
		t.Fatal("egress did not close the connection after the write error")
	}
	if err := eg.Enqueue("src", KindData, nil, []byte("late"), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after write failure = %v, want ErrClosed", err)
	}
	for _, b := range owners {
		b.Release()
	}
}

// BenchmarkEgressEnqueueContended measures the enqueue fast path with
// many concurrent sources against a fast destination — the path the
// broadcast-storm fix (signal only on idle->busy and freed-full-queue
// transitions) is about. Run with -benchtime and compare against a build
// that broadcasts unconditionally to see the herd cost.
func BenchmarkEgressEnqueueContended(b *testing.B) {
	conn := &aliasConn{} // discards writes: the cost measured is the scheduler's
	eg := NewEgress(conn, wire.NewWriter(conn), nil)
	defer eg.Close()
	payload := bytes.Repeat([]byte{0x42}, 512)
	var srcID atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		src := fmt.Sprintf("src-%d", srcID.Add(1))
		for pb.Next() {
			if err := eg.Enqueue(src, KindData, nil, payload, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
