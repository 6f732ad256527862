// Package multi implements the parallel-streams filtering driver
// (paper Section 4.2).
//
// On high-latency WAN paths a single TCP stream cannot exploit the link
// capacity: its send window is clamped by the operating system and its
// congestion control recovers slowly from losses. Using several TCP
// streams for one logical connection multiplies the aggregate window and
// lets the streams recover from losses independently, which is how
// GridFTP-style transfers approach the capacity of such links.
//
// The driver fragments the outgoing byte stream into numbered fragments
// and stripes them across N lower (sub-)driver instances, each of which
// typically is a TCP_Block driver over its own brokered connection. The
// receiving side reassembles fragments strictly in sequence order, so
// the logical link stays a FIFO byte stream, exactly as the IPL
// requires.
package multi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"netibis/internal/driver"
	"netibis/internal/wire"
)

// Name is the registered driver name.
const Name = "multi"

// DefaultStreams is the number of parallel streams used when the stack
// spec does not name one. The paper's evaluation uses 4 and 8.
const DefaultStreams = 4

// DefaultFragment is the fragment size used to stripe data across the
// streams.
const DefaultFragment = 64 * 1024

// MaxStreams bounds the stream count to keep resource usage sane.
const MaxStreams = 64

// ErrBadFragment fails a link whose peer sent a fragment sequence number
// a second time or one already delivered: a conforming sender numbers
// its fragments 0, 1, 2, … exactly once each.
var ErrBadFragment = errors.New("multi: stale or duplicate fragment sequence number")

func init() {
	driver.Register(Name, buildOutput, buildInput)
}

// buildConcurrently establishes the n sub-streams of a parallel-streams
// link concurrently: each lower() call runs its own brokered
// establishment, and running them one at a time costs WAN-RTT × n setup
// latency, which is exactly what parallel streams are meant to avoid.
// Env.Dial/Accept are documented to be safe for concurrent use.
func buildConcurrently[S any](n int, lower func() (S, error), closer func(S)) ([]S, error) {
	subs := make([]S, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			subs[i], errs[i] = lower()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			continue
		}
		for j, jerr := range errs {
			if jerr == nil {
				closer(subs[j])
			}
		}
		return nil, fmt.Errorf("multi: building sub-stream %d: %w", i, err)
	}
	return subs, nil
}

func buildOutput(spec driver.Spec, _ *driver.Env, lower func() (driver.Output, error)) (driver.Output, error) {
	if lower == nil {
		return nil, errors.New("multi: requires a lower driver (it is a filtering driver)")
	}
	n := spec.IntParam("streams", DefaultStreams)
	frag := spec.IntParam("fragment", DefaultFragment)
	if n < 1 || n > MaxStreams {
		return nil, fmt.Errorf("multi: invalid stream count %d", n)
	}
	subs, err := buildConcurrently(n, lower, func(s driver.Output) { s.Close() })
	if err != nil {
		return nil, err
	}
	return NewOutput(subs, frag), nil
}

func buildInput(spec driver.Spec, _ *driver.Env, lower func() (driver.Input, error)) (driver.Input, error) {
	if lower == nil {
		return nil, errors.New("multi: requires a lower driver (it is a filtering driver)")
	}
	n := spec.IntParam("streams", DefaultStreams)
	if n < 1 || n > MaxStreams {
		return nil, fmt.Errorf("multi: invalid stream count %d", n)
	}
	subs, err := buildConcurrently(n, lower, func(s driver.Input) { s.Close() })
	if err != nil {
		return nil, err
	}
	return NewInput(subs), nil
}

// fragment is one unit of work for a sub-stream's worker: a flush token
// or one unit of striping, which comes in two shapes:
//
//   - pooled: buf holds the fragment header and a copy of the payload in
//     one owned pooled Buf (the path for plain Writes, whose payload the
//     caller may reuse immediately);
//   - aliased: data aliases a caller-owned Buf passed through WriteBuf,
//     and owner carries the reference the worker releases after the
//     write — the payload itself is never copied at this layer.
type fragment struct {
	buf    *wire.Buf // pooled header+payload, or nil for aliased fragments
	hdr    [2 * binary.MaxVarintLen64]byte
	hdrLen int
	data   []byte
	owner  *wire.Buf
	flush  bool // a token: flush the sub-stream
}

// Output is the sending side: it stripes fragments round-robin over the
// sub-outputs, each fed by its own goroutine so that the sub-streams
// genuinely transmit in parallel.
type Output struct {
	subs     []driver.Output
	fragSize int

	mu      sync.Mutex
	nextSeq uint64
	closed  bool
	dirty   []bool // sub-streams with unflushed fragments since last Flush

	queues []chan fragment
	acks   sync.WaitGroup // outstanding fragments not yet written to a sub-output
	wg     sync.WaitGroup // worker goroutines
	errMu  sync.Mutex
	werr   error
}

// NewOutput creates a parallel-streams output over the given sub-outputs.
func NewOutput(subs []driver.Output, fragSize int) *Output {
	if fragSize <= 0 {
		fragSize = DefaultFragment
	}
	o := &Output{
		subs:     subs,
		fragSize: fragSize,
		dirty:    make([]bool, len(subs)),
		queues:   make([]chan fragment, len(subs)),
	}
	for i := range subs {
		o.queues[i] = make(chan fragment, 4)
		o.wg.Add(1)
		go o.worker(i)
	}
	return o
}

// worker drains one sub-stream's queue. It does not flush per fragment:
// the sub-stream aggregates fragments until the application's Flush
// queues a token.
func (o *Output) worker(i int) {
	defer o.wg.Done()
	sub := o.subs[i]
	// Header scratch outside the loop: passing frag.hdr to the Write
	// interface would make every received fragment escape to the heap.
	var hdr [2 * binary.MaxVarintLen64]byte
	for frag := range o.queues[i] {
		var err error
		if frag.flush {
			err = sub.Flush()
		} else if frag.buf != nil {
			// Pooled fragment: header and payload travel down as one
			// owned buffer (zero further copies on a bypassing lower
			// driver).
			err = driver.WriteBuf(sub, frag.buf)
		} else {
			n := copy(hdr[:], frag.hdr[:frag.hdrLen])
			_, err = sub.Write(hdr[:n])
			if err == nil {
				_, err = sub.Write(frag.data)
			}
			frag.owner.Release()
		}
		if err != nil {
			o.errMu.Lock()
			if o.werr == nil {
				o.werr = err
			}
			o.errMu.Unlock()
		}
		o.acks.Done()
	}
}

func (o *Output) workerErr() error {
	o.errMu.Lock()
	defer o.errMu.Unlock()
	return o.werr
}

// Streams returns the number of parallel sub-streams.
func (o *Output) Streams() int { return len(o.subs) }

// appendFragHeader encodes seq and length into the fragment's inline
// header array.
func appendFragHeader(frag *fragment, seq uint64, length int) {
	n := binary.PutUvarint(frag.hdr[:], seq)
	n += binary.PutUvarint(frag.hdr[n:], uint64(length))
	frag.hdrLen = n
}

// Write implements driver.Output: data is cut into fragments and striped
// across the sub-streams. Each fragment is copied once into a pooled
// buffer (the Write contract allows the caller to reuse p immediately);
// from there the fragment travels by ownership transfer.
func (o *Output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return 0, io.ErrClosedPipe
	}
	if err := o.workerErr(); err != nil {
		return 0, err
	}
	total := 0
	for len(p) > 0 {
		n := len(p)
		if n > o.fragSize {
			n = o.fragSize
		}
		seq := o.nextSeq
		o.nextSeq++
		var frag fragment
		appendFragHeader(&frag, seq, n)
		frag.buf = wire.GetBuf(frag.hdrLen + n)
		b := frag.buf.Bytes()
		copy(b, frag.hdr[:frag.hdrLen])
		copy(b[frag.hdrLen:], p[:n])
		o.acks.Add(1)
		q := int(seq) % len(o.queues)
		o.dirty[q] = true
		o.queues[q] <- frag //nolint:netibis-locksafe // o.mu serialises writers so queue order matches seq order; the bounded queue is the intended backpressure and workers drain it even after an error
		p = p[n:]
		total += n
	}
	return total, nil
}

// WriteBuf implements driver.BufWriter: the owned payload is striped
// across the sub-streams without copying — each fragment aliases the
// caller's Buf and holds one reference, released by the worker after the
// fragment has been handed to its sub-stream.
func (o *Output) WriteBuf(b *wire.Buf) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		b.Release()
		return io.ErrClosedPipe
	}
	if err := o.workerErr(); err != nil {
		b.Release()
		return err
	}
	p := b.Bytes()
	if len(p) == 0 {
		b.Release()
		return nil
	}
	frags := (len(p) + o.fragSize - 1) / o.fragSize
	for i := 1; i < frags; i++ {
		b.Retain() // one reference per fragment; the caller's covers the first
	}
	for off := 0; off < len(p); off += o.fragSize {
		end := off + o.fragSize
		if end > len(p) {
			end = len(p)
		}
		seq := o.nextSeq
		o.nextSeq++
		frag := fragment{data: p[off:end], owner: b}
		appendFragHeader(&frag, seq, end-off)
		o.acks.Add(1)
		q := int(seq) % len(o.queues)
		o.dirty[q] = true
		o.queues[q] <- frag //nolint:netibis-locksafe // o.mu serialises writers so queue order matches seq order; the bounded queue is the intended backpressure and workers drain it even after an error
	}
	return nil
}

// Flush implements driver.Output: every sub-stream that received
// fragments since the last flush gets a flush token queued behind them,
// so its worker — a long-lived goroutine, writing in parallel with the
// others — flushes as soon as it has written its share (a sequential
// flush would serialise one blocking network round per stream). Flush
// returns when every fragment and token has been served.
func (o *Output) Flush() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return io.ErrClosedPipe
	}
	for i, d := range o.dirty {
		if d {
			o.dirty[i] = false
			o.acks.Add(1)
			o.queues[i] <- fragment{flush: true} //nolint:netibis-locksafe // as in Write: o.mu keeps the token behind this flush's fragments and the workers always drain
		}
	}
	o.acks.Wait()
	return o.workerErr()
}

// Close flushes, stops the workers and closes all sub-streams.
func (o *Output) Close() error {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return nil
	}
	o.closed = true
	o.acks.Wait()
	for _, q := range o.queues {
		close(q)
	}
	o.mu.Unlock()
	o.wg.Wait()
	var first error
	for _, s := range o.subs {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	if first == nil {
		first = o.workerErr()
	}
	return first
}

// maxPending bounds the bytes of the fragments waiting in the reassembly
// window for an earlier one: one whole message (wire.MaxFrameLen, which
// ipl.MaxMessageLen equals). Only tests lower it.
var maxPending = wire.MaxFrameLen

// Input is the receiving side: per-sub-stream readers push fragments
// into a reassembly window; Read delivers bytes strictly in sequence
// order.
type Input struct {
	subs []driver.Input

	mu           sync.Mutex
	cond         *sync.Cond
	pending      map[uint64]*wire.Buf
	pendingBytes int
	stalled      int // readers waiting for room in the window
	nextSeq      uint64
	current      driver.BufCursor
	eofs         int
	err          error
	closed       bool
	wg           sync.WaitGroup
}

// NewInput creates a parallel-streams input over the given sub-inputs.
func NewInput(subs []driver.Input) *Input {
	in := &Input{subs: subs, pending: make(map[uint64]*wire.Buf)}
	in.cond = sync.NewCond(&in.mu)
	for i := range subs {
		in.wg.Add(1)
		go in.reader(i)
	}
	return in
}

// reader pulls fragments off one sub-stream into pooled buffers.
func (in *Input) reader(i int) {
	defer in.wg.Done()
	sub := in.subs[i]
	br := wire.NewUvarintReader(sub)
	for {
		seq, err := br.ReadUvarint()
		if err != nil {
			in.finish(err)
			return
		}
		length, err := br.ReadUvarint()
		if err != nil {
			in.finish(io.ErrUnexpectedEOF)
			return
		}
		if length > uint64(wire.MaxFrameLen) {
			in.finish(errors.New("multi: fragment exceeds maximum length"))
			return
		}
		data := wire.GetBuf(int(length))
		if _, err := io.ReadFull(sub, data.Bytes()); err != nil {
			data.Release()
			in.finish(io.ErrUnexpectedEOF)
			return
		}
		in.mu.Lock()
		// A fragment ahead of the one Read needs next waits while the
		// window is full. A sub-stream carries its fragments in sequence
		// order, so the reader of the one Read needs is never the one
		// waiting; only a peer that skips numbers leaves everyone waiting,
		// and Close still ends that.
		for seq > in.nextSeq && in.pendingBytes+data.Len() > maxPending && !in.closed && in.err == nil {
			in.stalled++
			in.cond.Wait()
			in.stalled--
		}
		if in.closed {
			in.mu.Unlock()
			data.Release()
			return
		}
		if _, dup := in.pending[seq]; dup || seq < in.nextSeq {
			in.mu.Unlock()
			data.Release()
			in.finish(ErrBadFragment)
			return
		}
		in.pending[seq] = data
		in.pendingBytes += data.Len()
		// Only the arrival of the next in-order fragment can unblock a
		// Read: it waits for pending[nextSeq] and drains any later
		// fragments from the map without sleeping again. Waking on every
		// out-of-order arrival would make each delivered fragment cost up
		// to streams-1 futile wakeups of the reading goroutine.
		if seq == in.nextSeq {
			in.cond.Broadcast()
		}
		in.mu.Unlock()
	}
}

// finish records a sub-stream's termination. A clean EOF on every
// sub-stream turns into EOF for the logical link; anything else is an
// error.
func (in *Input) finish(err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if err == io.EOF {
		in.eofs++
	} else if in.err == nil && err != nil {
		in.err = err
	}
	in.cond.Broadcast()
}

// Read implements driver.Input.
func (in *Input) Read(p []byte) (int, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for {
		if in.current.Loaded() {
			return in.current.Copy(p), nil
		}
		if data, ok := in.pending[in.nextSeq]; ok {
			delete(in.pending, in.nextSeq)
			in.pendingBytes -= data.Len()
			in.nextSeq++
			if in.stalled > 0 {
				in.cond.Broadcast() // room in the window
			}
			in.current.Load(data) // empty fragments are released and skipped
			continue
		}
		if in.err != nil {
			return 0, in.err
		}
		if in.closed {
			return 0, io.ErrClosedPipe
		}
		if in.eofs == len(in.subs) {
			if len(in.pending) > 0 {
				// Every sub-stream ended cleanly and fragment nextSeq
				// never came: one was cut at a block boundary.
				return 0, io.ErrUnexpectedEOF
			}
			return 0, io.EOF
		}
		in.cond.Wait()
	}
}

// Close stops the readers and closes all sub-streams.
func (in *Input) Close() error {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return nil
	}
	in.closed = true
	in.cond.Broadcast()
	in.mu.Unlock()
	var first error
	for _, s := range in.subs {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	in.wg.Wait()
	// All readers have exited; recycle whatever never got delivered.
	in.mu.Lock()
	for seq, b := range in.pending {
		delete(in.pending, seq)
		b.Release()
	}
	in.pendingBytes = 0
	in.current.Drop()
	in.mu.Unlock()
	return first
}
