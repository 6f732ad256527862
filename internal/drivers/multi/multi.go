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
// and stripes them round-robin across N lower (sub-)driver instances,
// each of which typically is a TCP_Block driver over its own brokered
// connection. Every sub-stream starts with its stream index, so the
// receiving side knows which fragments each one carries and reads them
// strictly in sequence order, each straight into the caller's slice: the
// logical link stays a FIFO byte stream, exactly as the IPL requires.
package multi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

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

var (
	// ErrBadFragment fails a link whose peer sent a fragment out of
	// sequence: a conforming sender numbers its fragments 0, 1, 2, …
	// and puts fragment s on sub-stream s mod n.
	ErrBadFragment = errors.New("multi: fragment out of sequence")
	// ErrBadStreamIndex fails the build of a link one of whose
	// sub-streams starts with an index out of range or already taken.
	ErrBadStreamIndex = errors.New("multi: duplicate or out-of-range stream index")
)

func init() {
	driver.Register(Name, buildOutput, buildInput)
}

// buildSubStreams establishes the sub-streams of a parallel-streams link
// concurrently: each lower() call runs its own brokered establishment,
// and running them one at a time costs WAN-RTT × n setup latency, which
// is exactly what parallel streams are meant to avoid. Env.Dial/Accept
// are documented to be safe for concurrent use. The same goroutine then
// runs index on its sub-stream — the sending side writes the stream's
// index, the receiving side reads it — and the sub-stream takes the
// place index returns. The exchanges run concurrently too: on an
// unbuffered conn a write waits for its reader, and the two sides pair
// their sub-streams in any order.
func buildSubStreams[S io.Closer](spec driver.Spec, lower func() (S, error), index func(i int, s S) (int, error)) ([]S, error) {
	if lower == nil {
		return nil, errors.New("multi: requires a lower driver (it is a filtering driver)")
	}
	n := spec.IntParam("streams", DefaultStreams)
	if n < 1 || n > MaxStreams {
		return nil, fmt.Errorf("multi: invalid stream count %d", n)
	}
	built := make([]S, n)
	ok := make([]bool, n)
	at := make([]int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if built[i], errs[i] = lower(); errs[i] == nil {
				ok[i] = true
				at[i], errs[i] = index(i, built[i])
			}
		}()
	}
	wg.Wait()
	subs := make([]S, n)
	placed := make([]bool, n)
	var err error
	for i := 0; i < n && err == nil; i++ {
		switch {
		case errs[i] != nil:
			err = fmt.Errorf("multi: building sub-stream %d: %w", i, errs[i])
		case at[i] >= n || placed[at[i]]:
			err = fmt.Errorf("multi: sub-stream %d: index %d: %w", i, at[i], ErrBadStreamIndex)
		default:
			placed[at[i]] = true
			subs[at[i]] = built[i]
		}
	}
	if err != nil {
		for i, s := range built {
			if ok[i] {
				s.Close()
			}
		}
		return nil, err
	}
	return subs, nil
}

// writeIndex starts sub-stream i with its index.
func writeIndex(i int, out driver.Output) (int, error) {
	if _, err := out.Write(binary.AppendUvarint(nil, uint64(i))); err != nil {
		return i, err
	}
	return i, out.Flush()
}

// readIndex reads the index a sub-stream starts with.
func readIndex(_ int, in driver.Input) (int, error) {
	v, err := wire.NewUvarintReader(in).ReadUvarint()
	return int(min(v, MaxStreams)), err
}

func buildOutput(spec driver.Spec, _ *driver.Env, lower func() (driver.Output, error)) (driver.Output, error) {
	subs, err := buildSubStreams(spec, lower, writeIndex)
	if err != nil {
		return nil, err
	}
	return NewOutput(subs, spec.IntParam("fragment", DefaultFragment)), nil
}

func buildInput(spec driver.Spec, _ *driver.Env, lower func() (driver.Input, error)) (driver.Input, error) {
	subs, err := buildSubStreams(spec, lower, readIndex)
	if err != nil {
		return nil, err
	}
	return NewInput(subs), nil
}

// fragment is one unit of striping: its header and the payload that
// header announces, which aliases the caller's bytes — a Write's, which
// that Write waits out, or a WriteBuf's Buf, whose reference owner
// carries until the worker has handed the fragment down.
type fragment struct {
	hdr    [2 * binary.MaxVarintLen64]byte
	hdrLen int
	data   []byte
	owner  *wire.Buf // nil for a Write's fragments
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

	queues []chan fragment
	acks   sync.WaitGroup // fragments not yet handed to their sub-stream
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
		queues:   make([]chan fragment, len(subs)),
	}
	for i := range subs {
		o.queues[i] = make(chan fragment, 4)
		o.wg.Add(1)
		go o.worker(i)
	}
	return o
}

// worker hands one sub-stream its fragments: header, payload, flush, so
// no fragment waits below for a later one or for Flush. Once its queue
// is closed it closes the sub-stream, concurrently with the others: a
// sub-stream's close may wait for the peer to read up to it, and the
// peer reads the sub-streams in sequence order, not one after another.
func (o *Output) worker(i int) {
	defer o.wg.Done()
	sub := o.subs[i]
	// Header scratch outside the loop: passing frag.hdr to the Write
	// interface would make every received fragment escape to the heap.
	var hdr [2 * binary.MaxVarintLen64]byte
	for frag := range o.queues[i] {
		n := copy(hdr[:], frag.hdr[:frag.hdrLen])
		_, err := sub.Write(hdr[:n])
		if err == nil {
			_, err = sub.Write(frag.data)
		}
		if err == nil {
			err = sub.Flush()
		}
		if frag.owner != nil {
			frag.owner.Release()
		}
		o.fail(err)
		o.acks.Done()
	}
	o.fail(sub.Close())
}

// fail records the first error of any worker.
func (o *Output) fail(err error) {
	if err == nil {
		return
	}
	o.errMu.Lock()
	if o.werr == nil {
		o.werr = err
	}
	o.errMu.Unlock()
}

func (o *Output) workerErr() error {
	o.errMu.Lock()
	defer o.errMu.Unlock()
	return o.werr
}

// usable reports why the output takes no more data, if it does not.
// Called under o.mu.
func (o *Output) usable() error {
	if o.closed {
		return io.ErrClosedPipe
	}
	return o.workerErr()
}

// Streams returns the number of parallel sub-streams.
func (o *Output) Streams() int { return len(o.subs) }

// stripe cuts p into fragments that alias it and queues them
// round-robin; owner, when set, holds one reference per fragment. Called
// under o.mu, which keeps every queue in sequence order.
func (o *Output) stripe(p []byte, owner *wire.Buf) {
	for len(p) > 0 {
		n := min(len(p), o.fragSize)
		frag := fragment{data: p[:n], owner: owner}
		frag.hdrLen = binary.PutUvarint(frag.hdr[:], o.nextSeq)
		frag.hdrLen += binary.PutUvarint(frag.hdr[frag.hdrLen:], uint64(n))
		o.acks.Add(1)
		o.queues[o.nextSeq%uint64(len(o.queues))] <- frag //nolint:netibis-locksafe // o.mu serialises writers so queue order matches seq order; the bounded queue is the intended backpressure and workers drain it even after an error
		o.nextSeq++
		p = p[n:]
	}
}

// Write implements driver.Output: p is cut into fragments that alias it
// and striped across the sub-streams, and Write returns once every one
// of them has been handed to its sub-stream. The io.Writer contract lets
// the caller reuse p from then on, and nothing here has copied it.
func (o *Output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := o.usable(); err != nil {
		return 0, err
	}
	o.stripe(p, nil)
	o.acks.Wait()
	if err := o.workerErr(); err != nil {
		return 0, err
	}
	return len(p), nil
}

// WriteBuf implements driver.BufWriter: the owned payload is striped
// across the sub-streams without waiting for them — each fragment holds
// one reference to the caller's Buf, released by the worker after the
// fragment has been handed to its sub-stream.
func (o *Output) WriteBuf(b *wire.Buf) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := o.usable(); err != nil || b.Len() == 0 {
		b.Release()
		return err
	}
	for range (b.Len() - 1) / o.fragSize {
		b.Retain() // one reference per fragment; the caller's covers the first
	}
	o.stripe(b.Bytes(), b)
	return nil
}

// Flush implements driver.Output. Each worker flushes its sub-stream
// behind every fragment, so Flush only waits for the fragments of
// earlier WriteBufs still on their way.
func (o *Output) Flush() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return io.ErrClosedPipe
	}
	o.acks.Wait()
	return o.workerErr()
}

// Close stops the workers, each of which closes its sub-stream behind
// the last fragment queued for it.
func (o *Output) Close() error {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return nil
	}
	o.closed = true
	for _, q := range o.queues {
		close(q)
	}
	o.mu.Unlock()
	o.wg.Wait()
	return o.workerErr()
}

// Input is the receiving side. Sub-stream i carries fragments i, i+n,
// i+2n, … in that order, so Read reassembles nothing: it reads fragment
// nextSeq's header off sub-stream nextSeq mod n and its payload from
// there straight into the caller's slice. Bytes Read does not need yet
// wait in their sub-stream's transport buffer, which flow control
// bounds; the Input itself holds none.
type Input struct {
	subs []driver.Input
	hdrs []*wire.UvarintReader // fragment headers, one reader per sub-stream

	mu      sync.Mutex
	nextSeq uint64
	left    int   // payload bytes of fragment nextSeq-1 not yet read
	err     error // sticky: the end or failure of the link
	closed  atomic.Bool
}

// NewInput creates a parallel-streams input over the given sub-inputs,
// sub-stream i carrying fragments i, i+n, i+2n, …
func NewInput(subs []driver.Input) *Input {
	in := &Input{subs: subs, hdrs: make([]*wire.UvarintReader, len(subs))}
	for i, s := range subs {
		in.hdrs[i] = wire.NewUvarintReader(s)
	}
	return in
}

// Read implements driver.Input. A fragment longer than p carries over to
// the next Read.
func (in *Input) Read(p []byte) (int, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	n, err := 0, in.err
	if in.closed.Load() {
		err = io.ErrClosedPipe
	}
	for err == nil && in.left == 0 && len(p) > 0 {
		err = in.next()
	}
	if err == nil && len(p) > 0 {
		n, err = in.subs[(in.nextSeq-1)%uint64(len(in.subs))].Read(p[:min(len(p), in.left)])
		in.left -= n
		if err == io.EOF {
			err = nil
			if in.left > 0 {
				err = io.ErrUnexpectedEOF
			}
		}
	}
	if err != nil && in.closed.Load() {
		err = io.ErrClosedPipe // whatever a sub-stream said as it was closed
	}
	in.err = err
	return n, err
}

// next reads the header of fragment nextSeq off its sub-stream.
func (in *Input) next() error {
	i := int(in.nextSeq % uint64(len(in.subs)))
	seq, err := in.hdrs[i].ReadUvarint()
	if err == io.EOF {
		return in.end(i)
	}
	if err != nil {
		return err
	}
	if seq != in.nextSeq {
		return ErrBadFragment
	}
	length, err := in.hdrs[i].ReadUvarint()
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return err
	}
	if length > wire.MaxFrameLen {
		return wire.ErrFrameTooLarge
	}
	in.nextSeq++
	in.left = int(length)
	return nil
}

// end handles a clean end of sub-stream ended where fragment nextSeq
// would start. The link ends there only if every other sub-stream ends
// too: a fragment still on one lies past the gap the ended one left.
func (in *Input) end(ended int) error {
	for i, h := range in.hdrs {
		if i == ended {
			continue
		}
		if _, err := h.ReadUvarint(); err != io.EOF {
			return io.ErrUnexpectedEOF
		}
	}
	return io.EOF
}

// Close closes all sub-streams; a Read parked in one returns
// io.ErrClosedPipe.
func (in *Input) Close() error {
	if in.closed.Swap(true) {
		return nil
	}
	var first error
	for _, s := range in.subs {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
