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
//
// Wire format, per sub-stream:
//
//	index[1]                                   once, the sub-stream's index
//	{ seq[8 big-endian] len[4 big-endian] payload[len] }*   fragments
//
// The header is fixed-width, so the reader takes it with one read of
// twelve bytes off its sub-stream — which a block layer below fills
// straight from the header's own block — and reads nothing past it: the
// Input holds no bytes, and reads no sub-stream ahead.
package multi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"

	"netibis/internal/driver"
	"netibis/internal/wire"
)

// headerSize is a fragment header: its sequence number and its payload
// length.
const headerSize = 8 + 4

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

// Streams is the one reading of spec's stream count, for both builders
// and core's establishments: a canonical decimal from 1 to MaxStreams.
func Streams(spec driver.Spec) (int, error) {
	if err := driver.CheckParams(spec, "streams"); err != nil {
		return 0, err
	}
	v := spec.Param("streams", strconv.Itoa(DefaultStreams))
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 || n > MaxStreams || strconv.Itoa(n) != v {
		return 0, fmt.Errorf("%w: multi:streams=%s is not a count from 1 to %d", driver.ErrBadParam, v, MaxStreams)
	}
	return n, nil
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
	n, err := Streams(spec)
	if err != nil {
		return nil, err
	}
	if lower == nil {
		return nil, errors.New("multi: requires a lower driver (it is a filtering driver)")
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

// writeIndex starts sub-stream i with its index, one byte (MaxStreams
// is below 256).
func writeIndex(i int, out driver.Output) (int, error) {
	if _, err := out.Write([]byte{byte(i)}); err != nil {
		return i, err
	}
	return i, out.Flush()
}

// readIndex reads the index a sub-stream starts with.
func readIndex(_ int, in driver.Input) (int, error) {
	var index [1]byte
	_, err := io.ReadFull(in, index[:])
	return int(index[0]), err
}

func buildOutput(spec driver.Spec, _ *driver.Env, lower func() (driver.Output, error)) (driver.Output, error) {
	subs, err := buildSubStreams(spec, lower, writeIndex)
	if err != nil {
		return nil, err
	}
	return NewOutput(subs, DefaultFragment), nil
}

func buildInput(spec driver.Spec, _ *driver.Env, lower func() (driver.Input, error)) (driver.Input, error) {
	subs, err := buildSubStreams(spec, lower, readIndex)
	if err != nil {
		return nil, err
	}
	return NewInput(subs), nil
}

// maxLead is the longest Write the output holds back to ride at the
// front of the next one's first fragment: wire's small-frame size, up to
// which a block layer below carries a frame's head in the arena of its
// vectored write, so the lead costs the sub-stream no write of its own.
const maxLead = 64

// fragment is one unit of striping: its header and the payload that
// header announces, lead ‖ data. data aliases the caller's bytes — a
// Write's, which that Write waits out, or a WriteBuf's Buf, whose
// reference owner carries until the worker has handed the fragment down
// — and lead the output's copy of a held Write, which every call that
// stripes it waits out.
type fragment struct {
	hdr   [headerSize]byte
	lead  []byte
	data  []byte
	owner *wire.Buf // nil for a Write's fragments
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
	lead    [maxLead]byte // lead[:leadLen] is a held short Write, not yet striped
	leadLen int

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
// no fragment waits below for a later one or for Flush. The header goes
// down as a unit (WriteBuf), so a block layer below never carries it in
// the payload's block: the peer reads the header alone and the payload
// straight into its slice. Once its queue is closed it closes the
// sub-stream, concurrently with the others: a sub-stream's close may
// wait for the peer to read up to it, and the peer reads the
// sub-streams in sequence order, not one after another.
func (o *Output) worker(i int) {
	defer o.wg.Done()
	sub := o.subs[i]
	var hdr unitBuf
	for frag := range o.queues[i] {
		err := hdr.write(sub, frag.hdr[:])
		if err == nil && len(frag.lead) > 0 {
			_, err = sub.Write(frag.lead)
		}
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
	hdr.release()
	o.fail(sub.Close())
}

// unitBuf is a worker's buffer for the fragment headers it hands its
// sub-stream as units: one pooled buffer serves every fragment, not one
// per fragment.
type unitBuf struct{ b *wire.Buf }

// write hands sub a copy of p as a unit (WriteBuf). The worker keeps its
// own reference across the call and takes a fresh buffer only when sub
// still holds the last one.
func (u *unitBuf) write(sub driver.Output, p []byte) error {
	if u.b != nil && u.b.Refs() > 1 {
		u.b.Release()
		u.b = nil
	}
	if u.b == nil {
		u.b = wire.GetBuf(len(fragment{}.hdr))
	}
	u.b.SetLen(len(p))
	copy(u.b.Bytes(), p)
	u.b.Retain()
	return driver.WriteBuf(sub, u.b)
}

// release drops the worker's reference.
func (u *unitBuf) release() {
	if u.b != nil {
		u.b.Release()
	}
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
// round-robin; owner, when set, holds one reference per fragment. A held
// lead goes first: at the front of a Write's first fragment, cut so the
// two fill exactly one fragment, when p fills it, otherwise as a fragment
// of its own. So a short Write and a long one behind it are cut as one
// Write of their bytes would be. Called under o.mu, which keeps every
// queue in sequence order.
func (o *Output) stripe(p []byte, owner *wire.Buf) {
	if o.leadLen > 0 {
		lead := o.lead[:o.leadLen]
		o.leadLen = 0
		frag := fragment{data: lead}
		if owner == nil && len(lead) < o.fragSize && len(lead)+len(p) >= o.fragSize {
			n := o.fragSize - len(lead)
			frag.lead, frag.data = lead, p[:n]
			p = p[n:]
		}
		o.queue(frag)
	}
	for len(p) > 0 {
		n := min(len(p), o.fragSize)
		o.queue(fragment{data: p[:n], owner: owner})
		p = p[n:]
	}
}

// queue numbers frag and hands it to its sub-stream's worker. Called
// under o.mu.
func (o *Output) queue(frag fragment) {
	binary.BigEndian.PutUint64(frag.hdr[:8], o.nextSeq)
	binary.BigEndian.PutUint32(frag.hdr[8:], uint32(len(frag.lead)+len(frag.data)))
	o.acks.Add(1)
	o.queues[o.nextSeq%uint64(len(o.queues))] <- frag //nolint:netibis-locksafe // o.mu serialises writers so queue order matches seq order; the bounded queue is the intended backpressure and workers drain it even after an error
	o.nextSeq++
}

// Write implements driver.Output: p is cut into fragments that alias it
// and striped across the sub-streams, and Write returns once every one
// of them has been handed to its sub-stream. The io.Writer contract lets
// the caller reuse p from then on, and nothing here has copied it — but
// a Write of at most maxLead bytes, which is copied and held to lead the
// next Write (ipl's length and items ahead of the payload it lends) and
// is striped by that Write, a WriteBuf, Flush or Close.
func (o *Output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := o.usable(); err != nil || len(p) == 0 {
		return 0, err
	}
	if o.leadLen == 0 && len(p) <= maxLead {
		o.leadLen = copy(o.lead[:], p)
		return len(p), nil
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
// fragment has been handed to its sub-stream. Only a held Write striped
// ahead of it is waited out, as its bytes are the output's own.
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
	held := o.leadLen > 0
	o.stripe(b.Bytes(), b)
	if held {
		o.acks.Wait()
	}
	return nil
}

// Flush implements driver.Output. Each worker flushes its sub-stream
// behind every fragment, so Flush stripes a held lead and then only waits
// for it and the fragments of earlier WriteBufs still on their way.
func (o *Output) Flush() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return io.ErrClosedPipe
	}
	o.stripe(nil, nil)
	o.acks.Wait()
	return o.workerErr()
}

// Close stripes a held lead and stops the workers, each of which closes
// its sub-stream behind the last fragment queued for it.
func (o *Output) Close() error {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return nil
	}
	o.closed = true
	o.stripe(nil, nil)
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
// bounds; the Input itself holds none. Each sub-stream is read only
// through its driver.Input, by the index read and then by the fragment
// reads.
type Input struct {
	subs []driver.Input

	mu      sync.Mutex
	hdr     [headerSize]byte
	nextSeq uint64
	left    int   // payload bytes of fragment nextSeq-1 not yet read
	err     error // sticky: the end or failure of the link
	closed  atomic.Bool
}

// NewInput creates a parallel-streams input over the given sub-inputs,
// sub-stream i carrying fragments i, i+n, i+2n, …
func NewInput(subs []driver.Input) *Input { return &Input{subs: subs} }

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
	_, err := io.ReadFull(in.subs[i], in.hdr[:])
	if err == io.EOF {
		return in.end(i)
	}
	if err != nil {
		return err
	}
	if binary.BigEndian.Uint64(in.hdr[:8]) != in.nextSeq {
		return ErrBadFragment
	}
	length := binary.BigEndian.Uint32(in.hdr[8:])
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
	for i, s := range in.subs {
		if i == ended {
			continue
		}
		if _, err := io.ReadFull(s, in.hdr[:]); err != io.EOF {
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
