package driver

import (
	"io"
	"sync"
	"sync/atomic"

	"netibis/internal/wire"
)

// FlushCloser is what a BlockOutput needs of whatever sits below it:
// the lower driver, or the connection for a networking driver.
type FlushCloser interface {
	Flush() error
	Close() error
}

// BlockOutput is the sending half of the block pipeline: the lock, the
// aggregation buffer, the large-write bypass, the counters and the
// Flush/Close order every block-oriented driver shares. A driver embeds
// it and supplies emit, its one added value — frame, compress or seal
// the bytes and hand them down.
type BlockOutput struct {
	mu     sync.Mutex
	lower  FlushCloser
	emit   func(head, body []byte) (int, error)
	buf    []byte // pending bytes; cap(buf) is the block size
	bypass int
	chunk  int
	closed bool

	blocks, in, out int64
}

// NewBlockOutput builds the pipeline over lower. Writes aggregate into
// blocks of block bytes; a Write of at least bypass bytes (0: never)
// skips the buffer in pieces of at most chunk bytes, which emit reads
// straight from the caller's slice.
//
// emit is called under the pipeline's lock with a non-empty body: one
// aggregated block, or one bypassing piece. Only for the latter can head
// be non-empty — the bytes still pending, which must reach the peer
// before body. It returns the bytes it handed down.
func NewBlockOutput(lower FlushCloser, block, bypass, chunk int, emit func(head, body []byte) (int, error)) *BlockOutput {
	return &BlockOutput{lower: lower, emit: emit, buf: make([]byte, 0, block), bypass: bypass, chunk: chunk}
}

// BlockSize returns the aggregation block size.
func (o *BlockOutput) BlockSize() int { return cap(o.buf) }

// Write implements Output.
func (o *BlockOutput) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return 0, io.ErrClosedPipe
	}
	total := 0
	for len(p) > 0 {
		var n int
		if o.bypass > 0 && len(p) >= o.bypass {
			n = min(len(p), o.chunk)
			if err := o.emitLocked(p[:n]); err != nil {
				return total, err
			}
		} else {
			if len(o.buf) == cap(o.buf) {
				if err := o.emitLocked(nil); err != nil {
					return total, err
				}
			}
			n = min(len(p), cap(o.buf)-len(o.buf))
			o.buf = append(o.buf, p[:n]...)
		}
		p = p[n:]
		total += n
	}
	return total, nil
}

// emitLocked hands the driver the pending bytes, ahead of the bypassing
// piece body when there is one, and counts what left.
func (o *BlockOutput) emitLocked(body []byte) error {
	head := o.buf
	if body == nil {
		head, body = nil, head
	}
	if len(body) == 0 {
		return nil
	}
	n, err := o.emit(head, body)
	if err != nil {
		return err
	}
	o.blocks++
	if len(head) > 0 {
		o.blocks++
	}
	o.in += int64(len(head) + len(body))
	o.out += int64(n)
	o.buf = o.buf[:0]
	return nil
}

// Flush implements Output: the pending bytes leave as a block, then the
// layer below flushes.
func (o *BlockOutput) Flush() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return io.ErrClosedPipe
	}
	if err := o.emitLocked(nil); err != nil {
		return err
	}
	return o.lower.Flush()
}

// Close implements Output: it emits the pending bytes, then flushes and
// closes the layer below.
func (o *BlockOutput) Close() error {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return nil
	}
	err := o.emitLocked(nil)
	o.closed = true
	o.mu.Unlock()
	if ferr := o.lower.Flush(); err == nil {
		err = ferr
	}
	if cerr := o.lower.Close(); err == nil {
		err = cerr
	}
	return err
}

// Counts reports the blocks emitted, the bytes written into them and
// the bytes emit handed down for them.
func (o *BlockOutput) Counts() (blocks, in, out int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.blocks, o.in, o.out
}

// BlockInput is the receiving half of the block pipeline: the lock, the
// current block, the Read loop and the teardown. A driver embeds it and
// supplies fill.
type BlockInput struct {
	mu     sync.Mutex
	lower  io.Closer
	fill   func(direct []byte) (int, *wire.Buf, error)
	cur    BufCursor
	closed atomic.Bool
}

// NewBlockInput builds the pipeline over lower, the driver or
// connection fill reads from. fill is called under the pipeline's lock
// and reads one block from below: it returns the decoded block as an
// owned Buf, or — a driver may when the whole block fits — decodes it
// straight into direct, the caller's slice, and returns its length. A
// block with nothing to deliver is (0, nil, nil).
func NewBlockInput(lower io.Closer, fill func(direct []byte) (int, *wire.Buf, error)) *BlockInput {
	return &BlockInput{lower: lower, fill: fill}
}

// Read implements Input.
func (in *BlockInput) Read(p []byte) (int, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for !in.cur.Loaded() {
		if in.closed.Load() {
			return 0, io.ErrClosedPipe
		}
		n, b, err := in.fill(p)
		if err != nil {
			if in.closed.Load() {
				err = io.ErrClosedPipe
			}
			return 0, err
		}
		if n > 0 {
			return n, nil
		}
		if b != nil {
			in.cur.Load(b)
		}
	}
	return in.cur.Copy(p), nil
}

// Close implements Input. It closes the layer below before taking the
// Read lock: a Read parked below is unblocked by that close and lets go
// of the lock, after which a partially consumed block is recycled.
func (in *BlockInput) Close() error {
	if in.closed.Swap(true) {
		return nil
	}
	err := in.lower.Close()
	in.mu.Lock()
	in.cur.Drop()
	in.mu.Unlock()
	return err
}
