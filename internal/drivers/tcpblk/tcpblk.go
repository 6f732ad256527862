// Package tcpblk implements TCP_Block, the block-oriented networking
// driver at the bottom of every NetIbis TCP stack (paper Sections 4.1
// and 5.2).
//
// Sending each small application message with its own send() call gives
// poor performance, but TCP's own aggregation (Nagle / TCP_DELAY) adds
// unacceptable latency for parallel programs. TCP_Block therefore
// aggregates data in a user-space buffer and pushes a block onto the
// connection when the buffer overflows or when the application issues
// an explicit flush, which lets the implementation disable Nagle while
// still achieving near-line-rate bandwidth on a LAN.
package tcpblk

import (
	"errors"
	"io"
	"net"
	"sync"

	"netibis/internal/driver"
	"netibis/internal/wire"
)

// Name is the registered driver name.
const Name = "tcpblk"

// DefaultBlockSize is the aggregation buffer size. 64 KiB amortises the
// per-block framing and syscall cost without adding noticeable latency.
const DefaultBlockSize = 64 * 1024

func init() {
	driver.Register(Name, buildOutput, buildInput)
}

func buildOutput(spec driver.Spec, env *driver.Env, lower func() (driver.Output, error)) (driver.Output, error) {
	if lower != nil {
		return nil, errors.New("tcpblk: must be the bottom (networking) driver of a stack")
	}
	if env == nil || env.Dial == nil {
		return nil, errors.New("tcpblk: no Dial function in driver environment")
	}
	conn, err := env.Dial()
	if err != nil {
		return nil, err
	}
	return NewOutput(conn, spec.IntParam("block", DefaultBlockSize)), nil
}

func buildInput(spec driver.Spec, env *driver.Env, lower func() (driver.Input, error)) (driver.Input, error) {
	if lower != nil {
		return nil, errors.New("tcpblk: must be the bottom (networking) driver of a stack")
	}
	if env == nil || env.Accept == nil {
		return nil, errors.New("tcpblk: no Accept function in driver environment")
	}
	conn, err := env.Accept()
	if err != nil {
		return nil, err
	}
	return NewInput(conn), nil
}

// Output is the sending side of a TCP_Block link.
type Output struct {
	mu        sync.Mutex
	conn      net.Conn
	w         *wire.Writer
	buf       []byte
	blockSize int
	closed    bool

	// Stats.
	blocksSent int64
	bytesSent  int64
}

// NewOutput wraps an established connection. blockSize <= 0 selects the
// default.
func NewOutput(conn net.Conn, blockSize int) *Output {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		// The whole point of user-space aggregation is that Nagle can be
		// switched off without drowning in tiny segments.
		tc.SetNoDelay(true)
	}
	return &Output{
		conn:      conn,
		w:         wire.NewWriter(conn),
		buf:       make([]byte, 0, blockSize),
		blockSize: blockSize,
	}
}

// Write implements driver.Output: data is buffered and sent as blocks.
// Writes of at least one block bypass the aggregation buffer entirely:
// the buffered bytes (if any) and the large payload leave as one
// vectored write, so large payloads cross this layer without being
// copied.
func (o *Output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return 0, io.ErrClosedPipe
	}
	total := 0
	for len(p) >= o.blockSize {
		n := len(p)
		if n > wire.MaxFrameLen {
			n = wire.MaxFrameLen
		}
		if err := o.emitDirectLocked(p[:n]); err != nil {
			return total, err
		}
		p = p[n:]
		total += n
	}
	n, err := o.writeSmallLocked(p)
	return total + n, err
}

// WriteBuf implements driver.BufWriter: block-sized payloads bypass the
// aggregation buffer without a copy, smaller ones are aggregated like a
// plain Write. The caller's reference is consumed either way.
func (o *Output) WriteBuf(b *wire.Buf) error {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		b.Release()
		return io.ErrClosedPipe
	}
	var err error
	if b.Len() >= o.blockSize && b.Len() <= wire.MaxFrameLen {
		err = o.emitDirectLocked(b.Bytes())
	} else {
		_, err = o.writeSmallLocked(b.Bytes())
	}
	o.mu.Unlock()
	b.Release()
	return err
}

// writeSmallLocked aggregates a sub-block payload (the tail of Write's
// loop, factored out for WriteBuf).
func (o *Output) writeSmallLocked(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		space := o.blockSize - len(o.buf)
		if space == 0 {
			if err := o.flushLocked(); err != nil {
				return total, err
			}
			continue
		}
		n := len(p)
		if n > space {
			n = space
		}
		o.buf = append(o.buf, p[:n]...)
		p = p[n:]
		total += n
	}
	return total, nil
}

// emitDirectLocked sends a block-sized payload around the aggregation
// buffer: any buffered bytes and the payload leave as one batch (one
// vectored write, neither copied), preserving byte order on the wire.
func (o *Output) emitDirectLocked(p []byte) error {
	batch := [2]wire.BatchFrame{{Kind: wire.KindData, Payload: o.buf}, {Kind: wire.KindData, Payload: p}}
	frames := batch[:]
	if len(o.buf) == 0 {
		frames = batch[1:]
	}
	if err := o.w.WriteFrameBatch(frames); err != nil {
		return err
	}
	o.blocksSent += int64(len(frames))
	o.bytesSent += int64(len(o.buf)) + int64(len(p))
	o.buf = o.buf[:0]
	return nil
}

// Flush implements driver.Output: the explicit flush that marks a
// message boundary in the IPL pushes any buffered bytes onto the wire.
func (o *Output) Flush() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return io.ErrClosedPipe
	}
	return o.flushLocked()
}

func (o *Output) flushLocked() error {
	if len(o.buf) == 0 {
		return nil
	}
	if err := o.w.WriteFrame(wire.KindData, 0, o.buf); err != nil {
		return err
	}
	o.blocksSent++
	o.bytesSent += int64(len(o.buf))
	o.buf = o.buf[:0]
	return nil
}

// Close flushes pending data, announces the shutdown to the peer and
// closes the connection.
func (o *Output) Close() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return nil
	}
	err := o.flushLocked()
	o.w.WriteFrame(wire.KindClose, 0, nil)
	o.closed = true
	if cerr := o.conn.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats reports the number of blocks and payload bytes sent.
func (o *Output) Stats() (blocks, bytes int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.blocksSent, o.bytesSent
}

// Input is the receiving side of a TCP_Block link.
type Input struct {
	mu   sync.Mutex
	conn net.Conn
	r    *wire.Reader
	cur  driver.BufCursor // current block, owned by the Input
	eof  bool

	closeOnce sync.Once
	closed    chan struct{}
}

// NewInput wraps an established connection.
func NewInput(conn net.Conn) *Input {
	return &Input{conn: conn, r: wire.NewReader(conn), closed: make(chan struct{})}
}

// Read implements driver.Input. Blocks arrive from the wire in an owned
// pooled buffer; Read copies out of it (the copy at this final edge is
// what the io.Reader contract requires — ReadBuf avoids it).
func (i *Input) Read(p []byte) (int, error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	for {
		if i.cur.Loaded() {
			return i.cur.Copy(p), nil
		}
		if err := i.fillLocked(); err != nil {
			return 0, err
		}
	}
}

// ReadBuf implements driver.BufReader: it hands the caller the next
// block as an owned Buf, without any copy when the block is unconsumed.
func (i *Input) ReadBuf() (*wire.Buf, error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	for {
		if i.cur.Loaded() {
			return i.cur.Take(), nil
		}
		if err := i.fillLocked(); err != nil {
			return nil, err
		}
	}
}

// fillLocked reads frames until a data block is available or the stream
// ends.
func (i *Input) fillLocked() error {
	for {
		if i.eof {
			return io.EOF
		}
		select {
		case <-i.closed:
			return io.ErrClosedPipe
		default:
		}
		kind, _, b, err := i.r.ReadFrameBuf()
		if err != nil {
			if err == io.EOF {
				i.eof = true
				continue
			}
			select {
			case <-i.closed:
				return io.ErrClosedPipe
			default:
			}
			return err
		}
		switch kind {
		case wire.KindData:
			i.cur.Load(b)
			if i.cur.Loaded() {
				return nil
			}
			// Empty block: keep reading.
		case wire.KindClose:
			b.Release()
			i.eof = true
		default:
			// Ignore foreign frames (keep-alives etc.).
			b.Release()
		}
	}
}

// Close releases the connection. It closes the connection before taking
// the Read mutex: a blocked Read is unblocked by the close and releases
// the mutex promptly, after which a partially consumed block is
// recycled (release-exactly-once).
func (i *Input) Close() error {
	var err error
	i.closeOnce.Do(func() {
		close(i.closed)
		err = i.conn.Close()
		i.mu.Lock()
		i.cur.Drop()
		i.mu.Unlock()
	})
	return err
}
