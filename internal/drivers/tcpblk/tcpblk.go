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
	if err := driver.CheckParams(spec); err != nil {
		return nil, err
	}
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
	return NewOutput(conn, DefaultBlockSize), nil
}

func buildInput(spec driver.Spec, env *driver.Env, lower func() (driver.Input, error)) (driver.Input, error) {
	if err := driver.CheckParams(spec); err != nil {
		return nil, err
	}
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

// Output is the sending side of a TCP_Block link: the block pipeline
// over a connection, one data frame per block.
type Output struct {
	*driver.BlockOutput
	w *wire.Writer
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
	o := &Output{w: wire.NewWriter(conn)}
	// Writes of at least one block bypass the aggregation buffer, up to
	// a whole frame at a time, and the bytes a Write left pending ride in
	// the same frame: ipl's length and items in front of the payload it
	// lends are one frame, as they are when written at once.
	o.BlockOutput = driver.NewBlockOutput(connEnd{conn, o.w}, blockSize, blockSize, wire.MaxFrameLen, true, o.emit)
	return o
}

// emit sends a block. A bypassing payload, with the pending bytes that
// ride at its front and, before it, the pending bytes that keep a frame
// of their own, leaves as one batch: one vectored write, nothing copied
// but what fits the header arena.
func (o *Output) emit(own, lead, body []byte) (int, error) {
	batch := [2]wire.BatchFrame{{Kind: wire.KindData, Payload: own}, {Kind: wire.KindData, Hdr: lead, Payload: body}}
	frames := batch[:]
	if len(own) == 0 {
		frames = batch[1:]
	}
	return len(own) + len(lead) + len(body), o.w.WriteFrameBatch(frames)
}

// connEnd is what lies below the aggregation buffer of a networking
// driver: nothing to flush, and a close that announces the shutdown to
// the peer before closing the connection.
type connEnd struct {
	conn net.Conn
	w    *wire.Writer
}

func (connEnd) Flush() error { return nil }

func (c connEnd) Close() error {
	c.w.WriteFrame(wire.KindClose, 0, nil)
	return c.conn.Close()
}

// Stats reports the number of blocks and payload bytes sent.
func (o *Output) Stats() (blocks, bytes int64) {
	blocks, bytes, _ = o.Counts()
	return blocks, bytes
}

// Input is the receiving side of a TCP_Block link.
type Input struct {
	*driver.BlockInput
	r   *wire.Reader
	eof bool
}

// NewInput wraps an established connection.
func NewInput(conn net.Conn) *Input {
	i := &Input{r: wire.NewReader(conn)}
	i.BlockInput = driver.NewBlockInput(conn, i.fill)
	return i
}

// fill reads the next frame: a data block that fits the caller's slice
// is read from the conn straight into it, a larger one arrives in an
// owned pooled buffer; a close frame or the end of the connection ends
// the stream for good.
func (i *Input) fill(direct []byte) (int, *wire.Buf, error) {
	if i.eof {
		return 0, nil, io.EOF
	}
	kind, _, n, b, err := i.r.ReadFrameInto(direct)
	if err != nil {
		i.eof = err == io.EOF
		return 0, nil, err
	}
	if kind == wire.KindData {
		return n, b, nil
	}
	if b != nil {
		b.Release() // a foreign frame (keep-alive etc.) is skipped
	}
	if kind == wire.KindClose {
		i.eof = true
		return 0, nil, io.EOF
	}
	return 0, nil, nil
}
