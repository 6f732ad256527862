// Package zip implements the on-the-fly compression filtering driver
// (paper Section 4.3).
//
// With a fast CPU and a slow wide-area link it pays off to compress data
// before sending it: the paper measures a 1.6 MB/s WAN link delivering
// over 3 MB/s of application payload with zlib level 1. Higher
// compression levels consume far more CPU for little extra gain, so
// level 1 is the default, exactly as in the paper; the level is a stack
// parameter so the ablation benchmarks can sweep it.
//
// The driver buffers written data into blocks. On flush (or when a block
// fills up) the block is compressed and sent down the stack as a small
// header plus the compressed bytes. Incompressible blocks are sent
// verbatim (with a "stored" marker), so the worst-case overhead is a few
// header bytes rather than an expansion.
//
// The codec is pluggable per block (zip:codec=flate is the compatible
// default, zip:codec=lz the fast byte-aligned one — see codec.go).
package zip

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
const Name = "zip"

// DefaultLevel is zlib/DEFLATE level 1, the paper's choice: "only the
// first level of compression turned out to be useful".
const DefaultLevel = 1

// DefaultBlockSize is the compression block size. Bigger blocks compress
// better but add latency and memory.
const DefaultBlockSize = 128 * 1024

// Block header layout: 1 flag byte + 4 bytes original length + 4 bytes
// stored length.
const headerSize = 9

// Flag values. flagLZ lives in lz.go; further codecs claim the next
// byte. A flag is forever: decoders keep every published mapping so old
// streams stay readable.
const (
	flagStored  byte = 0
	flagDeflate byte = 1
)

func init() {
	driver.Register(Name, buildOutput, buildInput)
}

func buildOutput(spec driver.Spec, _ *driver.Env, lower func() (driver.Output, error)) (driver.Output, error) {
	if lower == nil {
		return nil, errors.New("zip: requires a lower driver (it is a filtering driver)")
	}
	sub, err := lower()
	if err != nil {
		return nil, err
	}
	codec, err := codecByName(spec.Param("codec", ""), spec.IntParam("level", 0))
	if err != nil {
		sub.Close()
		return nil, err
	}
	out, err := NewOutputOptions(sub, Options{
		Codec: codec,
		Block: spec.IntParam("block", DefaultBlockSize),
	})
	if err != nil {
		sub.Close()
		return nil, err
	}
	return out, nil
}

func buildInput(spec driver.Spec, _ *driver.Env, lower func() (driver.Input, error)) (driver.Input, error) {
	if lower == nil {
		return nil, errors.New("zip: requires a lower driver (it is a filtering driver)")
	}
	sub, err := lower()
	if err != nil {
		return nil, err
	}
	return NewInput(sub), nil
}

// Options configures an Output beyond its lower driver.
type Options struct {
	// Codec compresses the blocks; nil selects DEFLATE at Level.
	Codec Codec
	// Level is the DEFLATE level used when Codec is nil (0 =
	// DefaultLevel).
	Level int
	// Block is the buffering granularity (0 = DefaultBlockSize).
	Block int
}

// Output is the compressing side.
type Output struct {
	mu        sync.Mutex
	lower     driver.Output
	codec     Codec
	blockSize int
	buf       []byte
	closed    bool

	// Stats for the evaluation harness.
	bytesIn  int64
	bytesOut int64
	blocks   int64
}

// NewOutput creates a DEFLATE-compressing output over lower — the
// original constructor, kept for callers that predate pluggable codecs.
func NewOutput(lower driver.Output, level, blockSize int) (*Output, error) {
	return NewOutputOptions(lower, Options{Level: level, Block: blockSize})
}

// NewOutputOptions creates a compressing output over lower.
func NewOutputOptions(lower driver.Output, o Options) (*Output, error) {
	codec := o.Codec
	if codec == nil {
		var err error
		if codec, err = newFlateCodec(o.Level); err != nil {
			return nil, err
		}
	}
	blockSize := o.Block
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	return &Output{
		lower:     lower,
		codec:     codec,
		blockSize: blockSize,
		buf:       make([]byte, 0, blockSize),
	}, nil
}

// Write implements driver.Output.
func (o *Output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return 0, io.ErrClosedPipe
	}
	total := 0
	for len(p) > 0 {
		// Large writes with nothing buffered compress straight from the
		// caller's slice — the block a copy-then-flush would have built
		// is identical, and the buffering memcpy is pure overhead at
		// these sizes. The half-block threshold keeps small writes
		// coalescing through the buffer for ratio.
		if len(o.buf) == 0 && len(p) >= o.blockSize/2 {
			n := len(p)
			if n > o.blockSize {
				n = o.blockSize
			}
			if err := o.emitSliceLocked(p[:n]); err != nil {
				return total, err
			}
			p = p[n:]
			total += n
			continue
		}
		space := o.blockSize - len(o.buf)
		if space == 0 {
			if err := o.emitLocked(); err != nil {
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

// Flush compresses and sends any buffered data, then flushes the lower
// driver.
func (o *Output) Flush() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return io.ErrClosedPipe
	}
	if err := o.emitLocked(); err != nil {
		return err
	}
	return o.lower.Flush()
}

// compressBlock encodes src as one self-contained wire block (header and
// stored bytes contiguous in a single owned Buf). The Buf is sized for
// the codec's worst case up front — Bound(n) >= n, so when the codec
// does not help (or overruns the bound on pathological input) the stored
// fallback reuses the same Buf instead of allocating a second one.
func compressBlock(codec Codec, src []byte) (*wire.Buf, error) {
	out := wire.GetBuf(headerSize + codec.Bound(len(src)))
	flag := codec.Flag()
	n, err := codec.Compress(out.Bytes()[headerSize:], src)
	switch {
	case err == errBound || (err == nil && n >= len(src)):
		// Compression did not help (random or already-compressed data):
		// send the original bytes to avoid inflating the transfer.
		flag = flagStored
		n = copy(out.Bytes()[headerSize:], src)
	case err != nil:
		out.Release()
		return nil, err
	}
	out.SetLen(headerSize + n)
	hdr := out.Bytes()[:headerSize]
	hdr[0] = flag
	binary.BigEndian.PutUint32(hdr[1:5], uint32(len(src)))
	binary.BigEndian.PutUint32(hdr[5:9], uint32(n))
	return out, nil
}

// emitLocked compresses the buffered data and hands the resulting block
// to the lower driver.
func (o *Output) emitLocked() error {
	if len(o.buf) == 0 {
		return nil
	}
	if err := o.emitSliceLocked(o.buf); err != nil {
		return err
	}
	o.buf = o.buf[:0]
	return nil
}

// emitSliceLocked compresses data (the accumulation buffer or a large
// caller slice passed through zero-copy) and writes the block down.
func (o *Output) emitSliceLocked(data []byte) error {
	out, err := compressBlock(o.codec, data)
	if err != nil {
		return err
	}
	o.countLocked(len(data), out.Len())
	return driver.WriteBuf(o.lower, out)
}

func (o *Output) countLocked(in, out int) {
	o.bytesIn += int64(in)
	o.bytesOut += int64(out)
	o.blocks++
}

// Close flushes and closes the lower driver.
func (o *Output) Close() error {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return nil
	}
	err := o.emitLocked()
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

// Ratio returns the achieved compression ratio (input bytes / output
// bytes); 1.0 when nothing has been sent yet.
func (o *Output) Ratio() float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.bytesOut == 0 {
		return 1
	}
	return float64(o.bytesIn) / float64(o.bytesOut)
}

// Stats returns input bytes, output (wire) bytes and block count.
func (o *Output) Stats() (in, out, blocks int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.bytesIn, o.bytesOut, o.blocks
}

// Input is the decompressing side. It dispatches per block on the flag
// byte (codec registry in codec.go), so streams from any codec — and
// any mix, including legacy flagDeflate-only senders — decode through
// the same Input.
type Input struct {
	mu      sync.Mutex
	lower   driver.Input
	current driver.BufCursor // owned decoded block
	hdrBuf  [headerSize]byte

	closeOnce sync.Once
	closed    chan struct{}
}

// NewInput creates a decompressing input over lower.
func NewInput(lower driver.Input) *Input {
	return &Input{lower: lower, closed: make(chan struct{})}
}

// Read implements driver.Input.
func (in *Input) Read(p []byte) (int, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for {
		if in.current.Loaded() {
			return in.current.Copy(p), nil
		}
		select {
		case <-in.closed:
			return 0, io.ErrClosedPipe
		default:
		}
		n, err := in.fillLocked(p)
		if err != nil {
			return 0, err
		}
		if n > 0 {
			return n, nil
		}
	}
}

// ReadBuf implements driver.BufReader: the next decoded block is handed
// over as an owned Buf without a copy (unless a previous Read consumed a
// prefix of it).
func (in *Input) ReadBuf() (*wire.Buf, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for {
		if in.current.Loaded() {
			return in.current.Take(), nil
		}
		select {
		case <-in.closed:
			return nil, io.ErrClosedPipe
		default:
		}
		if _, err := in.fillLocked(nil); err != nil {
			return nil, err
		}
	}
}

// fillLocked reads the next block from the lower driver. When the whole
// decoded block fits the caller's destination slice, it is decoded (or,
// for stored blocks, read) straight into it and the consumed length is
// returned — no pooled intermediate block. Otherwise the block is
// decoded into a pooled buffer loaded as in.current and 0 is returned.
func (in *Input) fillLocked(direct []byte) (int, error) {
	if _, err := io.ReadFull(in.lower, in.hdrBuf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, io.EOF
		}
		return 0, err
	}
	flag := in.hdrBuf[0]
	origLen := binary.BigEndian.Uint32(in.hdrBuf[1:5])
	storedLen := binary.BigEndian.Uint32(in.hdrBuf[5:9])
	if origLen > uint32(wire.MaxFrameLen) || storedLen > uint32(wire.MaxFrameLen) {
		return 0, fmt.Errorf("zip: block length out of range (%d/%d)", origLen, storedLen)
	}
	if flag == flagStored {
		if int(storedLen) <= len(direct) && storedLen > 0 {
			if _, err := io.ReadFull(in.lower, direct[:storedLen]); err != nil {
				return 0, fmt.Errorf("zip: truncated block: %w", err)
			}
			return int(storedLen), nil
		}
		payload := wire.GetBuf(int(storedLen))
		if _, err := io.ReadFull(in.lower, payload.Bytes()); err != nil {
			payload.Release()
			return 0, fmt.Errorf("zip: truncated block: %w", err)
		}
		in.current.Load(payload)
		return 0, nil
	}
	payload := wire.GetBuf(int(storedLen))
	if _, err := io.ReadFull(in.lower, payload.Bytes()); err != nil {
		payload.Release()
		return 0, fmt.Errorf("zip: truncated block: %w", err)
	}
	decode := decoders[flag]
	if decode == nil {
		payload.Release()
		return 0, fmt.Errorf("zip: unknown block flag %d", flag)
	}
	if int(origLen) <= len(direct) && origLen > 0 {
		err := decode(direct[:origLen], payload.Bytes())
		payload.Release()
		if err != nil {
			return 0, err
		}
		return int(origLen), nil
	}
	out := wire.GetBuf(int(origLen))
	err := decode(out.Bytes(), payload.Bytes())
	payload.Release()
	if err != nil {
		out.Release()
		return 0, err
	}
	in.current.Load(out)
	return 0, nil
}

// Close closes the lower driver before taking the Read mutex (so the
// close can unblock a Read waiting for data), then recycles a partially
// consumed block.
func (in *Input) Close() error {
	var err error
	in.closeOnce.Do(func() {
		close(in.closed)
		err = in.lower.Close()
		in.mu.Lock()
		in.current.Drop()
		in.mu.Unlock()
	})
	return err
}

// CompressBound estimates the wire size of n input bytes at the given
// ratio; used by the evaluation harness for capacity planning.
func CompressBound(n int64, ratio float64) int64 {
	if ratio <= 1 {
		return n + headerSize
	}
	return int64(float64(n)/ratio) + headerSize
}
