package zip

// Pluggable block codecs. The zip driver's wire format is a sequence of
// independent blocks, each "1 flag byte + 4 bytes original length +
// 4 bytes stored length + stored bytes"; the flag byte names the codec
// that produced the block. That makes the codec choice a per-block,
// not per-stream, property: a decoder dispatches on the flag of every
// block, so new codecs extend the format without a stream-level version
// negotiation and legacy flagDeflate blocks keep decoding forever (the
// legacy-decode guarantee — see DESIGN.md, "Pluggable compression").
//
// A Codec must be safe for concurrent use: one instance may serve
// several Outputs, so per-call encoder state (flate writers, LZ hash
// tables) is pooled inside the codec.

import (
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Codec compresses independent blocks. Compress appends nothing and
// copies nothing on failure: it encodes src into dst (whose length is at
// least Bound(len(src))) and returns the encoded size, or errBound when
// the encoded form would not fit dst — the caller then falls back to a
// stored block, which Bound guarantees always fits.
type Codec interface {
	// Name is the stack-parameter name selecting this codec
	// (zip:codec=<name>).
	Name() string
	// Flag is the block flag byte written on the wire for this codec's
	// blocks.
	Flag() byte
	// Bound returns the worst-case encoded size of n input bytes. It is
	// always >= n, so a stored fallback can reuse the same output buffer.
	Bound(n int) int
	// Compress encodes src into dst and returns the encoded length.
	Compress(dst, src []byte) (int, error)
}

// errBound reports that an encoder ran out of output space; the caller
// stores the block uncompressed instead.
var errBound = errors.New("zip: encoded block exceeds bound")

// decodeFunc decodes one block: src is the stored bytes, dst is exactly
// the original length the block header announced. A decoder must fill
// dst completely and consume src exactly, or fail.
type decodeFunc func(dst, src []byte) error

// decoders dispatches block decoding by flag byte. Registration is
// package-init only (the map is read concurrently afterwards).
var decoders = map[byte]decodeFunc{
	flagDeflate: decodeFlate,
	flagLZ:      decodeLZ,
}

// codecByName resolves the zip:codec= stack parameter.
func codecByName(name string, level int) (Codec, error) {
	switch name {
	case "", "flate":
		return newFlateCodec(level)
	case "lz":
		if level != 0 && level != DefaultLevel {
			return nil, fmt.Errorf("zip: codec lz has no compression levels (level=%d given)", level)
		}
		return lzCodec{}, nil
	default:
		return nil, fmt.Errorf("zip: unknown codec %q (have flate, lz)", name)
	}
}

// flateCodec is DEFLATE, the original and compatible default. Encoder
// state is expensive (flate.Writer holds ~half a MiB of window and
// tables), so each codec instance pools writers for its level.
type flateCodec struct {
	level int
	pool  *sync.Pool
}

func newFlateCodec(level int) (*flateCodec, error) {
	if level == 0 {
		level = DefaultLevel
	}
	if level < flate.HuffmanOnly || level > flate.BestCompression {
		return nil, fmt.Errorf("zip: invalid compression level %d", level)
	}
	// Constructing one writer up front surfaces level errors in the
	// constructor instead of on the first block.
	if _, err := flate.NewWriter(io.Discard, level); err != nil {
		return nil, err
	}
	lvl := level
	return &flateCodec{
		level: level,
		pool: &sync.Pool{New: func() any {
			fw, _ := flate.NewWriter(io.Discard, lvl)
			return &flateEncoder{fw: fw}
		}},
	}, nil
}

// flateEncoder is the pooled per-call state: the writer plus its bounded
// destination, bundled so a Compress call allocates nothing.
type flateEncoder struct {
	fw *flate.Writer
	w  boundedWriter
}

func (c *flateCodec) Name() string { return "flate" }
func (c *flateCodec) Flag() byte   { return flagDeflate }

// Bound is DEFLATE's documented worst case: an incompressible input
// degenerates to stored-type blocks of 5 bytes of framing per at most
// 16 KiB of data, plus a small constant for the final empty block and
// alignment.
func (c *flateCodec) Bound(n int) int {
	return n + 5*((n+16383)/16384) + 16
}

// boundedWriter appends into a fixed-size slice and fails with errBound
// instead of growing — the encoder's promise that a pooled output Buf
// sized by Bound is never re-allocated mid-block.
type boundedWriter struct {
	buf []byte
	n   int
}

func (w *boundedWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > len(w.buf) {
		return 0, errBound
	}
	copy(w.buf[w.n:], p)
	w.n += len(p)
	return len(p), nil
}

func (c *flateCodec) Compress(dst, src []byte) (int, error) {
	e := c.pool.Get().(*flateEncoder)
	e.w = boundedWriter{buf: dst}
	e.fw.Reset(&e.w)
	_, err := e.fw.Write(src)
	if err == nil {
		err = e.fw.Close()
	}
	n := e.w.n
	e.w.buf = nil // do not pin the caller's Buf in the pool
	c.pool.Put(e)
	if err != nil {
		return 0, err
	}
	return n, nil
}

// flateDecoder is the pooled decode-side state: the DEFLATE reader (its
// Reset reuses the window) and the slice reader feeding it.
type flateDecoder struct {
	fr    io.ReadCloser
	src   sliceReader
	probe [1]byte
}

var flateDecoders = sync.Pool{New: func() any { return &flateDecoder{} }}

// sliceReader is bytes.Reader without the interface baggage: Read-only,
// resettable, no allocation.
type sliceReader struct {
	b []byte
	n int
}

func (r *sliceReader) Reset(b []byte) { r.b, r.n = b, 0 }

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.n >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.n:])
	r.n += n
	return n, nil
}

// decodeFlate inflates one legacy or current flagDeflate block. The
// block must decode to exactly len(dst) bytes — a stream that is short,
// long, or corrupt fails loudly rather than desynchronising the block
// sequence.
func decodeFlate(dst, src []byte) error {
	d := flateDecoders.Get().(*flateDecoder)
	defer flateDecoders.Put(d)
	d.src.Reset(src)
	if d.fr == nil {
		d.fr = flate.NewReader(&d.src)
	} else if err := d.fr.(flate.Resetter).Reset(&d.src, nil); err != nil {
		return fmt.Errorf("zip: resetting decoder: %w", err)
	}
	if _, err := io.ReadFull(d.fr, dst); err != nil {
		return fmt.Errorf("zip: corrupt compressed block: %w", err)
	}
	if n, err := d.fr.Read(d.probe[:]); n != 0 || (err != nil && err != io.EOF) {
		return fmt.Errorf("zip: compressed block longer than header said (%d)", len(dst))
	}
	return nil
}
