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
// several Outputs, so per-call encoder state is pooled inside the codec.

import (
	"bytes"
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

// blockDecoder decodes a flag's blocks: decode fills dst, exactly the
// announced original length, from the stored bytes src or fails; bound is
// the flag's Codec.Bound, the most stored bytes n bytes can take.
type blockDecoder struct {
	decode func(dst, src []byte) error
	bound  func(n int) int
}

// decoders dispatches block decoding by flag byte. Registration is
// package-init only (the map is read concurrently afterwards).
var decoders = map[byte]blockDecoder{
	flagDeflate: {inflate, deflateBound},
	flagLZ:      {decodeLZ, lzCodec{}.Bound},
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

// newFlateCodec returns DEFLATE at level (0 = DefaultLevel): deflate.go's
// codec at level 1, compress/flate's writer at any other, which only the
// compression-level sweep in internal/bench asks for.
func newFlateCodec(level int) (Codec, error) {
	if level == 0 || level == DefaultLevel {
		return deflateCodec{}, nil
	}
	if level < flate.HuffmanOnly || level > flate.BestCompression {
		return nil, fmt.Errorf("zip: invalid compression level %d", level)
	}
	return &stdlibFlateCodec{writers: sync.Pool{New: func() any {
		fw, _ := flate.NewWriter(io.Discard, level)
		return fw
	}}}, nil
}

// stdlibFlateCodec is DEFLATE through compress/flate's writers, pooled:
// each holds ~half a MiB of window and tables.
type stdlibFlateCodec struct {
	deflateCodec // name, flag and bound
	writers      sync.Pool
}

// Compress writes into dst's storage; a stream longer than dst has left
// it for a grown buffer, and is errBound.
func (c *stdlibFlateCodec) Compress(dst, src []byte) (int, error) {
	fw := c.writers.Get().(*flate.Writer)
	b := bytes.NewBuffer(dst[:0])
	fw.Reset(b)
	_, err := fw.Write(src)
	if err == nil {
		err = fw.Close()
	}
	fw.Reset(io.Discard) // do not pin the caller's Buf in the pool
	c.writers.Put(fw)
	switch {
	case err != nil:
		return 0, err
	case b.Len() > len(dst):
		return 0, errBound
	}
	return b.Len(), nil
}
