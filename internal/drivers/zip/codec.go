package zip

// Pluggable block codecs. The zip driver's wire format is a sequence of
// independent blocks, each "1 flag byte + 4 bytes original length +
// 4 bytes stored length + stored bytes"; the flag byte names the codec
// that produced the block. That makes the codec choice a per-block,
// not per-stream, property: a decoder dispatches on the flag of every
// block, so a new codec is a new flag and a decoder registration, flag
// values are never reused, and one stream may mix codecs
// (TestMixedCodecStreamDecodes). An unknown flag fails loudly.
//
// A Codec must be safe for concurrent use: one instance may serve
// several Outputs, so per-call encoder state is pooled inside the codec.

import (
	"errors"
	"fmt"

	"netibis/internal/driver"
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
func codecByName(name string) (Codec, error) {
	switch name {
	case "", "flate":
		return deflateCodec{}, nil
	case "lz":
		return lzCodec{}, nil
	default:
		return nil, fmt.Errorf("%w: zip: unknown codec %q (have flate, lz)", driver.ErrBadParam, name)
	}
}
