// Package zip implements the on-the-fly compression filtering driver
// (paper Section 4.3).
//
// With a fast CPU and a slow wide-area link it pays off to compress data
// before sending it: the paper measures a 1.6 MB/s WAN link delivering
// over 3 MB/s of application payload with zlib level 1. Higher
// compression levels consume far more CPU for little extra gain ("only
// the first level of compression turned out to be useful"), so level 1
// is the only level, and the stack has no parameter for it.
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

	"netibis/internal/driver"
	"netibis/internal/wire"
)

// Name is the registered driver name.
const Name = "zip"

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
	codec, err := specCodec(spec)
	if err != nil {
		return nil, err
	}
	sub, err := lower()
	if err != nil {
		return nil, err
	}
	return NewOutputOptions(sub, Options{Codec: codec}), nil
}

func buildInput(spec driver.Spec, _ *driver.Env, lower func() (driver.Input, error)) (driver.Input, error) {
	if lower == nil {
		return nil, errors.New("zip: requires a lower driver (it is a filtering driver)")
	}
	if _, err := specCodec(spec); err != nil {
		return nil, err
	}
	sub, err := lower()
	if err != nil {
		return nil, err
	}
	return NewInput(sub, DefaultBlockSize), nil
}

// specCodec is the codec a zip layer's spec names; codec is its one
// parameter. Both builders check it, so both ends reject the same stacks.
func specCodec(spec driver.Spec) (Codec, error) {
	if err := driver.CheckParams(spec, "codec"); err != nil {
		return nil, err
	}
	return codecByName(spec.Param("codec", ""))
}

// Options configures an Output beyond its lower driver.
type Options struct {
	// Codec compresses the blocks; nil selects DEFLATE.
	Codec Codec
	// Block is the buffering granularity (0 = DefaultBlockSize).
	Block int
}

// Output is the compressing side: the block pipeline with one
// compressed block per emitted block.
type Output struct {
	*driver.BlockOutput
	lower driver.Output
	codec Codec
}

// NewOutputOptions creates a compressing output over lower.
func NewOutputOptions(lower driver.Output, o Options) *Output {
	codec := o.Codec
	if codec == nil {
		codec = deflateCodec{}
	}
	blockSize := o.Block
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	out := &Output{lower: lower, codec: codec}
	// Large writes compress straight from the caller's slice, a block at
	// a time — the buffering memcpy is pure overhead at these sizes. The
	// half-block threshold keeps small writes coalescing through the
	// buffer for ratio.
	// The bytes a Write left pending ride in the block of a bypassing
	// one, so ipl's head and the payload it lends are one block, as one
	// Write of both is.
	out.BlockOutput = driver.NewBlockOutput(lower, blockSize, blockSize/2, blockSize, true, out.emit)
	return out
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

// emit compresses body — and first, as a block of their own, the bytes
// still buffered when a large write bypasses them (own) — and writes the
// blocks down. A block is compressed from one contiguous slice, so bytes
// that ride (lead) are joined with body in a pooled buffer first: the
// copy a lent payload spared the layer above, which compression dwarfs.
func (o *Output) emit(own, lead, body []byte) (int, error) {
	if len(lead) > 0 {
		joined := wire.GetBuf(len(lead) + len(body))
		defer joined.Release()
		copy(joined.Bytes()[copy(joined.Bytes(), lead):], body)
		body = joined.Bytes()
	}
	sent := 0
	for _, src := range [2][]byte{own, body} {
		if len(src) == 0 {
			continue
		}
		out, err := compressBlock(o.codec, src)
		if err != nil {
			return sent, err
		}
		sent += out.Len()
		if err := driver.WriteBuf(o.lower, out); err != nil {
			return sent, err
		}
	}
	return sent, nil
}

// Ratio returns the achieved compression ratio (input bytes / output
// bytes); 1.0 when nothing has been sent yet.
func (o *Output) Ratio() float64 {
	_, in, out := o.Counts()
	if out == 0 {
		return 1
	}
	return float64(in) / float64(out)
}

// Stats returns input bytes, output (wire) bytes and block count.
func (o *Output) Stats() (in, out, blocks int64) {
	blocks, in, out = o.Counts()
	return in, out, blocks
}

// ErrBlockTooLarge is wrapped by the error an Input returns for a block
// header no block of its stack can have: past its block size or the
// flag's worst case, or a stored block whose two lengths differ.
var ErrBlockTooLarge = errors.New("zip: block larger than the stack's bound")

// Input is the decompressing side. It dispatches per block on the flag
// byte (codec registry in codec.go), so streams from any codec — and
// any mix — decode through the same Input. It reads blocks through a
// wire.Reader whose read-ahead holds the largest block the stack can
// send, header included, and decodes each from there.
type Input struct {
	*driver.BlockInput
	r        *wire.Reader
	maxBlock uint32
}

// NewInput creates a decompressing input over lower for blocks of at most
// block bytes (0 = DefaultBlockSize), the sender's block size.
func NewInput(lower driver.Input, block int) *Input {
	if block <= 0 {
		block = DefaultBlockSize
	}
	in := &Input{maxBlock: uint32(min(block, wire.MaxFrameLen))}
	stored := int(in.maxBlock)
	for _, dec := range decoders {
		stored = max(stored, dec.bound(int(in.maxBlock)))
	}
	in.r = wire.NewUnitReader(lower, headerSize+stored)
	in.BlockInput = driver.NewBlockInput(lower, in.fill)
	return in
}

// fill reads the next block from the lower driver. When the whole
// decoded block fits the caller's destination slice, it is decoded (or,
// for stored blocks, read) straight into it and the consumed length is
// returned — no pooled intermediate block. Otherwise the block is
// decoded into a pooled buffer.
func (in *Input) fill(direct []byte) (int, *wire.Buf, error) {
	hdr, err := in.r.Peek(headerSize)
	if err == io.ErrUnexpectedEOF {
		err = io.EOF // a stream cut inside a header ends cleanly
	}
	if err != nil {
		return 0, nil, err
	}
	flag := hdr[0]
	origLen := binary.BigEndian.Uint32(hdr[1:5])
	storedLen := binary.BigEndian.Uint32(hdr[5:9])
	// Nine unauthenticated bytes: hold them to the stack's block size and
	// the flag's worst case before a read grows or a buffer is taken.
	if origLen > in.maxBlock {
		return 0, nil, fmt.Errorf("%w: %d bytes declared, blocks hold %d", ErrBlockTooLarge, origLen, in.maxBlock)
	}
	dec, ok := decoders[flag]
	switch {
	case flag == flagStored && storedLen != origLen:
		return 0, nil, fmt.Errorf("%w: stored block of %d bytes declares %d", ErrBlockTooLarge, storedLen, origLen)
	case flag == flagStored:
	case !ok:
		return 0, nil, fmt.Errorf("zip: unknown block flag %d", flag)
	case int64(storedLen) > int64(dec.bound(int(origLen))):
		return 0, nil, fmt.Errorf("%w: %d stored bytes for %d, at most %d", ErrBlockTooLarge, storedLen, origLen, dec.bound(int(origLen)))
	}
	in.r.Discard(headerSize)
	payload, err := in.r.Peek(int(storedLen))
	if err != nil {
		return 0, nil, fmt.Errorf("zip: truncated block: %w", err)
	}
	defer in.r.Discard(int(storedLen))
	var out *wire.Buf
	dst := direct
	if int(origLen) > len(direct) || origLen == 0 {
		out = wire.GetBuf(int(origLen))
		dst = out.Bytes()
	}
	dst = dst[:origLen]
	if flag == flagStored {
		copy(dst, payload)
	} else if err := dec.decode(dst, payload); err != nil {
		if out != nil {
			out.Release()
		}
		return 0, nil, err
	}
	if out != nil {
		return 0, out, nil
	}
	return int(origLen), nil, nil
}
