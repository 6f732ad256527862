// Package zip implements the on-the-fly compression filtering driver
// (paper Section 4.3).
//
// With a fast CPU and a slow wide-area link it pays off to compress data
// before sending it: the paper measures a 1.6 MB/s WAN link delivering
// over 3 MB/s of application payload with zlib level 1. Higher
// compression levels consume far more CPU for little extra gain ("only
// the first level of compression turned out to be useful"), so level 1
// is the only level: zip:level=1 is accepted, any other level is not.
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
	if err := checkLevel(spec); err != nil {
		return nil, err
	}
	codec, err := codecByName(spec.Param("codec", ""))
	if err != nil {
		return nil, err
	}
	sub, err := lower()
	if err != nil {
		return nil, err
	}
	return NewOutputOptions(sub, Options{
		Codec: codec,
		Block: spec.IntParam("block", DefaultBlockSize),
	}), nil
}

func buildInput(spec driver.Spec, _ *driver.Env, lower func() (driver.Input, error)) (driver.Input, error) {
	if lower == nil {
		return nil, errors.New("zip: requires a lower driver (it is a filtering driver)")
	}
	if err := checkLevel(spec); err != nil {
		return nil, err
	}
	sub, err := lower()
	if err != nil {
		return nil, err
	}
	return NewInput(sub, spec.IntParam("block", DefaultBlockSize)), nil
}

// checkLevel accepts a stack whose level parameter is absent or exactly
// 1, the one level the driver compresses at.
func checkLevel(spec driver.Spec) error {
	if v, ok := spec.Params["level"]; ok && v != "1" {
		return fmt.Errorf("zip: level=%s: only level 1 is supported", v)
	}
	return nil
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
	out.BlockOutput = driver.NewBlockOutput(lower, blockSize, blockSize/2, blockSize, out.emit)
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
// still buffered when a large write bypasses them — and writes the
// blocks down.
func (o *Output) emit(head, body []byte) (int, error) {
	sent := 0
	for _, src := range [2][]byte{head, body} {
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
// header no block of its stack can have: past its block= size or the
// flag's worst case, or a stored block whose two lengths differ.
var ErrBlockTooLarge = errors.New("zip: block larger than the stack's bound")

// Input is the decompressing side. It dispatches per block on the flag
// byte (codec registry in codec.go), so streams from any codec — and
// any mix — decode through the same Input.
type Input struct {
	*driver.BlockInput
	lower    driver.Input
	maxBlock uint32
	hdrBuf   [headerSize]byte
}

// NewInput creates a decompressing input over lower for blocks of at most
// block bytes (0 = DefaultBlockSize), the stack's block= size.
func NewInput(lower driver.Input, block int) *Input {
	if block <= 0 {
		block = DefaultBlockSize
	}
	in := &Input{lower: lower, maxBlock: uint32(min(block, wire.MaxFrameLen))}
	in.BlockInput = driver.NewBlockInput(lower, in.fill)
	return in
}

// readPayload reads a block's n stored bytes into a pooled buffer.
func (in *Input) readPayload(n uint32) (*wire.Buf, error) {
	payload := wire.GetBuf(int(n))
	if _, err := io.ReadFull(in.lower, payload.Bytes()); err != nil {
		payload.Release()
		return nil, fmt.Errorf("zip: truncated block: %w", err)
	}
	return payload, nil
}

// fill reads the next block from the lower driver. When the whole
// decoded block fits the caller's destination slice, it is decoded (or,
// for stored blocks, read) straight into it and the consumed length is
// returned — no pooled intermediate block. Otherwise the block is
// decoded into a pooled buffer.
func (in *Input) fill(direct []byte) (int, *wire.Buf, error) {
	if _, err := io.ReadFull(in.lower, in.hdrBuf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		return 0, nil, err
	}
	flag := in.hdrBuf[0]
	origLen := binary.BigEndian.Uint32(in.hdrBuf[1:5])
	storedLen := binary.BigEndian.Uint32(in.hdrBuf[5:9])
	// Nine unauthenticated bytes: hold them to the stack's block size and
	// the flag's worst case before taking a buffer.
	if origLen > in.maxBlock {
		return 0, nil, fmt.Errorf("%w: %d bytes declared, blocks hold %d", ErrBlockTooLarge, origLen, in.maxBlock)
	}
	if flag == flagStored {
		if storedLen != origLen {
			return 0, nil, fmt.Errorf("%w: stored block of %d bytes declares %d", ErrBlockTooLarge, storedLen, origLen)
		}
		if int(storedLen) <= len(direct) && storedLen > 0 {
			if _, err := io.ReadFull(in.lower, direct[:storedLen]); err != nil {
				return 0, nil, fmt.Errorf("zip: truncated block: %w", err)
			}
			return int(storedLen), nil, nil
		}
		payload, err := in.readPayload(storedLen)
		return 0, payload, err
	}
	dec, ok := decoders[flag]
	if !ok {
		return 0, nil, fmt.Errorf("zip: unknown block flag %d", flag)
	}
	if bound := dec.bound(int(origLen)); int64(storedLen) > int64(bound) {
		return 0, nil, fmt.Errorf("%w: %d stored bytes for %d, at most %d", ErrBlockTooLarge, storedLen, origLen, bound)
	}
	payload, err := in.readPayload(storedLen)
	if err != nil {
		return 0, nil, err
	}
	defer payload.Release()
	if int(origLen) <= len(direct) && origLen > 0 {
		return int(origLen), nil, dec.decode(direct[:origLen], payload.Bytes())
	}
	out := wire.GetBuf(int(origLen))
	if err := dec.decode(out.Bytes(), payload.Bytes()); err != nil {
		out.Release()
		return 0, nil, err
	}
	return 0, out, nil
}
