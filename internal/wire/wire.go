// Package wire provides the low-level framing, encoding and buffer
// management shared by every NetIbis protocol and driver.
//
// All NetIbis links are byte streams (TCP sockets, emulated connections,
// relay-routed virtual links). Drivers and control protocols exchange
// discrete frames over those streams. A frame is a small header followed
// by a payload:
//
//	+--------+--------+----------------+
//	| kind   | flags  | length (uvar)  |  payload bytes ...
//	+--------+--------+----------------+
//
// The header is deliberately tiny: the paper's TCP_Block driver sends
// many small application messages and the per-frame overhead directly
// eats into the achievable bandwidth on slow WAN links.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
)

// Frame kinds used across NetIbis protocols. Drivers are free to define
// additional kinds above KindUser.
const (
	// KindData carries application payload.
	KindData byte = iota
	// KindFlush marks an explicit flush boundary (end of message).
	KindFlush
	// KindControl carries driver or factory control information.
	KindControl
	// KindClose announces an orderly shutdown of the link.
	KindClose
	// KindKeepAlive keeps relay-routed links warm. Kind 4 is unassigned:
	// the establishment framing that held it is gone, and a number is not
	// handed out twice.
	KindKeepAlive byte = 5
	// KindUser is the first kind available for driver-private use.
	KindUser byte = 0x20
)

// MaxFrameLen bounds the payload length of a single frame. Larger
// application messages are fragmented by the drivers above this layer.
const MaxFrameLen = 1 << 26 // 64 MiB

// Common errors.
var (
	// ErrFrameTooLarge is returned when an encoded or decoded frame
	// exceeds MaxFrameLen.
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum length")
	// ErrCorruptFrame is returned when a frame header cannot be parsed.
	ErrCorruptFrame = errors.New("wire: corrupt frame header")
)

// Frame is a decoded frame. The payload is a stable copy owned by the
// caller (hot paths that want to avoid the copy use Reader.ReadFrameBuf
// and receive an owned pooled Buf instead).
type Frame struct {
	Kind    byte
	Flags   byte
	Payload []byte
}

// String implements fmt.Stringer for debugging and log output.
func (f Frame) String() string {
	return fmt.Sprintf("frame{kind=%d flags=%#x len=%d}", f.Kind, f.Flags, len(f.Payload))
}

// coalesceMax is the threshold of the one conn-write rule (see
// WriteFrameBatch), in encoded bytes: 4 KiB of payload plus headroom for
// the wire and routing headers in front of it, so a 4 KiB application
// write is still one conn write after a routed link and a service mux
// have each prefixed theirs.
const coalesceMax = 4096 + 512

// smallFrame is the largest frame body, in encoded payload bytes, that a
// vectored write carries in its header arena, next to the wire header of
// the frame that follows it (see WriteFrameBatch).
const smallFrame = 64

// Writer encodes frames onto an io.Writer. It is not safe for concurrent
// use; callers serialise access (the drivers hold a per-link mutex).
type Writer struct {
	w io.Writer
	// scratch is the coalescing buffer, allocated once at coalesceMax on
	// the first small batch.
	scratch []byte
	// vecBase is the reused backing storage for vectored writes and
	// vecView the consumable view handed to net.Buffers.WriteTo: WriteTo
	// advances (consumes) its receiver, so the view is re-sliced from the
	// base on every write. Both live in the Writer so the vectored path
	// allocates nothing (a local view would escape through WriteTo's
	// pointer receiver).
	vecBase net.Buffers
	vecView net.Buffers
	// batchHdr is the reused per-frame header arena: all wire headers of
	// one batch are encoded into it back to back, so a steady-state
	// batch write allocates nothing.
	batchHdr []byte
}

// NewWriter returns a frame Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, vecBase: make(net.Buffers, 0, 8)}
}

// WriteFrame encodes and writes a single frame: a one-frame
// WriteFrameBatch.
func (fw *Writer) WriteFrame(kind, flags byte, payload []byte) error {
	one := [1]BatchFrame{{Kind: kind, Flags: flags, Payload: payload}}
	return fw.WriteFrameBatch(one[:])
}

// BatchFrame describes one frame of a batch. The frame body is the
// concatenation Hdr ++ Payload; either part may be empty, so a sender
// can prepend a small routing or framing header to a payload it does
// not own without assembling the two. Both slices must stay valid (and
// unshared with concurrent writers) until WriteFrameBatch returns.
type BatchFrame struct {
	Kind    byte
	Flags   byte
	Hdr     []byte
	Payload []byte
}

// WriteFrameBatch is the frame-write primitive: it writes every frame of
// the batch, in order, and how many conn writes that costs depends only
// on the batch's encoded size. Up to coalesceMax the batch is assembled
// in the Writer's scratch and leaves as exactly one Write — the paper's
// TCP_Block argument (one send per small message is ruinous) applied to
// every control message; on a conn that is not a kernel TCP socket
// (emulated, relay-routed) each Write is a link crossing. Above it
// the batch leaves as one vectored write of wire header plus non-empty
// parts per frame (one writev on TCP, one Write per element elsewhere)
// and no payload is copied or allocated: a block-sized frame, a buffered
// block followed by a bypassing one, and a relay egress burst all cross
// the socket layer once. On that path a frame of at most smallFrame
// payload bytes is copied whole into the header arena, where the next
// frame's wire header joins it, so a small frame in front of a large one
// (a length, a fragment header) costs no element of its own. The bytes on
// the wire are the same either way, and MaxFrameLen is checked for every
// frame before anything is written.
func (fw *Writer) WriteFrameBatch(frames []BatchFrame) error {
	if len(frames) == 0 {
		return nil
	}
	// Size the header arena up front: growing it mid-build would leave
	// the earlier vec entries aliasing the abandoned backing array.
	need := len(frames) * (2 + binary.MaxVarintLen64 + smallFrame)
	if cap(fw.batchHdr) < need {
		fw.batchHdr = make([]byte, 0, need)
	}
	hdrs := fw.batchHdr[:0]
	vec := fw.vecBase[:0]
	size, open := 0, 0 // open: where the arena bytes not yet in vec start
	for i := range frames {
		f := &frames[i]
		total := len(f.Hdr) + len(f.Payload)
		if total > MaxFrameLen {
			return ErrFrameTooLarge
		}
		start := len(hdrs)
		hdrs = binary.AppendUvarint(append(hdrs, f.Kind, f.Flags), uint64(total))
		size += len(hdrs) - start + total
		if total <= smallFrame {
			hdrs = append(append(hdrs, f.Hdr...), f.Payload...)
			continue
		}
		vec = append(vec, hdrs[open:])
		open = len(hdrs)
		if len(f.Hdr) > 0 {
			vec = append(vec, f.Hdr)
		}
		if len(f.Payload) > 0 {
			vec = append(vec, f.Payload)
		}
	}
	if open < len(hdrs) {
		vec = append(vec, hdrs[open:])
	}
	if cap(vec) > cap(fw.vecBase) {
		fw.vecBase = vec[:0]
	}
	if size <= coalesceMax {
		if fw.scratch == nil {
			fw.scratch = make([]byte, 0, coalesceMax)
		}
		buf := fw.scratch
		for _, part := range vec {
			buf = append(buf, part...)
		}
		_, err := fw.w.Write(buf)
		return err
	}
	fw.vecView = vec
	_, err := fw.vecView.WriteTo(fw.w)
	return err
}

// Reader decodes frames from an io.Reader.
type Reader struct {
	r      io.Reader
	uv     *UvarintReader
	hdrBuf [2]byte // reused header scratch (a local would escape into ReadFull)
}

// NewReader returns a frame Reader consuming from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, uv: NewUvarintReader(r)}
}

// ReadFrame reads the next frame. The returned payload is a stable copy
// owned by the caller: it stays valid across subsequent reads. Hot paths
// that process every payload should use ReadFrameBuf instead, which
// avoids the per-frame allocation by handing out a pooled Buf.
func (fr *Reader) ReadFrame() (Frame, error) {
	kind, flags, length, err := fr.readHeader()
	if err != nil {
		return Frame{}, err
	}
	payload := make([]byte, length)
	if err := fr.readPayload(payload); err != nil {
		return Frame{}, err
	}
	return Frame{Kind: kind, Flags: flags, Payload: payload}, nil
}

// ReadFrameBuf reads the next frame into a pooled Buf and transfers
// ownership to the caller, who must Release it exactly once: the
// ReadFrameInto of a caller with no slice of its own.
func (fr *Reader) ReadFrameBuf() (kind, flags byte, payload *Buf, err error) {
	kind, flags, _, payload, err = fr.ReadFrameInto(nil)
	return kind, flags, payload, err
}

// ReadFrameInto reads the next frame, its payload off the stream once. A
// non-empty payload that fits direct is read straight into it and n is
// its length; any other payload arrives in a pooled Buf whose ownership
// passes to the caller, who must Release it exactly once — the
// allocation-free fast path of the data plane, where the payload then
// travels by ownership transfer. On error nothing is held.
func (fr *Reader) ReadFrameInto(direct []byte) (kind, flags byte, n int, payload *Buf, err error) {
	kind, flags, length, err := fr.readHeader()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if length > 0 && length <= uint64(len(direct)) {
		if err := fr.readPayload(direct[:length]); err != nil {
			return 0, 0, 0, nil, err
		}
		return kind, flags, int(length), nil, nil
	}
	b := GetBuf(int(length))
	if err := fr.readPayload(b.Bytes()); err != nil {
		b.Release()
		return 0, 0, 0, nil, err
	}
	return kind, flags, 0, b, nil
}

// readPayload fills p from the stream: the header announced it, so an
// end of stream inside it is unexpected.
func (fr *Reader) readPayload(p []byte) error {
	_, err := io.ReadFull(fr.r, p)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// readHeader reads and validates the frame header.
func (fr *Reader) readHeader() (kind, flags byte, length uint64, err error) {
	if _, err := io.ReadFull(fr.r, fr.hdrBuf[:]); err != nil {
		return 0, 0, 0, err
	}
	length, err = fr.uv.ReadUvarint()
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, 0, err
	}
	if length > MaxFrameLen {
		return 0, 0, 0, ErrFrameTooLarge
	}
	return fr.hdrBuf[0], fr.hdrBuf[1], length, nil
}

// UvarintReader reads length prefixes off a byte stream: one byte at a
// time, so nothing past the varint is consumed and the payload behind
// it can be read from the same stream directly. It is the one
// stream-varint reader of the tree (frame headers here, fragment
// headers in multi).
type UvarintReader struct {
	r   io.Reader
	one [1]byte
	err error // the last ReadByte's error
}

// NewUvarintReader returns a UvarintReader consuming from r.
func NewUvarintReader(r io.Reader) *UvarintReader { return &UvarintReader{r: r} }

// ReadByte implements io.ByteReader.
func (u *UvarintReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(u.r, u.one[:]); err != nil {
		u.err = err
		return 0, err
	}
	return u.one[0], nil
}

// ReadUvarint reads one unsigned varint. A stream that ends cleanly
// before the first byte yields io.EOF, one that ends inside the varint
// io.ErrUnexpectedEOF; any other read error is passed through, and an
// encoding that overflows 64 bits is ErrCorruptFrame.
func (u *UvarintReader) ReadUvarint() (uint64, error) {
	u.err = nil
	v, err := binary.ReadUvarint(u)
	if err != nil && u.err == nil {
		err = ErrCorruptFrame
	}
	return v, err
}

// --- primitive encoding helpers -------------------------------------------

// AppendUvarint appends the unsigned varint encoding of v to dst.
func AppendUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(dst, tmp[:n]...)
}

// AppendString appends a length-prefixed UTF-8 string to dst.
func AppendString(dst []byte, s string) []byte {
	dst = AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends a length-prefixed byte slice to dst.
func AppendBytes(dst []byte, b []byte) []byte {
	dst = AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendUint32 appends v in big-endian order.
func AppendUint32(dst []byte, v uint32) []byte {
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:], v)
	return append(dst, tmp[:]...)
}

// AppendUint64 appends v in big-endian order.
func AppendUint64(dst []byte, v uint64) []byte {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], v)
	return append(dst, tmp[:]...)
}

// Decoder consumes the primitives appended by the Append helpers.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a Decoder over buf. The Decoder does not copy buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first decoding error encountered, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining reports the number of undecoded bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = ErrCorruptFrame
	}
}

// Uvarint decodes an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// String decodes a length-prefixed string.
func (d *Decoder) String() string {
	b := d.Bytes()
	return string(b)
}

// Bytes decodes a length-prefixed byte slice. The returned slice aliases
// the Decoder's buffer.
func (d *Decoder) Bytes() []byte {
	if d.err != nil {
		return nil
	}
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(d.Remaining()) < n {
		d.fail()
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// Byte decodes a single raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 1 {
		d.fail()
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Uint32 decodes a big-endian uint32.
func (d *Decoder) Uint32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 4 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// Uint64 decodes a big-endian uint64.
func (d *Decoder) Uint64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 8 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}
