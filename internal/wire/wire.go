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
	"sync"
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
	// KindHandshake carries establishment/negotiation payloads.
	KindHandshake
	// KindKeepAlive keeps relay-routed links warm.
	KindKeepAlive
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

// Writer encodes frames onto an io.Writer. It is not safe for concurrent
// use; callers serialise access (the drivers hold a per-link mutex).
type Writer struct {
	w       io.Writer
	hdr     [2 + binary.MaxVarintLen64]byte
	hdr2    [2 + binary.MaxVarintLen64]byte
	scratch []byte
	// vecBase is the reused backing storage for vectored writes and
	// vecView the consumable view handed to net.Buffers.WriteTo: WriteTo
	// advances (consumes) its receiver, so the view is re-sliced from the
	// base on every write. Both live in the Writer so the vectored fast
	// path allocates nothing (a local view would escape through WriteTo's
	// pointer receiver).
	vecBase net.Buffers
	vecView net.Buffers
	// batchHdr is the reused per-frame header arena of WriteFrameBatch:
	// all wire headers of one batch are encoded into it back to back, so
	// a steady-state batch write allocates nothing.
	batchHdr []byte
}

// NewWriter returns a frame Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, vecBase: make(net.Buffers, 0, 8)}
}

// WriteFrame encodes and writes a single frame.
func (fw *Writer) WriteFrame(kind, flags byte, payload []byte) error {
	if len(payload) > MaxFrameLen {
		return ErrFrameTooLarge
	}
	fw.hdr[0] = kind
	fw.hdr[1] = flags
	n := binary.PutUvarint(fw.hdr[2:], uint64(len(payload)))
	// Coalesce header+payload into one Write where it is cheap to do so:
	// small payloads dominate in parallel applications and issuing two
	// Writes per frame doubles syscall (or emulated-link) cost.
	if len(payload) <= 4096 {
		need := 2 + n + len(payload)
		if cap(fw.scratch) < need {
			fw.scratch = make([]byte, 0, need+1024)
		}
		buf := fw.scratch[:0]
		buf = append(buf, fw.hdr[:2+n]...)
		buf = append(buf, payload...)
		_, err := fw.w.Write(buf)
		return err
	}
	if _, err := fw.w.Write(fw.hdr[:2+n]); err != nil {
		return err
	}
	_, err := fw.w.Write(payload)
	return err
}

// WriteFrameNoCopy writes a single frame without ever copying the
// payload: header and payload are submitted as one vectored write
// (writev on TCP connections, sequential writes elsewhere). It is the
// cut-through path used when the payload is re-emitted verbatim, e.g. a
// routed frame crossing the relay.
func (fw *Writer) WriteFrameNoCopy(kind, flags byte, payload []byte) error {
	if len(payload) > MaxFrameLen {
		return ErrFrameTooLarge
	}
	fw.hdr[0] = kind
	fw.hdr[1] = flags
	n := binary.PutUvarint(fw.hdr[2:], uint64(len(payload)))
	if len(payload) == 0 {
		_, err := fw.w.Write(fw.hdr[:2+n])
		return err
	}
	fw.vecView = append(fw.vecBase[:0], fw.hdr[:2+n], payload)
	_, err := fw.vecView.WriteTo(fw.w)
	return err
}

// WriteFramePairNoCopy writes two frames as a single vectored write
// without copying either payload. TCP_Block uses it to flush its
// aggregation buffer and a large bypassing payload in one writev instead
// of two round trips through the socket layer.
func (fw *Writer) WriteFramePairNoCopy(kind1, flags1 byte, p1 []byte, kind2, flags2 byte, p2 []byte) error {
	if len(p1) > MaxFrameLen || len(p2) > MaxFrameLen {
		return ErrFrameTooLarge
	}
	fw.hdr[0] = kind1
	fw.hdr[1] = flags1
	n1 := binary.PutUvarint(fw.hdr[2:], uint64(len(p1)))
	fw.hdr2[0] = kind2
	fw.hdr2[1] = flags2
	n2 := binary.PutUvarint(fw.hdr2[2:], uint64(len(p2)))
	fw.vecView = append(fw.vecBase[:0], fw.hdr[:2+n1])
	if len(p1) > 0 {
		fw.vecView = append(fw.vecView, p1)
	}
	fw.vecView = append(fw.vecView, fw.hdr2[:2+n2])
	if len(p2) > 0 {
		fw.vecView = append(fw.vecView, p2)
	}
	_, err := fw.vecView.WriteTo(fw.w)
	return err
}

// WriteFrameParts writes a single frame whose payload is the
// concatenation of parts, as one vectored write and without copying any
// part. It lets a sender prepend a small routing or framing header to a
// payload it does not own without assembling the two into a fresh
// buffer.
func (fw *Writer) WriteFrameParts(kind, flags byte, parts ...[]byte) error {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total > MaxFrameLen {
		return ErrFrameTooLarge
	}
	fw.hdr[0] = kind
	fw.hdr[1] = flags
	n := binary.PutUvarint(fw.hdr[2:], uint64(total))
	fw.vecView = append(fw.vecBase[:0], fw.hdr[:2+n])
	for _, p := range parts {
		if len(p) > 0 {
			fw.vecView = append(fw.vecView, p)
		}
	}
	if cap(fw.vecView) > cap(fw.vecBase) {
		fw.vecBase = fw.vecView[:0]
	}
	_, err := fw.vecView.WriteTo(fw.w)
	return err
}

// BatchFrame describes one frame of a multi-frame vectored write. The
// frame body is the concatenation Hdr ++ Payload; either part may be
// empty. Neither slice is copied — both must stay valid (and unshared
// with concurrent writers) until WriteFrameBatch returns.
type BatchFrame struct {
	Kind    byte
	Flags   byte
	Hdr     []byte
	Payload []byte
}

// WriteFrameBatch writes every frame of the batch as a single vectored
// write (one writev on TCP connections): N frames cross the socket
// layer for one syscall instead of N. No payload or header part is
// copied; the per-frame wire headers are encoded into a Writer-local
// arena reused across batches, so the steady-state batch write
// allocates nothing. It is the relay egress scheduler's emission path:
// a burst of queued frames drains in one syscall, and every retained
// owner is released by the caller after the batch write returns.
func (fw *Writer) WriteFrameBatch(frames []BatchFrame) error {
	if len(frames) == 0 {
		return nil
	}
	// Size the header arena up front: growing it mid-build would leave
	// the earlier vec entries aliasing the abandoned backing array.
	need := len(frames) * (2 + binary.MaxVarintLen64)
	if cap(fw.batchHdr) < need {
		fw.batchHdr = make([]byte, 0, need)
	}
	hdrs := fw.batchHdr[:0]
	vec := fw.vecBase[:0]
	for i := range frames {
		f := &frames[i]
		total := len(f.Hdr) + len(f.Payload)
		if total > MaxFrameLen {
			return ErrFrameTooLarge
		}
		start := len(hdrs)
		hdrs = append(hdrs, f.Kind, f.Flags)
		n := binary.PutUvarint(hdrs[len(hdrs):len(hdrs)+binary.MaxVarintLen64], uint64(total))
		hdrs = hdrs[:start+2+n]
		vec = append(vec, hdrs[start:])
		if len(f.Hdr) > 0 {
			vec = append(vec, f.Hdr)
		}
		if len(f.Payload) > 0 {
			vec = append(vec, f.Payload)
		}
	}
	fw.vecView = vec
	if cap(fw.vecView) > cap(fw.vecBase) {
		fw.vecBase = fw.vecView[:0]
	}
	_, err := fw.vecView.WriteTo(fw.w)
	return err
}

// Reader decodes frames from an io.Reader.
type Reader struct {
	r      io.Reader
	br     *byteReader
	hdrBuf [2]byte // reused header scratch (a local would escape into ReadFull)
}

// NewReader returns a frame Reader consuming from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, br: &byteReader{r: r}}
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
	if _, err := io.ReadFull(fr.br, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	return Frame{Kind: kind, Flags: flags, Payload: payload}, nil
}

// ReadFrameBuf reads the next frame into a pooled Buf and transfers
// ownership to the caller, who must Release it exactly once. This is the
// allocation-free fast path of the data plane: the payload is read off
// the stream once and can then travel by ownership transfer.
func (fr *Reader) ReadFrameBuf() (kind, flags byte, payload *Buf, err error) {
	kind, flags, length, err := fr.readHeader()
	if err != nil {
		return 0, 0, nil, err
	}
	b := GetBuf(int(length))
	if _, err := io.ReadFull(fr.br, b.Bytes()); err != nil {
		b.Release()
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, err
	}
	return kind, flags, b, nil
}

// readHeader reads and validates the frame header.
func (fr *Reader) readHeader() (kind, flags byte, length uint64, err error) {
	if _, err := io.ReadFull(fr.br, fr.hdrBuf[:]); err != nil {
		return 0, 0, 0, err
	}
	length, err = binary.ReadUvarint(fr.br)
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

// byteReader adapts an io.Reader to io.ByteReader without losing
// buffered data (it reads one byte at a time only for the varint).
type byteReader struct {
	r   io.Reader
	one [1]byte
}

func (b *byteReader) Read(p []byte) (int, error) { return b.r.Read(p) }

func (b *byteReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(b.r, b.one[:]); err != nil {
		return 0, err
	}
	return b.one[0], nil
}

// --- buffer pooling -------------------------------------------------------

// bufPool recycles payload buffers between drivers to keep allocation out
// of the per-message fast path.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64*1024)
		return &b
	},
}

// GetBuffer returns a pooled byte slice with length n. The slice must be
// returned with PutBuffer when no longer needed.
func GetBuffer(n int) []byte {
	bp := bufPool.Get().(*[]byte)
	b := *bp
	if cap(b) < n {
		b = make([]byte, n)
	}
	return b[:n]
}

// PutBuffer returns a buffer obtained from GetBuffer to the pool.
func PutBuffer(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	bufPool.Put(&b)
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
