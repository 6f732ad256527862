package wire

import (
	"encoding/binary"
	"io"
)

// frameAhead is a frame Reader's read-ahead: one coalesced batch, the
// most a single Write carries below the vectored path (see
// WriteFrameBatch), so a burst of small frames is one conn Read.
const frameAhead = coalesceMax

// Reader reads one byte stream: frames, and the units framed inside a
// stream. It reads ahead into a pooled buffer of a fixed size, taken when
// a read needs it and returned once drained, and parses headers and
// small units out of it. It is not safe for concurrent use, and a stream
// has exactly one Reader (see the package doc).
type Reader struct {
	r     io.Reader
	size  int  // the read-ahead's size: the largest unit read whole out of it
	ahead *Buf // nil when drained; [off:end) is read and not yet consumed
	off   int
	end   int
}

// NewReader returns a frame Reader consuming from r.
func NewReader(r io.Reader) *Reader { return NewUnitReader(r, frameAhead) }

// NewUnitReader returns a Reader whose read-ahead holds size bytes: the
// largest unit its caller reads whole out of the buffer (a sealed
// record, a block and its framing), so the layer below can read such a
// unit straight into place.
func NewUnitReader(r io.Reader, size int) *Reader { return &Reader{r: r, size: size} }

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
// non-empty payload that fits direct is read into it and n is its
// length; any other payload arrives in a pooled Buf whose ownership
// passes to the caller, who must Release it exactly once — the
// allocation-free fast path of the data plane, where the payload then
// travels by ownership transfer. Either way a payload past what is read
// ahead is read straight into its destination (see ReadFull). On error
// nothing is held.
func (fr *Reader) ReadFrameInto(direct []byte) (kind, flags byte, n int, payload *Buf, err error) {
	kind, flags, length, err := fr.readHeader()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if length > 0 && length <= len(direct) {
		if err := fr.readPayload(direct[:length]); err != nil {
			return 0, 0, 0, nil, err
		}
		return kind, flags, length, nil, nil
	}
	b := GetBuf(length)
	if err := fr.readPayload(b.Bytes()); err != nil {
		b.Release()
		return 0, 0, 0, nil, err
	}
	return kind, flags, 0, b, nil
}

// readHeader reads and validates a frame header: kind, flags and a
// length no larger than MaxFrameLen.
func (fr *Reader) readHeader() (kind, flags byte, length int, err error) {
	hdr, err := fr.Peek(2)
	if err != nil {
		return 0, 0, 0, err
	}
	kind, flags = hdr[0], hdr[1]
	fr.Discard(2)
	v, err := fr.ReadUvarint()
	switch {
	case err == io.EOF:
		return 0, 0, 0, io.ErrUnexpectedEOF
	case err != nil:
		return 0, 0, 0, err
	case v > MaxFrameLen:
		return 0, 0, 0, ErrFrameTooLarge
	}
	return kind, flags, int(v), nil
}

// readPayload fills p from the stream: the header announced it, so an
// end of stream inside it is unexpected.
func (fr *Reader) readPayload(p []byte) error {
	if err := fr.ReadFull(p); err != io.EOF {
		return err
	}
	return io.ErrUnexpectedEOF
}

// ReadUvarint reads one unsigned varint out of the read-ahead. A stream
// that ends cleanly before its first byte yields io.EOF, one that ends
// inside it io.ErrUnexpectedEOF; any other read error is passed through,
// and an encoding that overflows 64 bits is ErrCorruptFrame.
func (fr *Reader) ReadUvarint() (uint64, error) {
	for n := 1; ; {
		if err := fr.fill(n); err != nil {
			return 0, err
		}
		b := fr.ahead.data[fr.off:min(fr.end, fr.off+binary.MaxVarintLen64)]
		v, k := binary.Uvarint(b)
		switch {
		case k > 0:
			fr.Discard(k)
			return v, nil
		case k < 0 || len(b) == binary.MaxVarintLen64:
			return 0, ErrCorruptFrame
		}
		n = len(b) + 1
	}
}

// Peek returns the next n bytes, n at most the read-ahead's size,
// without consuming them, reading ahead as needed; they stay valid until
// the next call on the Reader. A stream that ends before the first of
// them yields io.EOF, one that ends inside them io.ErrUnexpectedEOF.
func (fr *Reader) Peek(n int) ([]byte, error) {
	if err := fr.fill(n); err != nil || n == 0 {
		return nil, err
	}
	return fr.ahead.data[fr.off : fr.off+n], nil
}

// Discard consumes n bytes that Peek returned.
func (fr *Reader) Discard(n int) {
	fr.off += n
	if fr.off == fr.end && fr.ahead != nil {
		fr.ahead.Release()
		fr.ahead, fr.off, fr.end = nil, 0, 0
	}
}

// ReadFull reads exactly len(p) bytes into p. What is read ahead is
// copied; the rest is read straight into p when it is at least a
// read-ahead's worth (bufio's large-read rule), and read ahead and
// copied when it is less. A read-ahead that a straight read drains is
// kept for the header that follows a bulk payload, not cycled through
// the pool once per payload. Like io.ReadFull it yields io.EOF only when
// no byte was read, and io.ErrUnexpectedEOF when some were.
func (fr *Reader) ReadFull(p []byte) error {
	k := 0
	for {
		straight := len(p)-k-(fr.end-fr.off) >= fr.size
		if fr.ahead != nil {
			c := copy(p[k:], fr.ahead.data[fr.off:fr.end])
			k += c
			if fr.off += c; straight {
				fr.off, fr.end = 0, 0
			} else {
				fr.Discard(0)
			}
		}
		if k == len(p) {
			return nil
		}
		var err error
		if straight {
			var m int
			if m, err = io.ReadFull(fr.r, p[k:]); err != nil {
				fr.Discard(0)
			}
			k += m
		} else {
			err = fr.fill(len(p) - k)
		}
		if err == io.EOF && k > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil || straight {
			return err
		}
	}
}

// Next hands out the next n bytes of the stream in a pooled Buf whose
// reference passes to the caller, with body the slice of it that holds
// them. A unit of the read-ahead's own size class leaves in the
// read-ahead buffer itself, read into place, and the bytes read past it
// move to a fresh one; any other is copied into a Buf of its class, or,
// past the read-ahead, read straight into it (see ReadFull). On error
// nothing is held.
func (fr *Reader) Next(n int) (*Buf, []byte, error) {
	if n > 0 && n <= fr.size && ClassSize(n) == ClassSize(fr.size) {
		if err := fr.fill(n); err != nil {
			return nil, nil, err
		}
		b, body, rest := fr.ahead, fr.ahead.data[fr.off:fr.off+n], fr.ahead.data[fr.off+n:fr.end]
		fr.ahead, fr.off, fr.end = nil, 0, 0
		if len(rest) > 0 {
			fr.ahead = GetBuf(fr.size)
			fr.end = copy(fr.ahead.data, rest)
		}
		return b, body, nil
	}
	b := GetBuf(n)
	body := b.Bytes()
	if err := fr.ReadFull(body); err != nil {
		b.Release()
		return nil, nil, err
	}
	return b, body, nil
}

// fill reads ahead until n bytes, at most the read-ahead's size, are
// buffered. When they would not fit behind the bytes already buffered,
// those move to the front first, so a unit always finds room for all of
// it and the layer below can read it straight into place. A stream that
// ends with nothing buffered yields io.EOF, one that ends with fewer
// than n bytes io.ErrUnexpectedEOF, and the buffer goes back to the pool
// either way.
func (fr *Reader) fill(n int) error {
	if fr.end-fr.off >= n {
		return nil
	}
	if n > fr.size {
		panic("wire: a unit larger than the read-ahead")
	}
	if fr.ahead == nil {
		fr.ahead = GetBuf(fr.size)
	} else if fr.off+n > fr.size {
		fr.end = copy(fr.ahead.data, fr.ahead.data[fr.off:fr.end])
		fr.off = 0
	}
	for fr.end-fr.off < n {
		k, err := fr.r.Read(fr.ahead.data[fr.end:fr.size])
		fr.end += k
		if err == nil || fr.end-fr.off >= n {
			continue
		}
		if err == io.EOF && fr.off < fr.end {
			fr.off, err = fr.end, io.ErrUnexpectedEOF // nothing follows the partial unit
		}
		if fr.off == fr.end {
			fr.Discard(0)
		}
		return err
	}
	return nil
}
