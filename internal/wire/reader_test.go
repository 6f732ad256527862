package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// refReadFrame is the byte-at-a-time reference the Reader is held to: a
// two-byte header, one Read per length byte, then the payload, and
// nothing read past the frame. declared, when it returns false, skips a
// frame whose payload is more than a fuzz worker should read.
func refReadFrame(r io.Reader, declared func(uint64) bool) (Frame, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	length, err := binary.ReadUvarint(byteAtATime{r})
	switch {
	case err == io.EOF:
		return Frame{}, io.ErrUnexpectedEOF
	case err == io.ErrUnexpectedEOF:
		return Frame{}, err
	case err != nil:
		return Frame{}, ErrCorruptFrame // past 64 bits
	case length > MaxFrameLen:
		return Frame{}, ErrFrameTooLarge
	case !declared(length):
		return Frame{}, errSkip
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	return Frame{Kind: hdr[0], Flags: hdr[1], Payload: payload}, nil
}

var errSkip = io.ErrShortBuffer

// byteAtATime is an io.ByteReader that reads its stream one byte per Read.
type byteAtATime struct{ r io.Reader }

func (b byteAtATime) ReadByte() (byte, error) {
	var one [1]byte
	_, err := io.ReadFull(b.r, one[:])
	return one[0], err
}

// cutReader serves a stream in reads no longer than the sizes cuts
// cycles through (0: all the caller asks for); an odd size hands the
// stream's last bytes out together with io.EOF.
type cutReader struct {
	data  []byte
	cuts  []byte
	i     int
	reads int
}

func (c *cutReader) Read(p []byte) (int, error) {
	c.reads++
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n, eofWithData := len(p), false
	if len(c.cuts) > 0 {
		size := int(c.cuts[c.i%len(c.cuts)])
		c.i++
		if size > 0 {
			n = min(n, size)
		}
		eofWithData = size%2 == 1
	}
	n = copy(p, c.data[:min(n, len(c.data))])
	c.data = c.data[n:]
	if len(c.data) == 0 && eofWithData {
		return n, io.EOF
	}
	return n, nil
}

// FuzzReader cuts arbitrary bytes into arbitrary reads and reads them
// through the Reader, by each of its frame-reading methods in turn and
// into destinations of the sizes cuts names, and through the
// byte-at-a-time reference: both must yield the same frames, then the
// same error.
func FuzzReader(f *testing.F) {
	var stream bytes.Buffer
	w := NewWriter(&stream)
	w.WriteFrame(KindData, 0, []byte("hello"))
	w.WriteFrame(KindControl, 3, nil)
	w.WriteFrame(KindFlush, 0, bytes.Repeat([]byte{0xab}, 300))
	w.WriteFrame(KindData, 1, bytes.Repeat([]byte{0xcd}, 3*frameAhead))
	f.Add(stream.Bytes(), []byte{0})
	f.Add(stream.Bytes(), []byte{1})
	f.Add(stream.Bytes(), []byte{3, 200, 7})
	f.Add(stream.Bytes()[:stream.Len()-7], []byte{64, 0})
	f.Add([]byte{KindData, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}, []byte{1})
	f.Add([]byte{KindData, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, []byte{0})
	f.Add([]byte{KindData, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}, []byte{2})
	f.Add([]byte{KindData, 0, 0x80, 0x80, 0x80, 0x40}, []byte{0})
	f.Add([]byte{KindData}, []byte{})

	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		ref := bytes.NewReader(data)
		var want []Frame
		var wantErr error
		for {
			fr, err := refReadFrame(ref, func(n uint64) bool { return n <= 1<<20 })
			if err == errSkip {
				t.Skip("frame above the fuzzing budget")
			}
			if err != nil {
				wantErr = err
				break
			}
			want = append(want, fr)
		}

		r := NewReader(&cutReader{data: data, cuts: cuts})
		for i := 0; ; i++ {
			var fr Frame
			var err error
			switch i % 3 {
			case 0:
				fr, err = r.ReadFrame()
			case 1:
				direct := make([]byte, 1)
				if len(cuts) > 0 {
					direct = make([]byte, int(cuts[i%len(cuts)])*37)
				}
				var n int
				var b *Buf
				fr.Kind, fr.Flags, n, b, err = r.ReadFrameInto(direct)
				fr.Payload = direct[:n]
				if b != nil {
					fr.Payload = bytes.Clone(b.Bytes())
					b.Release()
				}
			case 2:
				var b *Buf
				fr.Kind, fr.Flags, b, err = r.ReadFrameBuf()
				if b != nil {
					fr.Payload = bytes.Clone(b.Bytes())
					b.Release()
				}
			}
			if i == len(want) {
				if err != wantErr {
					t.Fatalf("after %d frames: %v, the reference ends in %v", i, err, wantErr)
				}
				break
			}
			if err != nil {
				t.Fatalf("frame %d: %v where the reference read %v", i, err, want[i])
			}
			if fr.Kind != want[i].Kind || fr.Flags != want[i].Flags || !bytes.Equal(fr.Payload, want[i].Payload) {
				t.Fatalf("frame %d: %v, the reference read %v", i, fr, want[i])
			}
		}
		if ended := wantErr == io.EOF || wantErr == io.ErrUnexpectedEOF; ended && r.ahead != nil {
			t.Fatal("the read-ahead is held after the stream ended")
		}
	})
}

// TestReaderConnReads counts the conn Reads a frame costs over a conn
// that returns all it is asked for: a burst of 64 B frames shares its
// reads, and a 64 KiB frame is one read ahead and one straight into the
// payload's destination.
func TestReaderConnReads(t *testing.T) {
	var burst bytes.Buffer
	w := NewWriter(&burst)
	const frames = 1000
	for range frames {
		w.WriteFrame(KindData, 0, make([]byte, 64))
	}
	conn := &cutReader{data: burst.Bytes()}
	r := NewReader(conn)
	for range frames {
		if _, _, b, err := r.ReadFrameBuf(); err != nil {
			t.Fatal(err)
		} else {
			b.Release()
		}
	}
	if perFrame := float64(conn.reads) / frames; perFrame > 1 {
		t.Errorf("a burst of 64 B frames costs %.2f conn reads per frame, want at most 1", perFrame)
	}

	var block bytes.Buffer
	NewWriter(&block).WriteFrame(KindData, 0, make([]byte, 64<<10))
	conn = &cutReader{data: block.Bytes()}
	r = NewReader(conn)
	dst := make([]byte, 64<<10)
	if _, _, n, _, err := r.ReadFrameInto(dst); err != nil || n != len(dst) {
		t.Fatalf("ReadFrameInto = %d, %v", n, err)
	}
	if conn.reads > 2 {
		t.Errorf("a 64 KiB frame costs %d conn reads, want at most 2", conn.reads)
	}
}

// TestNextLendsOrDrainsTheReadAhead: Next hands a unit of the read-ahead's
// size class out in the read-ahead buffer itself, and a read-ahead buffer
// that holds bytes is never replaced otherwise: buffered bytes move to a
// new buffer only when a unit leaves in the old one. A drained read-ahead
// goes back to the pool, unless a unit past its size drained it on the
// way to being read straight: then it waits for what follows.
func TestNextLendsOrDrainsTheReadAhead(t *testing.T) {
	const size = 64<<10 + 512
	var stream []byte
	var want [][]byte
	for i, n := range []int{100, 40 << 10, 7, 60 << 10, 3000, 200 << 10, 1, 64 << 10} {
		unit := bytes.Repeat([]byte{byte(i + 1)}, n)
		stream = append(stream, unit...)
		want = append(want, unit)
	}
	for _, cut := range []byte{0, 5, 200} {
		r := NewUnitReader(&cutReader{data: stream, cuts: []byte{cut}}, size)
		for i, w := range want {
			before, buffered := r.ahead, r.end-r.off
			b, body, err := r.Next(len(w))
			if err != nil {
				t.Fatalf("cut %d, unit %d: %v", cut, i, err)
			}
			if !bytes.Equal(body, w) {
				t.Fatalf("cut %d, unit %d: wrong bytes", cut, i)
			}
			if b.Cap() != ClassSize(len(w)) {
				t.Fatalf("cut %d, unit %d of %d B is held in a %d B buffer, its class is %d B", cut, i, len(w), b.Cap(), ClassSize(len(w)))
			}
			if len(w) < buffered && r.ahead != before && b != before {
				t.Fatalf("cut %d, unit %d: the read-ahead bytes moved without a unit leaving in their buffer", cut, i)
			}
			if r.ahead != nil && r.off == r.end && len(w) < size {
				t.Fatalf("cut %d, unit %d: a drained read-ahead is held", cut, i)
			}
			b.Release()
		}
		if _, _, err := r.Next(1); err != io.EOF {
			t.Fatalf("cut %d: after the last unit %v, want io.EOF", cut, err)
		}
	}
}
