package tcpblk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"

	"netibis/internal/wire"
)

// streamConn is a connection whose peer sent the given bytes.
type streamConn struct {
	net.Conn
	r *bytes.Reader
}

func (c streamConn) Read(p []byte) (int, error) { return c.r.Read(p) }
func (c streamConn) Close() error               { return nil }

// fuzzFrameBudget skips streams declaring a frame above it: the header's
// length sizes the buffer before the payload is read, up to
// wire.MaxFrameLen, more than a fuzz worker should allocate.
const fuzzFrameBudget = 1 << 20

// refDecode is the reference decoder of a TCP_Block stream: the bytes of
// its data frames up to a close frame or the end, and how it ends — nil
// for a clean end, otherwise the typed error the driver must return.
// ok is false for a stream that declares a frame above the budget.
func refDecode(stream []byte) (data []byte, end error, ok bool) {
	rest := bytes.NewReader(stream)
	for rest.Len() > 0 {
		kind, _ := rest.ReadByte()
		if _, err := rest.ReadByte(); err != nil {
			return data, io.ErrUnexpectedEOF, true
		}
		length, err := binary.ReadUvarint(rest)
		switch {
		case err == io.EOF || err == io.ErrUnexpectedEOF:
			return data, io.ErrUnexpectedEOF, true
		case err != nil:
			return data, wire.ErrCorruptFrame, true
		case length > wire.MaxFrameLen:
			return data, wire.ErrFrameTooLarge, true
		case length > fuzzFrameBudget:
			return nil, nil, false
		case length > uint64(rest.Len()):
			return data, io.ErrUnexpectedEOF, true
		}
		payload := make([]byte, length)
		rest.Read(payload)
		switch kind {
		case wire.KindData:
			data = append(data, payload...)
		case wire.KindClose:
			return data, nil, true
		}
	}
	return data, nil, true
}

// FuzzTcpblkInput feeds arbitrary bytes to an Input as its connection.
// Read with a 1-byte and with a 128 KiB slice, so that frames arrive both
// in pooled buffers and straight in the caller's slice, it must deliver
// exactly the reference decoder's bytes and end as the stream does: EOF
// for a clean end, the reference's typed error otherwise, never a panic.
// Walked frame by frame, every Buf fill hands up is owned once, and
// neither a direct read nor an error comes with one; that every Buf
// fill does not hand up is released is netibis-vet bufref's to check.
// tools/gencorpus writes the committed seeds.
func FuzzTcpblkInput(f *testing.F) {
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, stream []byte) {
		want, end, ok := refDecode(stream)
		if !ok {
			t.Skip("frame above the fuzzing budget")
		}
		for _, size := range []int{1, 128 << 10} {
			in := NewInput(streamConn{r: bytes.NewReader(stream)})
			p := make([]byte, size)
			var got []byte
			var err error
			for err == nil {
				var n int
				n, err = in.Read(p)
				got = append(got, p[:n]...)
			}
			in.Close()
			if !bytes.Equal(got, want) {
				t.Fatalf("%d-byte reads delivered %d bytes, the reference %d", size, len(got), len(want))
			}
			if err == io.EOF {
				err = nil
			}
			if !errors.Is(err, end) {
				t.Fatalf("%d-byte reads ended in %v, the reference in %v", size, err, end)
			}
		}

		in := NewInput(streamConn{r: bytes.NewReader(stream)})
		defer in.Close()
		for i := 0; ; i++ {
			direct := make([]byte, []int{1, 128 << 10}[i%2])
			n, b, err := in.fill(direct)
			if b != nil {
				if err != nil || n != 0 || b.Refs() != 1 {
					t.Fatalf("fill handed up a Buf of %d references with n %d, err %v", b.Refs(), n, err)
				}
				b.Release()
			}
			if err != nil {
				break
			}
		}
	})
}
