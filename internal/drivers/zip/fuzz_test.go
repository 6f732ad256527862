package zip

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// FuzzZipInput feeds arbitrary bytes to an Input as its lower stream. It
// must end in EOF or an error without panicking and must never deliver
// more than the block headers in the stream declare (origLen, block by
// block). That every pooled Buf is released on every path is netibis-vet
// bufref's to check: the pool keeps no count a test could read.
// tools/gencorpus writes the committed seeds.
func FuzzZipInput(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Walk the framing as the decoder will, for the bound and to skip
		// streams that make it allocate more than a fuzz worker should:
		// nine unauthenticated bytes may declare up to wire.MaxFrameLen
		// (ROADMAP item 5's audit).
		declared := 0
		for rest := data; len(rest) >= headerSize; {
			origLen := int(binary.BigEndian.Uint32(rest[1:5]))
			storedLen := int(binary.BigEndian.Uint32(rest[5:9]))
			if origLen > 1<<20 || storedLen > 1<<20 {
				t.Skip("block above the fuzzing budget")
			}
			if len(rest)-headerSize < storedLen {
				break
			}
			declared += origLen
			rest = rest[headerSize+storedLen:]
		}
		in := NewInput(io.NopCloser(bytes.NewReader(data)))
		defer in.Close()
		got, _ := io.ReadAll(in) // any error is a fine way to end
		if len(got) > declared {
			t.Fatalf("delivered %d bytes, the block headers declare %d", len(got), declared)
		}
	})
}
