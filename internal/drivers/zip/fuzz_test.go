package zip

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// oversize reports whether a block header declares lengths an Input for
// blocks of block bytes refuses with ErrBlockTooLarge: an original length
// above block, stored bytes above the flag's worst case, or a stored
// block's two lengths differing. An unknown flag is not oversize.
func oversize(flag byte, origLen, storedLen uint32, block int) bool {
	if origLen > uint32(block) {
		return true
	}
	if flag == flagStored {
		return storedLen != origLen
	}
	dec, ok := decoders[flag]
	return ok && int64(storedLen) > int64(dec.bound(int(origLen)))
}

// FuzzZipInput feeds arbitrary bytes to an Input as its lower stream. It
// must end in EOF or an error without panicking and must never deliver
// more than the block headers in the stream declare (origLen, block by
// block). A header oversize refuses ends the stream with
// ErrBlockTooLarge, and nothing else does. That every pooled Buf is released on every path is
// netibis-vet bufref's to check: the pool keeps no count a test could
// read. tools/gencorpus writes the committed seeds.
func FuzzZipInput(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Walk the framing as the decoder will, up to the first oversized
		// header.
		declared, tooLarge, empty := 0, false, false
		for rest := data; len(rest) >= headerSize; {
			origLen := binary.BigEndian.Uint32(rest[1:5])
			storedLen := binary.BigEndian.Uint32(rest[5:9])
			if tooLarge = oversize(rest[0], origLen, storedLen, DefaultBlockSize); tooLarge {
				break
			}
			if len(rest)-headerSize < int(storedLen) {
				break
			}
			declared += int(origLen)
			empty = empty || origLen == 0
			rest = rest[headerSize+int(storedLen):]
		}
		in := NewInput(io.NopCloser(bytes.NewReader(data)), 0)
		defer in.Close()
		got, err := io.ReadAll(in) // any error is a fine way to end
		if len(got) > declared {
			t.Fatalf("delivered %d bytes, the block headers declare %d", len(got), declared)
		}
		switch refused := errors.Is(err, ErrBlockTooLarge); {
		case refused && (!tooLarge || len(got) != declared):
			t.Fatalf("%v after %d of %d bytes, oversized header: %v", err, len(got), declared, tooLarge)
		case !refused && tooLarge && len(got) == declared && !empty:
			// Every block before the oversized header delivered all of its
			// bytes, so the Input reached it.
			t.Fatalf("reached an oversized header, ended with %v", err)
		}
	})
}

// TestInputBoundsBlockLengths holds each length in a block header to
// what the stack can have sent: ErrBlockTooLarge past the bound, any
// other outcome within it.
func TestInputBoundsBlockLengths(t *testing.T) {
	const block = 4096
	for _, tc := range []struct {
		name               string
		flag               byte
		origLen, storedLen uint32
		tooLarge           bool
	}{
		{"original length at the block size", flagDeflate, block, 10, false},
		{"original length past the block size", flagDeflate, block + 1, 10, true},
		{"64 MiB declared", flagLZ, 64 << 20, 64 << 20, true},
		{"stored at its length", flagStored, block, block, false},
		{"stored past its length", flagStored, 100, 101, true},
		{"stored short of its length", flagStored, 100, 99, true},
		{"deflate at its bound", flagDeflate, block, uint32(deflateBound(block)), false},
		{"deflate past its bound", flagDeflate, block, uint32(deflateBound(block)) + 1, true},
		{"lz at its bound", flagLZ, block, uint32(lzCodec{}.Bound(block)), false},
		{"lz past its bound", flagLZ, block, uint32(lzCodec{}.Bound(block)) + 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hdr := []byte{tc.flag, 0, 0, 0, 0, 0, 0, 0, 0}
			binary.BigEndian.PutUint32(hdr[1:5], tc.origLen)
			binary.BigEndian.PutUint32(hdr[5:9], tc.storedLen)
			in := NewInput(io.NopCloser(bytes.NewReader(hdr)), block)
			defer in.Close()
			_, err := in.Read(make([]byte, 64))
			if errors.Is(err, ErrBlockTooLarge) != tc.tooLarge {
				t.Fatalf("error %v, want ErrBlockTooLarge: %v", err, tc.tooLarge)
			}
		})
	}
}
