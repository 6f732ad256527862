package secure

import (
	"bytes"
	"io"
	"testing"
)

// The fixed key and plaintext of FuzzSealInput; tools/gencorpus seals the
// committed seeds under the same two.
var (
	fuzzKey       = bytes.Repeat([]byte{7}, 32)
	fuzzPlaintext = []byte("one sealed record")
)

// boundedInput is the lower driver of the fuzzed SealInput: it feeds the
// fuzz bytes and remembers the largest read the SealInput asked of it.
type boundedInput struct {
	r       *bytes.Reader
	maxRead int
}

func (b *boundedInput) Read(p []byte) (int, error) {
	b.maxRead = max(b.maxRead, len(p))
	return b.r.Read(p)
}

func (b *boundedInput) Close() error { return nil }

// FuzzSealInput feeds arbitrary bytes to a SealInput as its stream. It
// must end in an error (or EOF) without panicking, must read into nothing
// larger than its fixed read-ahead buffer — one record of a block, its
// length prefix and the AEAD tag — whatever the unauthenticated length
// prefix says, and must deliver nothing it did not authenticate: the
// fuzzer cannot forge a record, so the only plaintext that can come out
// is the seed's.
func FuzzSealInput(f *testing.F) {
	stream := runSession(f, fuzzKey, fuzzPlaintext)
	f.Add(stream)
	f.Add(stream[:len(stream)-5])
	f.Add([]byte{})

	const block = 1024
	f.Fuzz(func(t *testing.T, data []byte) {
		lower := &boundedInput{r: bytes.NewReader(data)}
		in := NewSealInput(lower, fuzzKey, block)
		defer in.Close()
		got, _ := io.ReadAll(in) // any error is a fine way to end
		if len(got) != 0 && !bytes.Equal(got, fuzzPlaintext) {
			t.Fatalf("delivered %q, which nobody sealed", got)
		}
		if bound := recordLenSize + block + tagSize; lower.maxRead > bound {
			t.Fatalf("read %d bytes at once: past the %d-byte read-ahead buffer", lower.maxRead, bound)
		}
	})
}

// chunkedInput serves a stream in reads no longer than the sizes it
// cycles through (0: as much as the reader asks for).
type chunkedInput struct {
	data  []byte
	sizes []byte
	i     int
}

func (c *chunkedInput) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if len(c.sizes) > 0 {
		if size := int(c.sizes[c.i%len(c.sizes)]); size > 0 {
			n = min(n, size)
		}
		c.i++
	}
	n = copy(p, c.data[:min(n, len(c.data))])
	c.data = c.data[n:]
	return n, nil
}

func (c *chunkedInput) Close() error { return nil }

// FuzzSealRoundTrip seals a plaintext written in the pieces script names
// (a byte below 200 writes that many bytes, any other flushes) and opens
// it from a lower driver that serves the stream in the read sizes reads
// cycles through, into caller slices of sizes taken from reads as well.
// Writes below the block aggregate, block-sized ones bypass, and a write
// behind pending bytes seals those as a record of their own; one-byte
// reads split every record, large ones hold several and part of the
// next. The plaintext must arrive byte-exact, followed by io.EOF.
func FuzzSealRoundTrip(f *testing.F) {
	f.Add([]byte{5, 100, 255}, []byte{0})            // pending bytes, then a bypassing write
	f.Add([]byte{5, 100, 255}, []byte{1})            // one-byte reads
	f.Add([]byte{3, 255, 7, 255, 2, 255}, []byte{0}) // several small records per read
	f.Add([]byte{64, 130, 10, 199}, []byte{30, 90, 7})
	f.Add([]byte{5, 255, 5, 255, 5, 255, 5, 255}, []byte{23}) // reads that split length prefixes
	f.Add([]byte{}, []byte{})

	const block = 64
	f.Fuzz(func(t *testing.T, script, reads []byte) {
		sink := &sinkOutput{}
		out, err := NewSealOutput(sink, fuzzKey, block)
		if err != nil {
			t.Fatal(err)
		}
		var sent []byte
		for _, op := range script {
			if op >= 200 {
				if err := out.Flush(); err != nil {
					t.Fatal(err)
				}
				continue
			}
			piece := make([]byte, op)
			for i := range piece {
				piece[i] = byte(len(sent) + i*131)
			}
			if _, err := out.Write(piece); err != nil {
				t.Fatal(err)
			}
			sent = append(sent, piece...)
		}
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}

		in := NewSealInput(&chunkedInput{data: sink.bytes(), sizes: reads}, fuzzKey, block)
		defer in.Close()
		var got []byte
		for i := 0; ; i++ {
			size := 512
			if len(reads) > 0 {
				size = 1 + int(reads[i%len(reads)])%(2*block)
			}
			p := make([]byte, size)
			n, err := in.Read(p)
			got = append(got, p[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("after %d of %d bytes: %v", len(got), len(sent), err)
			}
		}
		if !bytes.Equal(got, sent) {
			t.Fatalf("opened %d bytes that differ from the %d sealed", len(got), len(sent))
		}
	})
}
