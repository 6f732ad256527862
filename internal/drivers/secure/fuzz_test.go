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
// fuzz bytes and remembers the largest read the SealInput asked of it —
// the size of the buffer it took from the pool for a record.
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
// must end in an error (or EOF) without panicking, must never ask for a
// buffer larger than one block plus the AEAD tag on the strength of the
// unauthenticated length prefix, and must deliver nothing it did not
// authenticate: the fuzzer cannot forge a record, so the only plaintext
// that can come out is the seed's.
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
		if bound := block + 16; lower.maxRead > bound {
			t.Fatalf("read %d bytes at once: a record buffer above the %d-byte bound", lower.maxRead, bound)
		}
	})
}
