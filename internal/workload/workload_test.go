package workload

import (
	"bytes"
	"compress/flate"
	"io"
	"testing"
)

func flateRatio(t *testing.T, data []byte) float64 {
	t.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Write(data)
	w.Close()
	return float64(len(data)) / float64(buf.Len())
}

func TestGenerateSizes(t *testing.T) {
	for _, kind := range []Kind{TextLike, Mixed, Random} {
		for _, n := range []int{0, 1, 100, 65536, 1 << 20} {
			data := Generate(kind, n, 1)
			if len(data) != n {
				t.Fatalf("%v size %d: got %d bytes", kind, n, len(data))
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(TextLike, 100000, 42)
	b := Generate(TextLike, 100000, 42)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed should give identical payloads")
	}
	c := Generate(TextLike, 100000, 43)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds should give different payloads")
	}
}

func TestCompressibilityOrdering(t *testing.T) {
	const n = 1 << 20
	text := flateRatio(t, Generate(TextLike, n, 1))
	mixed := flateRatio(t, Generate(Mixed, n, 1))
	random := flateRatio(t, Generate(Random, n, 1))
	if !(text > mixed && mixed > random) {
		t.Fatalf("compressibility ordering violated: text=%.2f mixed=%.2f random=%.2f", text, mixed, random)
	}
	if text < 2.5 {
		t.Fatalf("text-like payload should compress at least 2.5:1, got %.2f", text)
	}
	if random > 1.05 {
		t.Fatalf("random payload should not compress, got %.2f", random)
	}
}

func TestRandomPayloadDecompressesIdentically(t *testing.T) {
	// Sanity: flate round trip on the generated data (any kind).
	for _, kind := range []Kind{TextLike, Mixed, Random} {
		data := Generate(kind, 200000, 7)
		var buf bytes.Buffer
		w, _ := flate.NewWriter(&buf, 1)
		w.Write(data)
		w.Close()
		r := flate.NewReader(&buf)
		back, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("%v: flate round trip mismatch", kind)
		}
	}
}

func TestKindString(t *testing.T) {
	if TextLike.String() != "text-like" || Mixed.String() != "mixed" || Random.String() != "random" {
		t.Fatal("Kind strings wrong")
	}
	if Kind(99).String() != "unknown" {
		t.Fatal("unknown kind string wrong")
	}
}
