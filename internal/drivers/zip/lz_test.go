package zip

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"netibis/internal/testutil"
)

// lzRoundTrip compresses src as one block and decodes it back,
// exercising the stored fallback exactly as compressBlock does.
func lzRoundTrip(t *testing.T, src []byte) {
	t.Helper()
	c := lzCodec{}
	dst := make([]byte, c.Bound(len(src)))
	n, err := c.Compress(dst, src)
	if err == errBound || (err == nil && n >= len(src)) {
		return // stored path: nothing to decode
	}
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	got := make([]byte, len(src))
	if err := decodeLZ(got, dst[:n]); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip corrupted %d-byte input (encoded %d)", len(src), n)
	}
}

func TestLZRoundTripShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := map[string][]byte{
		"empty":      {},
		"tiny":       []byte("abc"),
		"just-match": []byte("abcdabcdabcdabcd"),
		"text":       compressible(100_000),
		"rle":        bytes.Repeat([]byte{0xAA}, 70_000), // overlapping matches
		"runs":       bytes.Repeat([]byte("0123456789abcdef"), 5_000),
		"random":     make([]byte, 50_000),
	}
	rng.Read(shapes["random"])
	// A long literal run into a match exercises the 255-continued
	// literal-length encoding next to a match sequence.
	long := make([]byte, 5_000)
	rng.Read(long)
	shapes["literals-then-match"] = append(long, bytes.Repeat([]byte("match!"), 200)...)
	for name, src := range shapes {
		t.Run(name, func(t *testing.T) { lzRoundTrip(t, src) })
	}
}

func TestLZCompressesText(t *testing.T) {
	src := compressible(256 * 1024)
	c := lzCodec{}
	dst := make([]byte, c.Bound(len(src)))
	n, err := c.Compress(dst, src)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(len(src)) / float64(n); ratio < 1.5 {
		t.Fatalf("lz ratio on text-like data = %.2f, want >= 1.5", ratio)
	}
}

func TestLZDecodeRejectsCorrupt(t *testing.T) {
	cases := map[string][]byte{
		"offset-zero":        {0x04, 'a', 0x00, 0x00}, // 0 literals is fine but offset 0 is not
		"offset-past-start":  {0x14, 'a', 0x05, 0x00},
		"truncated-literals": {0x50, 'a', 'b'},
		"truncated-offset":   {0x04, 'a', 0x01},
		"truncated-litext":   {0xF0},
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			dst := make([]byte, 64)
			if err := decodeLZ(dst, src); err == nil {
				t.Fatalf("corrupt block %x decoded cleanly", src)
			}
		})
	}
	// A valid block must still fail when the announced original length
	// disagrees with what it decodes to.
	src := []byte("netibis netibis netibis netibis ")
	c := lzCodec{}
	enc := make([]byte, c.Bound(len(src)))
	n, err := c.Compress(enc, src)
	if err != nil || n >= len(src) {
		t.Skipf("input did not compress (n=%d err=%v)", n, err)
	}
	if err := decodeLZ(make([]byte, len(src)+1), enc[:n]); err == nil {
		t.Fatal("block decoded cleanly against a wrong original length")
	}
}

func TestLZQuick(t *testing.T) {
	f := func(seed int64, size uint16, text bool) bool {
		n := int(size) % 30000
		var src []byte
		if text {
			src = compressible(n)
		} else {
			src = make([]byte, n)
			rand.New(rand.NewSource(seed)).Read(src)
		}
		c := lzCodec{}
		dst := make([]byte, c.Bound(len(src)))
		en, err := c.Compress(dst, src)
		if err == errBound || (err == nil && en >= len(src)) {
			return true
		}
		if err != nil {
			return false
		}
		got := make([]byte, len(src))
		if err := decodeLZ(got, dst[:en]); err != nil {
			return false
		}
		return bytes.Equal(got, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzLZDecode drives the decoder with arbitrary block bytes — it must
// reject or decode, never panic or touch memory out of range — and
// checks self-consistency against the encoder for inputs that happen to
// round trip.
func FuzzLZDecode(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0x04, 'a', 0x01, 0x00}, uint16(5))
	f.Add([]byte(compressible(300)), uint16(300))
	f.Fuzz(func(t *testing.T, data []byte, origLen uint16) {
		dst := make([]byte, int(origLen)%4096)
		_ = decodeLZ(dst, data) // must not panic

		// Treat data as plaintext too: encode and decode must invert.
		c := lzCodec{}
		enc := make([]byte, c.Bound(len(data)))
		n, err := c.Compress(enc, data)
		if err == errBound || (err == nil && n >= len(data)) {
			return
		}
		if err != nil {
			t.Fatalf("compress: %v", err)
		}
		got := make([]byte, len(data))
		if err := decodeLZ(got, enc[:n]); err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("round trip corrupted input")
		}
	})
}

// discardOutput is a driver.Output that swallows everything — the lower
// driver for alloc measurements, where a buffering sink would dominate.
type discardOutput struct{}

func (discardOutput) Write(p []byte) (int, error) { return len(p), nil }
func (discardOutput) Flush() error                { return nil }
func (discardOutput) Close() error                { return nil }

// TestIncompressibleEmitZeroAllocs is the regression gate for the
// worst-case output bound: emitting an incompressible block must reuse
// one pooled Buf end to end — sized by Codec.Bound up front, stored
// fallback written into the same Buf — with no grow-and-copy and no
// second allocation. (It used to size the Buf as header+input, which
// DEFLATE's stored-block framing exceeds, forcing a mid-compression grow
// on exactly these inputs.)
func TestIncompressibleEmitZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items under -race, so pooled codec state allocates by design")
	}
	noise := make([]byte, 64*1024)
	rand.New(rand.NewSource(3)).Read(noise)
	for _, codec := range []string{"flate", "lz"} {
		t.Run(codec, func(t *testing.T) {
			c, err := codecByName(codec, 0)
			if err != nil {
				t.Fatal(err)
			}
			out, err := NewOutputOptions(discardOutput{}, Options{Codec: c})
			if err != nil {
				t.Fatal(err)
			}
			defer out.Close()
			// Warm the codec and Buf pools once.
			out.Write(noise)
			if err := out.Flush(); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				out.Write(noise)
				if err := out.Flush(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("incompressible emit allocates %.1f objects per block, want 0", allocs)
			}
			in, wire, _ := out.Stats()
			if wire < in {
				t.Fatalf("incompressible data 'compressed' (%d -> %d): stored fallback broken", in, wire)
			}
		})
	}
}

// TestMixedCodecStreamDecodes interleaves lz and legacy deflate blocks
// on one wire — the per-block flag dispatch must decode the mix, which
// is exactly what a rolling upgrade of senders produces.
func TestMixedCodecStreamDecodes(t *testing.T) {
	link := newMemLink()
	lz, err := codecByName("lz", 0)
	if err != nil {
		t.Fatal(err)
	}
	lzOut, err := NewOutputOptions(memOutput{link}, Options{Codec: lz})
	if err != nil {
		t.Fatal(err)
	}
	flateOut, err := newOutput(memOutput{link}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 6; i++ {
		msg := compressible(20_000 + i*1000)
		want = append(want, msg...)
		out := lzOut
		if i%2 == 1 {
			out = flateOut
		}
		if _, err := out.Write(msg); err != nil {
			t.Fatal(err)
		}
		if err := out.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	link.mu.Lock()
	link.eof = true
	link.cond.Broadcast()
	link.mu.Unlock()
	in := NewInput(memInput{link}, 0)
	got, err := io.ReadAll(in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("mixed-codec stream corrupted")
	}
}

func TestUnknownCodecRejected(t *testing.T) {
	if _, err := codecByName("zstd", 0); err == nil {
		t.Fatal("unknown codec accepted")
	}
	if _, err := codecByName("lz", 5); err == nil {
		t.Fatal("lz with a compression level accepted")
	}
}

func BenchmarkLZCompressText(b *testing.B) {
	src := compressible(64 * 1024)
	c := lzCodec{}
	dst := make([]byte, c.Bound(len(src)))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compress(dst, src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLZDecodeText(b *testing.B) {
	src := compressible(64 * 1024)
	c := lzCodec{}
	enc := make([]byte, c.Bound(len(src)))
	n, err := c.Compress(enc, src)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, len(src))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := decodeLZ(dst, enc[:n]); err != nil {
			b.Fatal(err)
		}
	}
}
