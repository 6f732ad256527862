package wire

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	payloads := [][]byte{
		nil,
		{},
		[]byte("hello"),
		bytes.Repeat([]byte{0xAB}, 5000),
		bytes.Repeat([]byte("netibis"), 100000),
	}
	for i, p := range payloads {
		if err := w.WriteFrame(KindData, byte(i), p); err != nil {
			t.Fatalf("WriteFrame %d: %v", i, err)
		}
	}
	r := NewReader(&buf)
	for i, p := range payloads {
		f, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if f.Kind != KindData || f.Flags != byte(i) {
			t.Fatalf("frame %d header mismatch: %v", i, f)
		}
		if !bytes.Equal(f.Payload, p) {
			t.Fatalf("frame %d payload mismatch: got %d bytes want %d", i, len(f.Payload), len(p))
		}
	}
	if _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("expected EOF after last frame, got %v", err)
	}
}

func TestFrameKindsDistinct(t *testing.T) {
	kinds := []byte{KindData, KindFlush, KindControl, KindClose, KindKeepAlive, KindUser}
	seen := map[byte]bool{}
	for _, k := range kinds {
		if seen[k] {
			t.Fatalf("duplicate frame kind %d", k)
		}
		seen[k] = true
	}
	if KindUser <= KindKeepAlive {
		t.Fatalf("KindUser must be above all built-in kinds")
	}
}

func TestFrameTooLarge(t *testing.T) {
	w := NewWriter(io.Discard)
	big := make([]byte, MaxFrameLen+1)
	if err := w.WriteFrame(KindData, 0, big); err != ErrFrameTooLarge {
		t.Fatalf("expected ErrFrameTooLarge, got %v", err)
	}
}

func TestFrameTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteFrame(KindData, 0, []byte("truncated payload")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]))
		if _, err := r.ReadFrame(); err == nil {
			t.Fatalf("cut=%d: expected error on truncated frame", cut)
		}
	}
}

func TestFrameString(t *testing.T) {
	f := Frame{Kind: KindFlush, Flags: 0x7, Payload: []byte("abc")}
	s := f.String()
	if s == "" {
		t.Fatal("String() returned empty")
	}
}

func TestFrameRoundTripQuick(t *testing.T) {
	f := func(kind, flags byte, payload []byte) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteFrame(kind, flags, payload); err != nil {
			return false
		}
		r := NewReader(&buf)
		got, err := r.ReadFrame()
		if err != nil {
			return false
		}
		return got.Kind == kind && got.Flags == flags && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestManyFramesInterleavedSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var sizes []int
	for i := 0; i < 500; i++ {
		n := rng.Intn(9000)
		sizes = append(sizes, n)
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(i + j)
		}
		if err := w.WriteFrame(KindData, 0, p); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	for i, n := range sizes {
		f, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(f.Payload) != n {
			t.Fatalf("frame %d: got %d bytes want %d", i, len(f.Payload), n)
		}
		for j, b := range f.Payload {
			if b != byte(i+j) {
				t.Fatalf("frame %d byte %d corrupted", i, j)
			}
		}
	}
}

func TestEncoderDecoderPrimitives(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 300)
	b = AppendString(b, "amsterdam")
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendUint32(b, 0xDEADBEEF)
	b = AppendUint64(b, 1<<40)
	d := NewDecoder(b)
	if v := d.Uvarint(); v != 300 {
		t.Fatalf("Uvarint = %d", v)
	}
	if s := d.String(); s != "amsterdam" {
		t.Fatalf("String = %q", s)
	}
	if bs := d.Bytes(); !bytes.Equal(bs, []byte{1, 2, 3}) {
		t.Fatalf("Bytes = %v", bs)
	}
	if v := d.Uint32(); v != 0xDEADBEEF {
		t.Fatalf("Uint32 = %#x", v)
	}
	if v := d.Uint64(); v != 1<<40 {
		t.Fatalf("Uint64 = %d", v)
	}
	if d.Err() != nil {
		t.Fatalf("unexpected decode error: %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", d.Remaining())
	}
}

func TestDecoderCorrupt(t *testing.T) {
	// Declared string longer than the buffer.
	b := AppendUvarint(nil, 100)
	d := NewDecoder(b)
	if s := d.Bytes(); s != nil {
		t.Fatalf("expected nil bytes on corrupt input, got %v", s)
	}
	if d.Err() == nil {
		t.Fatal("expected error on corrupt input")
	}
	// Further reads keep failing without panicking.
	_ = d.Uvarint()
	_ = d.Uint32()
	_ = d.Uint64()
	_ = d.String()
	if d.Err() == nil {
		t.Fatal("error should be sticky")
	}
}

func TestDecoderEmpty(t *testing.T) {
	d := NewDecoder(nil)
	_ = d.Uvarint()
	if d.Err() == nil {
		t.Fatal("expected error decoding from empty buffer")
	}
}

func TestPrimitiveQuickRoundTrip(t *testing.T) {
	f := func(u uint64, s string, raw []byte, v32 uint32, v64 uint64) bool {
		var b []byte
		b = AppendUvarint(b, u)
		b = AppendString(b, s)
		b = AppendBytes(b, raw)
		b = AppendUint32(b, v32)
		b = AppendUint64(b, v64)
		d := NewDecoder(b)
		if d.Uvarint() != u {
			return false
		}
		if d.String() != s {
			return false
		}
		got := d.Bytes()
		if len(got) != len(raw) || (len(raw) > 0 && !bytes.Equal(got, raw)) {
			return false
		}
		if d.Uint32() != v32 || d.Uint64() != v64 {
			return false
		}
		return d.Err() == nil && d.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFrameWrite4K(b *testing.B) {
	payload := bytes.Repeat([]byte{0x5A}, 4096)
	w := NewWriter(io.Discard)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.WriteFrame(KindData, 0, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameRoundTrip64K(b *testing.B) {
	payload := bytes.Repeat([]byte{0x5A}, 64*1024)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	r := NewReader(&buf)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := w.WriteFrame(KindData, 0, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := r.ReadFrame(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWriteFrameBatchRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	frames := []BatchFrame{
		{Kind: KindData, Flags: 1, Hdr: []byte("route:"), Payload: []byte("payload-one")},
		{Kind: KindControl, Flags: 0, Hdr: nil, Payload: bytes.Repeat([]byte{0x7e}, 9000)},
		{Kind: KindFlush, Flags: 2, Hdr: []byte("h"), Payload: nil},
		{Kind: KindData, Flags: 0, Hdr: nil, Payload: nil},
	}
	if err := w.WriteFrameBatch(frames); err != nil {
		t.Fatalf("WriteFrameBatch: %v", err)
	}
	r := NewReader(&buf)
	for i, f := range frames {
		got, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if got.Kind != f.Kind || got.Flags != f.Flags {
			t.Fatalf("frame %d header mismatch: %v", i, got)
		}
		want := append(append([]byte(nil), f.Hdr...), f.Payload...)
		if !bytes.Equal(got.Payload, want) {
			t.Fatalf("frame %d body mismatch: got %d bytes want %d", i, len(got.Payload), len(want))
		}
	}
	if _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("expected EOF after batch, got %v", err)
	}
}

func TestWriteFrameBatchEmpty(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteFrameBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty batch wrote %d bytes", buf.Len())
	}
}

func TestWriteFrameBatchTooLarge(t *testing.T) {
	w := NewWriter(io.Discard)
	frames := []BatchFrame{
		{Kind: KindData, Payload: make([]byte, MaxFrameLen+1)},
	}
	if err := w.WriteFrameBatch(frames); err != ErrFrameTooLarge {
		t.Fatalf("oversize batch frame: got %v, want ErrFrameTooLarge", err)
	}
}

// TestWriteFrameBatchZeroAllocs gates the batch emission path the same
// way the single-frame vectored writes are gated: after warm-up, a
// multi-frame batch write performs zero heap allocations.
func TestWriteFrameBatchZeroAllocs(t *testing.T) {
	w := NewWriter(io.Discard)
	payload := bytes.Repeat([]byte{0x42}, 32*1024)
	hdr := []byte("dst-node\x00\x09")
	frames := make([]BatchFrame, 16)
	for i := range frames {
		frames[i] = BatchFrame{Kind: KindData, Hdr: hdr, Payload: payload}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := w.WriteFrameBatch(frames); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WriteFrameBatch allocates %.1f objects per batch, want 0", allocs)
	}
}

func BenchmarkWriteFrameBatch16x32K(b *testing.B) {
	w := NewWriter(io.Discard)
	payload := bytes.Repeat([]byte{0x42}, 32*1024)
	frames := make([]BatchFrame, 16)
	for i := range frames {
		frames[i] = BatchFrame{Kind: KindData, Payload: payload}
	}
	b.SetBytes(int64(16 * len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.WriteFrameBatch(frames); err != nil {
			b.Fatal(err)
		}
	}
}

// countingWriter is a conn that is not a kernel TCP socket: every
// element of a net.Buffers.WriteTo reaches it as one Write.
type countingWriter struct {
	writes int
	bytes.Buffer
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.Buffer.Write(p)
}

// TestWriteFrameBatchConnWrites pins the one conn-write rule: what a
// batch costs depends on its encoded size and on nothing else. Up to
// coalesceMax it is exactly one Write; above it, it is the one vectored
// write — wire header plus each non-empty part per frame, where a run of
// small frames and the wire header after it share one element — and a
// Reader decodes the same frames either way.
func TestWriteFrameBatchConnWrites(t *testing.T) {
	fill := func(n int) []byte { return bytes.Repeat([]byte{'x'}, n) }
	for _, n := range []int{1, 2, 16} {
		for _, shape := range []struct{ hdr, payload bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
			for _, size := range []int{coalesceMax - 1, coalesceMax, coalesceMax + 1} {
				// n-1 frames with an 8-byte body, then one padded so the
				// batch encodes to exactly size bytes; with neither part
				// every frame is empty and the batch is 3n bytes.
				var batch []BatchFrame
				encoded, vectored := 0, 0
				inArena := false // the last element is the header arena's
				for i := 0; i < n; i++ {
					body := 8
					if i == n-1 {
						body = size - encoded - 4 // kind, flags, two-byte length
					}
					f := BatchFrame{Kind: KindData, Flags: byte(i)}
					switch {
					case shape.hdr && shape.payload:
						f.Hdr, f.Payload = fill(4), fill(body-4)
					case shape.hdr:
						f.Hdr = fill(body)
					case shape.payload:
						f.Payload = fill(body)
					}
					batch = append(batch, f)
					body = len(f.Hdr) + len(f.Payload)
					encoded += 2 + len(AppendUvarint(nil, uint64(body))) + body
					if !inArena {
						vectored++
					}
					inArena = body <= smallFrame
					if !inArena {
						vectored += min(len(f.Hdr), 1) + min(len(f.Payload), 1)
					}
				}
				name := fmt.Sprintf("%d frames hdr=%v payload=%v, %d bytes", n, shape.hdr, shape.payload, encoded)
				if (shape.hdr || shape.payload) && encoded != size {
					t.Fatalf("%s: want a %d-byte batch", name, size)
				}
				want := 1
				if encoded > coalesceMax {
					want = vectored
				}
				cw := &countingWriter{}
				if err := NewWriter(cw).WriteFrameBatch(batch); err != nil {
					t.Fatal(err)
				}
				if cw.writes != want || cw.Len() != encoded {
					t.Errorf("%s: %d conn writes of %d bytes, want %d", name, cw.writes, cw.Len(), want)
				}
				r := NewReader(cw)
				for i, f := range batch {
					got, err := r.ReadFrame()
					if err != nil || got.Flags != byte(i) || !bytes.Equal(got.Payload, append(f.Hdr[:len(f.Hdr):len(f.Hdr)], f.Payload...)) {
						t.Fatalf("%s: frame %d decoded as %v, %v", name, i, got, err)
					}
				}
				if _, err := r.ReadFrame(); err != io.EOF {
					t.Fatalf("%s: bytes after the batch: %v", name, err)
				}
			}
		}
	}
}

// TestWriteFrameBatchSmallFrameRule pins the boundary of the vectored
// path's small-frame rule: a frame of at most smallFrame payload bytes
// in front of a large one rides in the header arena with the large
// one's wire header, so the pair is two conn writes; one byte more and
// each frame is a wire header and a payload of its own, four writes.
func TestWriteFrameBatchSmallFrameRule(t *testing.T) {
	large := bytes.Repeat([]byte{'y'}, 2*coalesceMax)
	for _, tc := range []struct{ small, want int }{{3, 2}, {smallFrame, 2}, {smallFrame + 1, 4}} {
		small := bytes.Repeat([]byte{'x'}, tc.small)
		cw := &countingWriter{}
		if err := NewWriter(cw).WriteFrameBatch([]BatchFrame{{Kind: KindData, Payload: small}, {Kind: KindData, Payload: large}}); err != nil {
			t.Fatal(err)
		}
		if cw.writes != tc.want {
			t.Errorf("%d-byte frame, then a large one: %d conn writes, want %d", tc.small, cw.writes, tc.want)
		}
		r := NewReader(cw)
		for _, want := range [][]byte{small, large} {
			if f, err := r.ReadFrame(); err != nil || !bytes.Equal(f.Payload, want) {
				t.Fatalf("%d-byte frame, then a large one: decoded %v, %v", tc.small, f, err)
			}
		}
	}
}
