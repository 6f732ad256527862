package wire

import (
	"bytes"
	"io"
	"testing"
)

func TestGetBufSizes(t *testing.T) {
	for _, n := range []int{0, 1, 4096, 32 << 10, 32<<10 + 513, 64 << 10, 64<<10 + 512, 1 << 20, 3 << 20} {
		b := GetBuf(n)
		if b.Len() != n {
			t.Fatalf("GetBuf(%d).Len() = %d", n, b.Len())
		}
		if b.Cap() < n {
			t.Fatalf("GetBuf(%d).Cap() = %d", n, b.Cap())
		}
		b.Release()
	}
}

func TestBufRetainRelease(t *testing.T) {
	b := GetBuf(100)
	b.Retain()
	b.Release()
	copy(b.Bytes(), "still valid") // one reference left
	b.Release()
}

func TestBufDoubleReleasePanics(t *testing.T) {
	b := GetBuf(10)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release should panic")
		}
	}()
	b.Release()
}

func TestBufWriteGrows(t *testing.T) {
	b := GetBuf(0)
	payload := bytes.Repeat([]byte("grow "), 40000) // 200 KB, beyond two classes
	if _, err := b.Write(payload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), payload) {
		t.Fatal("grown buffer lost data")
	}
	b.Release()
}

func TestBufSetLen(t *testing.T) {
	b := GetBuf(10)
	b.SetLen(5)
	if b.Len() != 5 {
		t.Fatalf("Len = %d", b.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetLen beyond capacity should panic")
		}
	}()
	b.SetLen(b.Cap() + 1)
}

// loopReader replays one encoded byte sequence forever.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.data) {
		l.off = 0
	}
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}

// TestReadFrameBufZeroAlloc gates the owned-buffer read path at zero
// steady-state allocations: frame payloads are served from the pool.
func TestReadFrameBufZeroAlloc(t *testing.T) {
	var enc bytes.Buffer
	w := NewWriter(&enc)
	payload := bytes.Repeat([]byte{0xA7}, 32<<10)
	if err := w.WriteFrame(KindData, 0, payload); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&loopReader{data: enc.Bytes()})
	// Warm the pool.
	for i := 0; i < 4; i++ {
		_, _, b, err := r.ReadFrameBuf()
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
	}
	allocs := testing.AllocsPerRun(200, func() {
		_, _, b, err := r.ReadFrameBuf()
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
	})
	if allocs != 0 {
		t.Fatalf("ReadFrameBuf allocates %.1f objects per frame, want 0", allocs)
	}
}

// TestWriteFrameNoCopyZeroAlloc gates the vectored branch of the write
// primitive the same way: a payload above the coalescing threshold
// leaves without being copied and without an allocation.
func TestWriteFrameNoCopyZeroAlloc(t *testing.T) {
	cw := &countingWriter{}
	w := NewWriter(cw)
	payload := bytes.Repeat([]byte{0x3C}, 64<<10)
	if err := w.WriteFrame(KindData, 0, payload); err != nil {
		t.Fatal(err)
	}
	if cw.writes != 2 {
		t.Fatalf("64 KiB frame took %d conn writes, want header + payload", cw.writes)
	}
	w = NewWriter(io.Discard)
	allocs := testing.AllocsPerRun(200, func() {
		if err := w.WriteFrame(KindData, 0, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WriteFrame allocates %.1f objects per 64 KiB frame, want 0", allocs)
	}
}

func TestWriteFramePartsRoundTrip(t *testing.T) {
	var enc bytes.Buffer
	w := NewWriter(&enc)
	if err := w.WriteFrameBatch([]BatchFrame{{Kind: KindData, Flags: 1, Hdr: []byte("head-"), Payload: []byte("tail")}}); err != nil {
		t.Fatal(err)
	}
	f, err := NewReader(&enc).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.Flags != 1 || string(f.Payload) != "head-tail" {
		t.Fatalf("parts frame = %v %q", f, f.Payload)
	}
}

func TestWriteFramePairRoundTrip(t *testing.T) {
	var enc bytes.Buffer
	w := NewWriter(&enc)
	pair := []BatchFrame{
		{Kind: KindData, Payload: []byte("first")},
		{Kind: KindData, Payload: bytes.Repeat([]byte{9}, 9000)},
	}
	if err := w.WriteFrameBatch(pair); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&enc)
	f1, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if string(f1.Payload) != "first" || len(f2.Payload) != 9000 {
		t.Fatal("pair round trip mismatch")
	}
}

// TestReadFrameStableCopy pins the satellite fix: the legacy ReadFrame
// payload must stay valid across subsequent reads (it used to alias a
// reused internal buffer).
func TestReadFrameStableCopy(t *testing.T) {
	var enc bytes.Buffer
	w := NewWriter(&enc)
	w.WriteFrame(KindData, 0, bytes.Repeat([]byte{1}, 1000))
	w.WriteFrame(KindData, 0, bytes.Repeat([]byte{2}, 1000))
	r := NewReader(&enc)
	f1, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	for _, v := range f1.Payload {
		if v != 1 {
			t.Fatal("first payload was invalidated by the second read")
		}
	}
}
