package zip

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"testing/quick"

	"netibis/internal/driver"
	"netibis/internal/drivers/tcpblk"
)

// memLink is a trivial in-memory driver link used to test the filter in
// isolation (and to measure exactly what it puts on the wire).
type memLink struct {
	mu   sync.Mutex
	cond *sync.Cond
	buf  []byte
	eof  bool
}

func newMemLink() *memLink {
	m := &memLink{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

type memOutput struct{ m *memLink }

func (o memOutput) Write(p []byte) (int, error) {
	o.m.mu.Lock()
	o.m.buf = append(o.m.buf, p...)
	o.m.cond.Broadcast()
	o.m.mu.Unlock()
	return len(p), nil
}
func (o memOutput) Flush() error { return nil }
func (o memOutput) Close() error {
	o.m.mu.Lock()
	o.m.eof = true
	o.m.cond.Broadcast()
	o.m.mu.Unlock()
	return nil
}

type memInput struct{ m *memLink }

func (i memInput) Read(p []byte) (int, error) {
	i.m.mu.Lock()
	defer i.m.mu.Unlock()
	for len(i.m.buf) == 0 {
		if i.m.eof {
			return 0, io.EOF
		}
		i.m.cond.Wait()
	}
	n := copy(p, i.m.buf)
	i.m.buf = i.m.buf[n:]
	return n, nil
}
func (i memInput) Close() error { return nil }

func (m *memLink) wireBytes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.buf)
}

// compressible produces text-like data with plenty of redundancy,
// comparable to the scientific data and serialized objects grid
// applications ship around.
func compressible(n int) []byte {
	words := []string{"bandwidth", "latency", "firewall", "splicing", "grid", "ibis", "stream", "socket "}
	var b bytes.Buffer
	rng := rand.New(rand.NewSource(4))
	for b.Len() < n {
		b.WriteString(words[rng.Intn(len(words))])
		b.WriteByte(' ')
	}
	return b.Bytes()[:n]
}

// newOutput is a DEFLATE output at the given level and block size.
func newOutput(lower driver.Output, level, blockSize int) (*Output, error) {
	return NewOutputOptions(lower, Options{Level: level, Block: blockSize})
}

func TestRoundTripCompressible(t *testing.T) {
	link := newMemLink()
	out, err := newOutput(memOutput{link}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInput(memInput{link}, 0)

	payload := compressible(500_000)
	if _, err := out.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := out.Flush(); err != nil {
		t.Fatal(err)
	}
	out.Close()

	got := make([]byte, len(payload))
	if _, err := io.ReadFull(in, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted by compression round trip")
	}
	if ratio := out.Ratio(); ratio < 2 {
		t.Fatalf("text-like data should compress at least 2:1, got %.2f", ratio)
	}
	if _, wireOut, _ := out.Stats(); wireOut >= int64(len(payload)) {
		t.Fatalf("wire bytes %d not smaller than payload %d", wireOut, len(payload))
	}
}

func TestRoundTripIncompressible(t *testing.T) {
	link := newMemLink()
	out, err := newOutput(memOutput{link}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInput(memInput{link}, 0)

	payload := make([]byte, 300_000)
	rand.New(rand.NewSource(9)).Read(payload)
	out.Write(payload)
	out.Flush()
	out.Close()

	got := make([]byte, len(payload))
	if _, err := io.ReadFull(in, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("incompressible payload corrupted")
	}
	// Random data must be sent stored, with only small header overhead
	// (one header per 128 KiB block).
	_, wireOut, blocks := out.Stats()
	overhead := wireOut - int64(len(payload))
	if overhead < 0 || overhead > blocks*headerSize {
		t.Fatalf("incompressible data overhead = %d bytes over %d blocks", overhead, blocks)
	}
	if ratio := out.Ratio(); ratio > 1.01 {
		t.Fatalf("ratio for random data should be ~1, got %.3f", ratio)
	}
}

func TestEmptyFlush(t *testing.T) {
	link := newMemLink()
	out, _ := newOutput(memOutput{link}, 1, 0)
	if err := out.Flush(); err != nil {
		t.Fatal(err)
	}
	if link.wireBytes() != 0 {
		t.Fatal("empty flush wrote bytes")
	}
	_, _, blocks := out.Stats()
	if blocks != 0 {
		t.Fatal("empty flush counted a block")
	}
}

func TestMultipleBlocksAndMessages(t *testing.T) {
	link := newMemLink()
	out, _ := newOutput(memOutput{link}, 1, 4096)
	in := NewInput(memInput{link}, 0)
	var want []byte
	for i := 0; i < 30; i++ {
		msg := compressible(1000 + i*512)
		want = append(want, msg...)
		out.Write(msg)
		out.Flush()
	}
	out.Close()
	got, err := io.ReadAll(in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("multi-block stream corrupted")
	}
	_, _, blocks := out.Stats()
	if blocks < 30 {
		t.Fatalf("expected at least 30 blocks, got %d", blocks)
	}
}

func TestCompressionLevelsAblation(t *testing.T) {
	// Higher levels must never produce a *worse* ratio on compressible
	// data, and level 1 must already capture most of the win — the
	// paper's justification for using level 1.
	payload := compressible(400_000)
	ratio := func(level int) float64 {
		link := newMemLink()
		out, err := newOutput(memOutput{link}, level, 0)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(payload)
		out.Flush()
		out.Close()
		return out.Ratio()
	}
	r1 := ratio(1)
	r6 := ratio(6)
	r9 := ratio(9)
	if r1 < 2 {
		t.Fatalf("level 1 ratio %.2f too low", r1)
	}
	if r9 < r1*0.95 {
		t.Fatalf("level 9 (%.2f) should not be much worse than level 1 (%.2f)", r9, r1)
	}
	if r1 < r6*0.5 {
		t.Fatalf("level 1 (%.2f) should capture a large fraction of level 6 (%.2f)", r1, r6)
	}
}

func TestInvalidLevelRejected(t *testing.T) {
	link := newMemLink()
	if _, err := newOutput(memOutput{link}, 42, 0); err == nil {
		t.Fatal("invalid compression level accepted")
	}
}

func TestWriteAfterClose(t *testing.T) {
	link := newMemLink()
	out, _ := newOutput(memOutput{link}, 1, 0)
	out.Close()
	if _, err := out.Write([]byte("x")); err == nil {
		t.Fatal("write after close should fail")
	}
	if err := out.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestCorruptStreamDetected(t *testing.T) {
	link := newMemLink()
	out, _ := newOutput(memOutput{link}, 1, 0)
	out.Write(compressible(10_000))
	out.Flush()
	// Corrupt a byte in the middle of the compressed payload.
	link.mu.Lock()
	link.buf[headerSize+50] ^= 0xFF
	link.eof = true
	link.mu.Unlock()
	in := NewInput(memInput{link}, 0)
	_, err := io.ReadAll(in)
	if err == nil {
		t.Fatal("corrupted compressed stream should not decode cleanly")
	}
}

func TestZipOverTCPBlockStack(t *testing.T) {
	// The composition actually used on slow WAN links: zip/tcpblk.
	c1, c2 := net.Pipe()
	stack, err := driver.ParseStack("zip:level=1/tcpblk:block=8192")
	if err != nil {
		t.Fatal(err)
	}
	out, err := driver.BuildOutput(stack, driver.SingleConnEnv(c1))
	if err != nil {
		t.Fatal(err)
	}
	in, err := driver.BuildInput(stack, driver.SingleConnEnv(c2))
	if err != nil {
		t.Fatal(err)
	}
	payload := compressible(200_000)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		out.Write(payload)
		out.Flush()
		out.Close()
	}()
	got, err := io.ReadAll(in)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if !bytes.Equal(got, payload) {
		t.Fatal("zip over tcpblk corrupted the payload")
	}
}

func TestZipOverTCPBlockUsesTCPBlkBuilder(t *testing.T) {
	// Builder validation: zip without a lower driver must fail.
	if _, err := buildOutput(driver.Spec{Name: Name}, nil, nil); err == nil {
		t.Fatal("zip without lower driver accepted")
	}
	if _, err := buildInput(driver.Spec{Name: Name}, nil, nil); err == nil {
		t.Fatal("zip input without lower driver accepted")
	}
	_ = tcpblk.Name // document the intended composition
}

func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64, size uint16, compressibleData bool) bool {
		n := int(size) % 40000
		var payload []byte
		if compressibleData {
			payload = compressible(n)
		} else {
			payload = make([]byte, n)
			rand.New(rand.NewSource(seed)).Read(payload)
		}
		link := newMemLink()
		out, err := newOutput(memOutput{link}, 1, 7000)
		if err != nil {
			return false
		}
		in := NewInput(memInput{link}, 0)
		out.Write(payload)
		out.Flush()
		out.Close()
		got, err := io.ReadAll(in)
		if err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
