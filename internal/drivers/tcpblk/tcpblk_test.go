package tcpblk

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"testing"
	"testing/quick"

	"netibis/internal/driver"
)

// pipePair returns two ends of an in-memory connection suitable for
// exercising the driver (buffered, so single-goroutine tests do not
// deadlock).
func pipePair() (net.Conn, net.Conn) {
	type end struct {
		net.Conn
	}
	c1, c2 := net.Pipe()
	return end{c1}, end{c2}
}

func TestOutputInputRoundTrip(t *testing.T) {
	c1, c2 := pipePair()
	out := NewOutput(c1, 1024)
	in := NewInput(c2)

	payload := bytes.Repeat([]byte("block oriented transfer "), 1000)
	go func() {
		out.Write(payload)
		out.Flush()
		out.Close()
	}()
	got, err := io.ReadAll(in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: got %d bytes want %d", len(got), len(payload))
	}
	in.Close()
}

func TestAggregationCountsBlocks(t *testing.T) {
	c1, c2 := pipePair()
	out := NewOutput(c1, 4096)
	in := NewInput(c2)

	done := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(in)
		done <- b
	}()

	// 100 small writes of 10 bytes each must be aggregated into a single
	// block on flush — that is the whole point of TCP_Block.
	small := []byte("0123456789")
	for i := 0; i < 100; i++ {
		if _, err := out.Write(small); err != nil {
			t.Fatal(err)
		}
	}
	if err := out.Flush(); err != nil {
		t.Fatal(err)
	}
	blocks, bytesSent := out.Stats()
	if blocks != 1 {
		t.Fatalf("expected 1 aggregated block, got %d", blocks)
	}
	if bytesSent != 1000 {
		t.Fatalf("expected 1000 payload bytes, got %d", bytesSent)
	}
	out.Close()
	got := <-done
	if len(got) != 1000 {
		t.Fatalf("receiver got %d bytes", len(got))
	}
}

func TestOverflowTriggersBlockSend(t *testing.T) {
	c1, c2 := pipePair()
	out := NewOutput(c1, 1000)
	in := NewInput(c2)
	done := make(chan int, 1)
	go func() {
		b, _ := io.ReadAll(in)
		done <- len(b)
	}()
	// 2.5 blocks worth of data in one write: a write of at least one
	// block bypasses the aggregation buffer and leaves immediately as a
	// single direct block, nothing waits for the flush.
	if _, err := out.Write(make([]byte, 2500)); err != nil {
		t.Fatal(err)
	}
	blocks, _ := out.Stats()
	if blocks != 1 {
		t.Fatalf("expected 1 direct bypass block before flush, got %d", blocks)
	}
	out.Flush()
	blocks, _ = out.Stats()
	if blocks != 1 {
		t.Fatalf("expected no additional block on flush, got %d", blocks)
	}
	out.Close()
	if got := <-done; got != 2500 {
		t.Fatalf("receiver got %d bytes", got)
	}
}

func TestLargeWriteFlushesBufferedBytesFirst(t *testing.T) {
	c1, c2 := pipePair()
	out := NewOutput(c1, 1000)
	in := NewInput(c2)
	done := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(in)
		done <- b
	}()
	// A small aggregated write followed by a bypassing large write: the
	// buffered bytes and the large payload leave as one vectored pair of
	// blocks, in order.
	if _, err := out.Write([]byte("small-head-")); err != nil {
		t.Fatal(err)
	}
	large := bytes.Repeat([]byte{0x42}, 1200)
	if _, err := out.Write(large); err != nil {
		t.Fatal(err)
	}
	blocks, bytesSent := out.Stats()
	if blocks != 2 {
		t.Fatalf("expected buffered+direct pair of blocks, got %d", blocks)
	}
	if want := int64(len("small-head-") + len(large)); bytesSent != want {
		t.Fatalf("bytes sent = %d, want %d", bytesSent, want)
	}
	out.Close()
	got := <-done
	want := append([]byte("small-head-"), large...)
	if !bytes.Equal(got, want) {
		t.Fatalf("byte order broken across the bypass: got %d bytes want %d", len(got), len(want))
	}
}

func TestEmptyFlushSendsNothing(t *testing.T) {
	c1, _ := pipePair()
	out := NewOutput(c1, 1024)
	if err := out.Flush(); err != nil {
		t.Fatal(err)
	}
	if blocks, _ := out.Stats(); blocks != 0 {
		t.Fatalf("empty flush sent %d blocks", blocks)
	}
}

func TestWriteAfterClose(t *testing.T) {
	c1, c2 := pipePair()
	go io.Copy(io.Discard, c2)
	out := NewOutput(c1, 1024)
	out.Close()
	if _, err := out.Write([]byte("x")); err == nil {
		t.Fatal("write after close should fail")
	}
	if err := out.Flush(); err == nil {
		t.Fatal("flush after close should fail")
	}
	if err := out.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestCloseSendsEOFToReader(t *testing.T) {
	c1, c2 := pipePair()
	out := NewOutput(c1, 1024)
	in := NewInput(c2)
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 10)
		_, err := in.Read(buf)
		done <- err
	}()
	out.Close()
	if err := <-done; err != io.EOF {
		t.Fatalf("expected EOF after close, got %v", err)
	}
}

func TestDefaultBlockSize(t *testing.T) {
	c1, _ := pipePair()
	out := NewOutput(c1, 0)
	if out.BlockSize() != DefaultBlockSize {
		t.Fatalf("default block size not applied: %d", out.BlockSize())
	}
}

func TestBuilderRequiresBottomPosition(t *testing.T) {
	spec := driver.Spec{Name: Name}
	lower := func() (driver.Output, error) { return nil, nil }
	if _, err := buildOutput(spec, nil, lower); err == nil {
		t.Fatal("tcpblk with a lower driver should be rejected")
	}
	lowerIn := func() (driver.Input, error) { return nil, nil }
	if _, err := buildInput(spec, nil, lowerIn); err == nil {
		t.Fatal("tcpblk with a lower driver should be rejected")
	}
	if _, err := buildOutput(spec, &driver.Env{}, nil); err == nil {
		t.Fatal("tcpblk without Dial should be rejected")
	}
	if _, err := buildInput(spec, &driver.Env{}, nil); err == nil {
		t.Fatal("tcpblk without Accept should be rejected")
	}
}

func TestBuilderViaRegistry(t *testing.T) {
	c1, c2 := pipePair()
	stack, err := driver.ParseStack("tcpblk:block=2048")
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
	msg := []byte("built through the registry")
	go func() {
		out.Write(msg)
		out.Flush()
		out.Close()
	}()
	got, err := io.ReadAll(in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("payload mismatch")
	}
}

func TestRandomWriteSizesQuick(t *testing.T) {
	f := func(seed int64, sizesRaw []uint16) bool {
		if len(sizesRaw) == 0 || len(sizesRaw) > 50 {
			return true
		}
		c1, c2 := pipePair()
		out := NewOutput(c1, 777) // odd block size to hit boundaries
		in := NewInput(c2)
		rng := rand.New(rand.NewSource(seed))
		var want []byte
		go func() {
			for _, s := range sizesRaw {
				chunk := make([]byte, int(s)%3000)
				rng.Read(chunk)
				want = append(want, chunk...)
				out.Write(chunk)
			}
			out.Flush()
			out.Close()
		}()
		got, err := io.ReadAll(in)
		if err != nil {
			return false
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
