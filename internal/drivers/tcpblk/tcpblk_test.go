package tcpblk

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"testing"
	"testing/quick"
	"time"

	"netibis/internal/driver"
	"netibis/internal/wire"
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
	large := bytes.Repeat([]byte{0x42}, 1200)
	for _, tc := range []struct {
		name   string
		unit   bool // the small bytes come by WriteBuf
		blocks int64
	}{
		// A small aggregated write followed by a bypassing large write:
		// the buffered bytes ride at the front of the large payload's
		// frame, which is the frame one write of both would have made.
		{"write", false, 1},
		// Bytes that came by WriteBuf are a unit of their own: the pair
		// leaves as two frames of one vectored write.
		{"writebuf", true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c1, c2 := pipePair()
			out := NewOutput(c1, 1000)
			in := NewInput(c2)
			done := make(chan []byte, 1)
			go func() {
				b, _ := io.ReadAll(in)
				done <- b
			}()
			head := []byte("small-head-")
			if tc.unit {
				b := wire.GetBuf(len(head))
				copy(b.Bytes(), head)
				if err := out.WriteBuf(b); err != nil {
					t.Fatal(err)
				}
			} else if _, err := out.Write(head); err != nil {
				t.Fatal(err)
			}
			if _, err := out.Write(large); err != nil {
				t.Fatal(err)
			}
			blocks, bytesSent := out.Stats()
			if blocks != tc.blocks {
				t.Fatalf("got %d blocks, want %d", blocks, tc.blocks)
			}
			if want := int64(len(head) + len(large)); bytesSent != want {
				t.Fatalf("bytes sent = %d, want %d", bytesSent, want)
			}
			out.Close()
			got := <-done
			if want := append(head, large...); !bytes.Equal(got, want) {
				t.Fatalf("byte order broken across the bypass: got %d bytes want %d", len(got), len(want))
			}
		})
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
	stack, err := driver.ParseStack("tcpblk")
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

// memConn is a conn whose far end wrote a whole stream before it is
// read: each Read returns all the stream it is asked for, and counts.
type memConn struct {
	net.Conn
	r     *bytes.Reader
	reads int
}

func (c *memConn) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

func (c *memConn) Close() error { return nil }

// TestConnReadsPerBlock counts the conn Reads the input makes: a burst
// of 64 B blocks costs at most one per block, a 64 KiB block at most two
// (the read-ahead holding its header, and the rest read straight into
// the caller's slice).
func TestConnReadsPerBlock(t *testing.T) {
	var burst bytes.Buffer
	out := NewOutput(nopConn{&burst}, 0)
	const blocks = 500
	for range blocks {
		out.Write(make([]byte, 64))
		out.Flush()
	}
	conn := &memConn{r: bytes.NewReader(burst.Bytes())}
	in := NewInput(conn)
	p := make([]byte, 64)
	for i := range blocks {
		if _, err := io.ReadFull(in, p); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
	}
	if perBlock := float64(conn.reads) / blocks; perBlock > 1 {
		t.Errorf("a burst of 64 B blocks costs %.2f conn reads per block, want at most 1", perBlock)
	}
	t.Logf("%d conn reads for %d blocks of 64 B", conn.reads, blocks)

	var big bytes.Buffer
	out = NewOutput(nopConn{&big}, 0)
	out.Write(make([]byte, DefaultBlockSize))
	out.Flush()
	conn = &memConn{r: bytes.NewReader(big.Bytes())}
	in = NewInput(conn)
	if n, err := in.Read(make([]byte, DefaultBlockSize)); n != DefaultBlockSize || err != nil {
		t.Fatalf("Read of a 64 KiB block: %d, %v", n, err)
	}
	if conn.reads > 2 {
		t.Errorf("a 64 KiB block costs %d conn reads, want at most 2", conn.reads)
	}
	t.Logf("%d conn reads for a 64 KiB block", conn.reads)
}

// nopConn is a conn that appends what is written to it to a buffer.
type nopConn struct{ w *bytes.Buffer }

func (c nopConn) Read([]byte) (int, error)         { return 0, io.EOF }
func (c nopConn) Write(p []byte) (int, error)      { return c.w.Write(p) }
func (c nopConn) Close() error                     { return nil }
func (c nopConn) LocalAddr() net.Addr              { return nil }
func (c nopConn) RemoteAddr() net.Addr             { return nil }
func (c nopConn) SetDeadline(time.Time) error      { return nil }
func (c nopConn) SetReadDeadline(time.Time) error  { return nil }
func (c nopConn) SetWriteDeadline(time.Time) error { return nil }
