package multi

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"netibis/internal/driver"
	"netibis/internal/drivers/tcpblk"
	"netibis/internal/testutil"
)

// testLink builds a parallel-streams link with n streams over in-memory
// connections, with TCP_Block as the networking driver underneath — the
// exact composition used on real WAN data links.
func testLink(t *testing.T, n int, fragment int) (driver.Output, driver.Input) {
	t.Helper()
	outs := make([]driver.Output, n)
	ins := make([]driver.Input, n)
	for i := 0; i < n; i++ {
		c1, c2 := net.Pipe()
		outs[i] = tcpblk.NewOutput(c1, 8192)
		ins[i] = tcpblk.NewInput(c2)
	}
	return NewOutput(outs, fragment), NewInput(ins)
}

func transfer(t *testing.T, out driver.Output, in driver.Input, payload []byte) []byte {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := out.Write(payload); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if err := out.Flush(); err != nil {
			t.Errorf("flush: %v", err)
		}
		if err := out.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	got, err := io.ReadAll(in)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	wg.Wait()
	in.Close()
	return got
}

func TestRoundTripSingleStream(t *testing.T) {
	out, in := testLink(t, 1, 4096)
	payload := bytes.Repeat([]byte("single stream "), 5000)
	got := transfer(t, out, in, payload)
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestRoundTripFourStreams(t *testing.T) {
	out, in := testLink(t, 4, 4096)
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(7)).Read(payload)
	want := sha256.Sum256(payload)
	got := transfer(t, out, in, payload)
	if sha256.Sum256(got) != want {
		t.Fatalf("payload mismatch: got %d bytes want %d", len(got), len(payload))
	}
}

func TestRoundTripEightStreamsOddSizes(t *testing.T) {
	out, in := testLink(t, 8, 3333)
	payload := make([]byte, 777777)
	rand.New(rand.NewSource(8)).Read(payload)
	got := transfer(t, out, in, payload)
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch with odd fragment size")
	}
}

// TestOrderingPreserved checks the FIFO property the IPL depends on: a
// strictly increasing counter written at the sender must arrive strictly
// increasing, whatever interleaving the parallel streams produce.
func TestOrderingPreserved(t *testing.T) {
	out, in := testLink(t, 4, 512)
	const count = 20000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 4)
		for i := 0; i < count; i++ {
			buf[0] = byte(i >> 24)
			buf[1] = byte(i >> 16)
			buf[2] = byte(i >> 8)
			buf[3] = byte(i)
			out.Write(buf)
		}
		out.Flush()
		out.Close()
	}()
	data, err := io.ReadAll(in)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if len(data) != count*4 {
		t.Fatalf("got %d bytes, want %d", len(data), count*4)
	}
	for i := 0; i < count; i++ {
		v := int(data[i*4])<<24 | int(data[i*4+1])<<16 | int(data[i*4+2])<<8 | int(data[i*4+3])
		if v != i {
			t.Fatalf("ordering violated at %d: got %d", i, v)
		}
	}
}

func TestMultipleMessagesWithFlushes(t *testing.T) {
	out, in := testLink(t, 3, 1000)
	var want []byte
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			msg := bytes.Repeat([]byte{byte(i)}, 100+i*37)
			out.Write(msg)
			out.Flush()
		}
		out.Close()
	}()
	// The receiver sees one continuous byte stream.
	got, err := io.ReadAll(in)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i := 0; i < 50; i++ {
		want = append(want, bytes.Repeat([]byte{byte(i)}, 100+i*37)...)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("multi-message stream corrupted")
	}
}

func TestStreamsAccessor(t *testing.T) {
	out, in := testLink(t, 5, 1024)
	if out.(*Output).Streams() != 5 {
		t.Fatalf("Streams() = %d", out.(*Output).Streams())
	}
	out.Close()
	in.Close()
}

func TestWriteAfterClose(t *testing.T) {
	out, in := testLink(t, 2, 1024)
	go io.Copy(io.Discard, in)
	out.Close()
	if _, err := out.Write([]byte("late")); err == nil {
		t.Fatal("write after close should fail")
	}
	if err := out.Flush(); err == nil {
		t.Fatal("flush after close should fail")
	}
	if err := out.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	in.Close()
}

func TestBuilderValidation(t *testing.T) {
	spec := driver.Spec{Name: Name, Params: map[string]string{"streams": "0"}}
	lower := func() (driver.Output, error) { return nil, io.EOF }
	if _, err := buildOutput(spec, nil, lower); err == nil {
		t.Fatal("zero streams should be rejected")
	}
	spec.Params["streams"] = "100000"
	if _, err := buildOutput(spec, nil, lower); err == nil {
		t.Fatal("absurd stream count should be rejected")
	}
	if _, err := buildOutput(driver.Spec{Name: Name}, nil, nil); err == nil {
		t.Fatal("multi without a lower driver should be rejected")
	}
	if _, err := buildInput(driver.Spec{Name: Name}, nil, nil); err == nil {
		t.Fatal("multi input without a lower driver should be rejected")
	}
}

func TestBuilderPropagatesLowerErrors(t *testing.T) {
	spec := driver.Spec{Name: Name, Params: map[string]string{"streams": "3"}}
	// Sub-streams are established concurrently, so the builder's lower
	// function must be safe for concurrent calls.
	var calls atomic.Int32
	lower := func() (driver.Output, error) {
		if calls.Add(1) == 2 {
			return nil, io.ErrUnexpectedEOF
		}
		c1, c2 := net.Pipe()
		go io.Copy(io.Discard, c2)
		return tcpblk.NewOutput(c1, 1024), nil
	}
	if _, err := buildOutput(spec, nil, lower); err == nil {
		t.Fatal("sub-stream build failure must propagate")
	}
}

func TestFullStackViaRegistry(t *testing.T) {
	// Build "multi/tcpblk" through the registry with an Env that hands
	// out one in-memory connection per sub-stream.
	const n = 4
	outConns := make(chan net.Conn, n)
	inConns := make(chan net.Conn, n)
	for i := 0; i < n; i++ {
		c1, c2 := net.Pipe()
		outConns <- c1
		inConns <- c2
	}
	envOut := &driver.Env{Dial: func() (net.Conn, error) { return <-outConns, nil }}
	envIn := &driver.Env{Accept: func() (net.Conn, error) { return <-inConns, nil }}

	stack, err := driver.ParseStack("multi:streams=4:fragment=2048/tcpblk:block=4096")
	if err != nil {
		t.Fatal(err)
	}
	out, err := driver.BuildOutput(stack, envOut)
	if err != nil {
		t.Fatal(err)
	}
	in, err := driver.BuildInput(stack, envIn)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("registry built parallel streams "), 3000)
	got := transfer(t, out, in, payload)
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestReassemblyQuick(t *testing.T) {
	// Property: for any payload and any stream count 1..6, the bytes
	// arrive intact and in order.
	f := func(seed int64, streamsRaw, fragRaw uint8, size uint16) bool {
		streams := int(streamsRaw)%6 + 1
		frag := int(fragRaw)%2000 + 16
		n := int(size) % 50000
		payload := make([]byte, n)
		rand.New(rand.NewSource(seed)).Read(payload)

		outs := make([]driver.Output, streams)
		ins := make([]driver.Input, streams)
		for i := 0; i < streams; i++ {
			c1, c2 := net.Pipe()
			outs[i] = tcpblk.NewOutput(c1, 4096)
			ins[i] = tcpblk.NewInput(c2)
		}
		out := NewOutput(outs, frag)
		in := NewInput(ins)
		errCh := make(chan error, 1)
		go func() {
			if _, err := out.Write(payload); err != nil {
				errCh <- err
				return
			}
			if err := out.Flush(); err != nil {
				errCh <- err
				return
			}
			errCh <- out.Close()
		}()
		got, err := io.ReadAll(in)
		if err != nil {
			return false
		}
		if werr := <-errCh; werr != nil {
			return false
		}
		in.Close()
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// frag encodes one fragment as it travels on a sub-stream.
func frag(seq uint64, payload string) []byte {
	var hdr [binary.MaxVarintLen64 * 2]byte
	n := binary.PutUvarint(hdr[:], seq)
	n += binary.PutUvarint(hdr[n:], uint64(len(payload)))
	return append(hdr[:n:n], payload...)
}

// TestOutOfOrderArrivalUnblocksRead pins the reassembly wakeup contract:
// a blocked Read sleeps through out-of-order fragment arrivals (they
// cannot advance the in-order cursor, so the readers do not wake it) and
// is woken by exactly the fragment carrying nextSeq — after which the
// buffered later fragments drain without further sleeping.
func TestOutOfOrderArrivalUnblocksRead(t *testing.T) {
	const streams = 4
	writers := make([]*io.PipeWriter, streams)
	subs := make([]driver.Input, streams)
	for i := range subs {
		r, w := io.Pipe()
		writers[i], subs[i] = w, r
	}
	in := NewInput(subs)
	defer in.Close()

	payloads := []string{"seq-zero", "seq-one!", "seq-two!", "seq-three"}

	read := make(chan string, 1)
	go func() {
		buf := make([]byte, 16)
		n, err := in.Read(buf)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		read <- string(buf[:n])
	}()

	// Fragments 1..3 land first; none of them is nextSeq, so the Read
	// must stay blocked.
	for i := 1; i < streams; i++ {
		if _, err := writers[i].Write(frag(uint64(i), payloads[i])); err != nil {
			t.Fatal(err)
		}
	}
	if why := testutil.Settle(func() (bool, string) {
		in.mu.Lock()
		defer in.mu.Unlock()
		return len(in.pending) == streams-1, fmt.Sprintf("pending=%d", len(in.pending))
	}); why != "" {
		t.Fatalf("out-of-order fragments never reached the window: %s", why)
	}
	select {
	case got := <-read:
		t.Fatalf("Read returned %q before the in-order fragment arrived", got)
	case <-time.After(50 * time.Millisecond):
	}

	// The in-order fragment arrives; the Read must wake and deliver it.
	if _, err := writers[0].Write(frag(0, payloads[0])); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-read:
		if got != payloads[0] {
			t.Fatalf("first Read delivered %q, want %q", got, payloads[0])
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Read still blocked after the in-order fragment arrived")
	}

	// The rest must drain from the window in sequence order.
	for _, want := range payloads[1:] {
		buf := make([]byte, 16)
		n, err := in.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		if string(buf[:n]) != want {
			t.Fatalf("got %q, want %q", buf[:n], want)
		}
	}
	for _, w := range writers {
		w.Close()
	}
	if _, err := io.ReadAll(in); err != nil {
		t.Fatalf("drain to EOF: %v", err)
	}
}

// TestGapAtEOFIsAnError: a sub-stream cut at a block boundary ends in a
// clean EOF below, so the fragment it should have carried never comes.
// Once every sub-stream has ended the gap is final and the link must
// fail rather than wait for it.
func TestGapAtEOFIsAnError(t *testing.T) {
	check := testutil.LeakCheck(t, 0)
	in := NewInput([]driver.Input{
		io.NopCloser(bytes.NewReader(nil)),
		io.NopCloser(bytes.NewReader(frag(1, "orphan"))),
	})
	done := make(chan error, 1)
	go func() {
		_, err := io.ReadAll(in)
		done <- err
	}()
	select {
	case err := <-done:
		if err != io.ErrUnexpectedEOF {
			t.Errorf("read over a gap at end of stream: %v, want io.ErrUnexpectedEOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Error("Read still parked after every sub-stream ended")
	}
	in.Close()
	check()
}

// TestBadFragmentFailsTheLink: a sequence number seen twice fails the
// link with ErrBadFragment, whether the first copy still waits in the
// window (duplicate) or was already delivered (stale).
func TestBadFragmentFailsTheLink(t *testing.T) {
	for _, tc := range []struct {
		name      string
		seq       uint64
		delivered bool // the first copy is read before the second arrives
	}{
		{"duplicate", 1, false},
		{"stale", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := testutil.LeakCheck(t, 0)
			r, w := io.Pipe()
			in := NewInput([]driver.Input{r})
			buf := make([]byte, 16)
			w.Write(frag(tc.seq, "once"))
			if tc.delivered {
				if n, err := in.Read(buf); err != nil || string(buf[:n]) != "once" {
					t.Fatalf("first copy: %q, %v", buf[:n], err)
				}
			}
			w.Write(frag(tc.seq, "twice"))
			if n, err := in.Read(buf); !errors.Is(err, ErrBadFragment) {
				t.Errorf("read after a repeated sequence number: %q, %v, want ErrBadFragment", buf[:n], err)
			}
			in.Close()
			check()
		})
	}
}

// fragmentSource is a sub-stream whose peer sends fragments numbered
// next, next+2, next+4, …: left of them, or without end when left is
// negative, each of size bytes of a content its number determines. It
// counts the bytes read from it.
type fragmentSource struct {
	next uint64
	left int
	size int
	buf  []byte // the current fragment's unread bytes
	read atomic.Int64
}

func fragmentPayload(seq uint64, size int) string {
	p := make([]byte, size)
	for k := range p {
		p[k] = byte(seq*7 + uint64(k))
	}
	return string(p)
}

func (s *fragmentSource) Read(p []byte) (int, error) {
	if len(s.buf) == 0 {
		if s.left == 0 {
			return 0, io.EOF
		}
		s.left--
		s.buf = frag(s.next, fragmentPayload(s.next, s.size))
		s.next += 2
	}
	n := copy(p, s.buf)
	s.buf = s.buf[n:]
	s.read.Add(int64(n))
	return n, nil
}

func (s *fragmentSource) Close() error { return nil }

// TestPendingWindowIsBounded: fragments ahead of the one Read needs wait
// in the reassembly window only up to maxPending bytes. Past that, the
// reader holding one waits for room — it neither fails the link nor
// grows the window — so a hostile sub-stream sending far-ahead sequence
// numbers without end costs a bounded amount of memory and Close still
// ends it, and a slow sub-stream that fills the gap later gets every
// byte delivered in order.
func TestPendingWindowIsBounded(t *testing.T) {
	defer func(bound int) { maxPending = bound }(maxPending)
	maxPending = 64 << 10
	const size = 4 << 10
	for _, tc := range []struct {
		name  string
		ahead *fragmentSource // the odd-numbered sub-stream
		fill  bool            // the other then sends 0, 2, 4, … as many
	}{
		{"far-ahead fragments from a hostile peer", &fragmentSource{next: 1<<40 + 1, left: -1, size: size}, false},
		{"a slow sub-stream fills the gap", &fragmentSource{next: 1, left: 64, size: size}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := testutil.LeakCheck(t, 0)
			r, w := io.Pipe()
			in := NewInput([]driver.Input{r, tc.ahead})
			stalled := func() (bool, string) {
				in.mu.Lock()
				defer in.mu.Unlock()
				return in.stalled == 1, fmt.Sprintf("%d readers waiting, %d bytes pending", in.stalled, in.pendingBytes)
			}
			if why := testutil.Settle(stalled); why != "" {
				t.Fatalf("the reader of the far-ahead sub-stream never waited: %s", why)
			}
			in.mu.Lock()
			pending, held := in.pendingBytes, len(in.pending)
			in.mu.Unlock()
			if pending > maxPending || held > maxPending/size {
				t.Errorf("the window holds %d fragments of %d bytes, bound %d bytes", held, pending, maxPending)
			}
			if read := tc.ahead.read.Load(); read > int64(maxPending+2*(size+16)) {
				t.Errorf("%d bytes read off the sub-stream, bound %d and the fragment held", read, maxPending)
			}

			if !tc.fill {
				done := make(chan error, 1)
				go func() {
					_, err := in.Read(make([]byte, 16))
					done <- err
				}()
				in.Close()
				if err := <-done; !errors.Is(err, io.ErrClosedPipe) {
					t.Errorf("Read on a closed link: %v, want io.ErrClosedPipe", err)
				}
				check()
				return
			}
			var want bytes.Buffer
			go func() {
				for seq := uint64(0); seq < 2*64; seq += 2 {
					w.Write(frag(seq, fragmentPayload(seq, size)))
				}
				w.Close()
			}()
			for seq := uint64(0); seq < 2*64; seq++ {
				want.WriteString(fragmentPayload(seq, size))
			}
			got, err := io.ReadAll(in)
			if err != nil || !bytes.Equal(got, want.Bytes()) {
				t.Errorf("delivered %d bytes (err %v), want the %d sent in order", len(got), err, want.Len())
			}
			in.Close()
			check()
		})
	}
}
