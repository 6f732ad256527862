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
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"netibis/internal/driver"
	"netibis/internal/drivers/tcpblk"
	"netibis/internal/testutil"
	"netibis/internal/wire"
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
	// The input first: over unbuffered pipes a close frame waits for a
	// reader, and nothing reads here.
	in.Close()
	out.Close()
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

// registryLink builds both sides of a stack through the registry over
// unbuffered pipes, paired in arrival order. The two sides build at
// once: each sub-stream's index crosses a pipe, whose write waits for
// the read.
func registryLink(t *testing.T, spec string) (driver.Output, driver.Input) {
	t.Helper()
	stack, err := driver.ParseStack(spec)
	if err != nil {
		t.Fatal(err)
	}
	dial, accept := driver.PipeEnv()
	var out driver.Output
	built := make(chan error, 1)
	go func() {
		var err error
		out, err = driver.BuildOutput(stack, dial)
		built <- err
	}()
	in, err := driver.BuildInput(stack, accept)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-built; err != nil {
		t.Fatal(err)
	}
	return out, in
}

func TestFullStackViaRegistry(t *testing.T) {
	out, in := registryLink(t, "multi:streams=4:fragment=2048/tcpblk:block=4096")
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

// index encodes the stream index a sub-stream starts with.
func index(i uint64) []byte { return binary.AppendUvarint(nil, i) }

// frag encodes one fragment as it travels on a sub-stream.
func frag(seq uint64, payload string) []byte {
	return append(binary.AppendUvarint(binary.AppendUvarint(nil, seq), uint64(len(payload))), payload...)
}

// readFrom builds an input over sub-streams carrying the given bytes, as
// the registry builds it, and reads it to its end: it returns what the
// build or the reads failed with, and what was delivered before.
func readFrom(t *testing.T, subs ...[]byte) ([]byte, error) {
	t.Helper()
	lower := make(chan driver.Input, len(subs))
	for _, s := range subs {
		lower <- io.NopCloser(bytes.NewReader(s))
	}
	spec := driver.Spec{Name: Name, Params: map[string]string{"streams": strconv.Itoa(len(subs))}}
	in, err := buildInput(spec, nil, func() (driver.Input, error) { return <-lower, nil })
	if err != nil {
		return nil, err
	}
	defer in.Close()
	got, err := io.ReadAll(in)
	last := err
	if last == nil {
		last = io.EOF
	}
	if n, again := in.Read(make([]byte, 8)); n != 0 || again != last {
		t.Errorf("Read after %v: %d bytes, %v; an ended link stays ended and holds nothing", last, n, again)
	}
	return got, err
}

// cat concatenates byte slices.
func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// TestBadStreamIndexFailsTheBuild: the sub-streams of a link must start
// with the indexes 0 … n-1, one each; anything else fails the build
// typed, and every sub-stream built so far is closed.
func TestBadStreamIndexFailsTheBuild(t *testing.T) {
	for _, tc := range []struct {
		name string
		subs [][]byte
	}{
		{"duplicate", [][]byte{index(0), index(0)}},
		{"out of range", [][]byte{index(0), index(2)}},
		{"beyond MaxStreams", [][]byte{index(1), index(1 << 40)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := testutil.LeakCheck(t, 0)
			if _, err := readFrom(t, tc.subs...); !errors.Is(err, ErrBadStreamIndex) {
				t.Errorf("build: %v, want ErrBadStreamIndex", err)
			}
			check()
		})
	}
}

// TestBadFragmentFailsTheLink: Read wants fragment s from sub-stream
// s mod n and nothing else. A sequence number seen before (on another
// sub-stream or on the same one) or skipped ahead fails the link with
// ErrBadFragment, an announced length above wire.MaxFrameLen with
// wire.ErrFrameTooLarge — after the fragments before it, and with
// nothing of the bad one delivered.
func TestBadFragmentFailsTheLink(t *testing.T) {
	for _, tc := range []struct {
		name string
		subs [][]byte
		good string // what is delivered before the bad fragment
		want error
	}{
		{"duplicate", [][]byte{cat(index(0), frag(0, "once")), cat(index(1), frag(0, "twice"))}, "once", ErrBadFragment},
		{"stale", [][]byte{cat(index(0), frag(0, "once"), frag(0, "twice")), cat(index(1), frag(1, "!"))}, "once!", ErrBadFragment},
		{"ahead", [][]byte{cat(index(0), frag(0, "once")), cat(index(1), frag(3, "ahead"))}, "once", ErrBadFragment},
		{"oversize", [][]byte{cat(index(0), frag(0, "once")), cat(index(1), binary.AppendUvarint(index(1), wire.MaxFrameLen+1))}, "once", wire.ErrFrameTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := testutil.LeakCheck(t, 0)
			got, err := readFrom(t, tc.subs...)
			if err != tc.want || string(got) != tc.good {
				t.Errorf("read %q, %v; want %q, %v", got, err, tc.good, tc.want)
			}
			check()
		})
	}
}

// TestGapAtEOFIsAnError: a sub-stream cut at a block boundary ends in a
// clean EOF below, so the fragment it should have carried never comes.
// The link ends cleanly only where every sub-stream ends; a fragment
// still on another, or one cut short, fails it.
func TestGapAtEOFIsAnError(t *testing.T) {
	whole := frag(0, "whole")
	for _, tc := range []struct {
		name string
		subs [][]byte
		want error
	}{
		{"clean end", [][]byte{cat(index(0), whole), index(1)}, nil},
		{"fragment past the gap", [][]byte{index(0), cat(index(1), frag(1, "orphan"))}, io.ErrUnexpectedEOF},
		{"cut inside a payload", [][]byte{cat(index(0), whole[:len(whole)-1]), index(1)}, io.ErrUnexpectedEOF},
		{"cut inside a header", [][]byte{cat(index(0), whole[:1]), index(1)}, io.ErrUnexpectedEOF},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := testutil.LeakCheck(t, 0)
			_, err := readFrom(t, tc.subs...)
			if err != tc.want {
				t.Errorf("read to the end: %v, want %v", err, tc.want)
			}
			check()
		})
	}
}

// aliasSub is a sub-stream that checks where multi reads it into: a
// fragment header is read a byte at a time, every other read must land
// at the start of the slice the caller handed Read.
type aliasSub struct {
	r       io.Reader
	caller  *[]byte // the slice of the Read in progress
	payload *int    // payload bytes read off all sub-streams
	t       *testing.T
}

func (s aliasSub) Read(p []byte) (int, error) {
	if len(p) > 1 && &p[0] != &(*s.caller)[0] {
		s.t.Errorf("a %d-byte read off a sub-stream lands outside the caller's slice", len(p))
	}
	n, err := s.r.Read(p)
	if len(p) > 1 || len(p) == 1 && &p[0] == &(*s.caller)[0] {
		*s.payload += n
	}
	return n, err
}

func (aliasSub) Close() error { return nil }

// TestInputHoldsNoBytes: multi buffers nothing. Apart from fragment
// headers, every byte read off a sub-stream is read straight into the
// caller's slice and is delivered by the same Read, whether the caller's
// slice is smaller than a fragment (the rest carries over) or larger.
func TestInputHoldsNoBytes(t *testing.T) {
	const streams, fragments = 3, 24
	var want []byte
	contents := make([][]byte, streams)
	for seq := uint64(0); seq < fragments; seq++ {
		p := fmt.Sprintf("fragment %d %s", seq, bytes.Repeat([]byte{'x'}, int(seq*37%200)))
		contents[seq%streams] = append(contents[seq%streams], frag(seq, p)...)
		want = append(want, p...)
	}
	var caller []byte
	payload := 0
	subs := make([]driver.Input, streams)
	for i := range subs {
		subs[i] = aliasSub{r: bytes.NewReader(contents[i]), caller: &caller, payload: &payload, t: t}
	}
	in := NewInput(subs)
	defer in.Close()
	var got []byte
	rng := rand.New(rand.NewSource(3))
	for {
		caller = make([]byte, 1+rng.Intn(300))
		n, err := in.Read(caller)
		got = append(got, caller[:n]...)
		if payload != len(got) {
			t.Fatalf("%d payload bytes read off the sub-streams, %d delivered", payload, len(got))
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("delivered %d bytes, want the %d sent, in order", len(got), len(want))
	}
}

// TestUnflushedWriteThenClose: a small Write, then a Write of many
// fragments per sub-stream with no Flush, then Close, on a stack built
// over unbuffered pipes with the reader draining concurrently. The
// stream indexes are exchanged concurrently, each worker flushes its
// fragments and the sub-streams close concurrently, so every byte
// arrives, the link ends in EOF and nothing is left running.
func TestUnflushedWriteThenClose(t *testing.T) {
	check := testutil.LeakCheck(t, 0)
	const streams, fragment = 4, 4096
	out, in := registryLink(t, fmt.Sprintf("multi:streams=%d:fragment=%d/tcpblk:block=%d", streams, fragment, fragment))
	big := make([]byte, 5*streams*fragment+17)
	rand.New(rand.NewSource(9)).Read(big)
	want := append([]byte("small"), big...)

	wrote := make(chan error, 1)
	go func() {
		_, err := out.Write(want[:5])
		if err == nil {
			_, err = out.Write(big)
		}
		wrote <- errors.Join(err, out.Close())
	}()
	got, err := io.ReadAll(in)
	if err != nil || !bytes.Equal(got, want) {
		t.Errorf("read %d bytes (%v), want the %d written", len(got), err, len(want))
	}
	if err := <-wrote; err != nil {
		t.Errorf("write and close: %v", err)
	}
	in.Close()
	check()
}
