package driver

import (
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"netibis/internal/wire"
)

// recorder is the driver side of a BlockOutput under test: it records
// every emit and every call the pipeline makes on the layer below.
type recorder struct {
	calls []string
	fail  error
}

func (r *recorder) emit(own, lead, body []byte) (int, error) {
	if r.fail != nil {
		return 0, r.fail
	}
	call := "emit " + string(own) + "|" + string(body)
	if len(lead) > 0 {
		call = "emit " + string(own) + "|" + string(lead) + "+" + string(body)
	}
	r.calls = append(r.calls, call)
	return len(own) + len(lead) + len(body) + 1, nil // a one-byte header per emit
}

func (r *recorder) Flush() error { r.calls = append(r.calls, "flush"); return nil }
func (r *recorder) Close() error { r.calls = append(r.calls, "close"); return nil }

// TestBlockOutputPipeline pins what every block driver inherits: small
// writes aggregate into blocks, a write of at least the bypass threshold
// leaves in pieces with the pending bytes ahead of it, Flush and Close
// emit before they reach the layer below, and a closed pipeline refuses
// everything with io.ErrClosedPipe.
func TestBlockOutputPipeline(t *testing.T) {
	var r recorder
	o := NewBlockOutput(&r, 8, 4, 6, false, r.emit)
	for _, w := range []string{"ab", "cdefghijkl", "mn", "opqrstu", "vw"} {
		if n, err := o.Write([]byte(w)); n != len(w) || err != nil {
			t.Fatalf("Write(%q) = %d, %v", w, n, err)
		}
	}
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}
	o.Write([]byte("xyz"))
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"emit ab|cdefgh", // bypass: pending bytes ride ahead of the first piece
		"emit |ijkl",     // the rest is still at the threshold
		"emit mn|opqrst", // bypass again, one piece
		"emit |uvw",      // "u" was below the threshold and aggregated
		"flush",
		"emit |xyz", "flush", "close",
	}
	if !reflect.DeepEqual(r.calls, want) {
		t.Fatalf("pipeline calls:\n got %q\nwant %q", r.calls, want)
	}
	if blocks, in, out := o.Counts(); blocks != 7 || in != 26 || out != 31 {
		t.Fatalf("Counts() = %d blocks, %d in, %d out; want 7, 26, 31", blocks, in, out)
	}
	if _, err := o.Write([]byte("x")); err != io.ErrClosedPipe {
		t.Fatalf("Write after Close: %v", err)
	}
	if err := o.Flush(); err != io.ErrClosedPipe {
		t.Fatalf("Flush after Close: %v", err)
	}
	if err := o.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestBlockOutputRide pins the pipeline of a driver that carries the
// bytes a Write left pending in the bypassing piece's block (tcpblk): a
// write that reaches the threshold together with them bypasses, cut so
// that the block stays within chunk, and is one block; bytes that came
// by WriteBuf keep a block of their own in front of it, and a WriteBuf's
// own bypassing piece carries nothing.
func TestBlockOutputRide(t *testing.T) {
	var r recorder
	o := NewBlockOutput(&r, 8, 4, 6, true, r.emit)
	unit := func(s string) {
		b := wire.GetBuf(len(s))
		copy(b.Bytes(), s)
		if err := o.WriteBuf(b); err != nil {
			t.Fatal(err)
		}
		if b.Refs() != 0 {
			t.Fatalf("WriteBuf left %d references", b.Refs())
		}
	}
	o.Write([]byte("ab"))
	o.Write([]byte("cd"))      // with "ab" pending it reaches the threshold
	o.Write([]byte("efghijk")) // a piece of at most six bytes, then "k" pending
	unit("lm")                 // a unit behind "k"
	o.Write([]byte("n"))
	o.Write([]byte("opqrstuv")) // "n" rides, cut to six; "klm" keeps its own block
	unit("wxyz")                // a unit reaching the threshold carries nothing
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"emit |ab+cd",
		"emit |efghij",
		"emit klm|n+opqrs",
		"emit tuv|wxyz",
		"flush",
	}
	if !reflect.DeepEqual(r.calls, want) {
		t.Fatalf("pipeline calls:\n got %q\nwant %q", r.calls, want)
	}
	if blocks, in, _ := o.Counts(); blocks != 6 || in != 26 {
		t.Fatalf("Counts() = %d blocks, %d in; want 6, 26", blocks, in)
	}
}

// TestBlockOutputKeepsPendingOnError: a failed emit consumes nothing, so
// the bytes are still there for the Close that follows.
func TestBlockOutputKeepsPendingOnError(t *testing.T) {
	r := recorder{fail: errors.New("link down")}
	o := NewBlockOutput(&r, 8, 0, 0, false, r.emit)
	o.Write([]byte("abc"))
	if err := o.Flush(); err != r.fail {
		t.Fatalf("Flush over a failing emit: %v", err)
	}
	r.fail = nil
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"emit |abc", "flush", "close"}; !reflect.DeepEqual(r.calls, want) {
		t.Fatalf("calls after recovery: %q, want %q", r.calls, want)
	}
}

// parkedLower is the layer below a BlockInput whose fill is parked in it
// until Close.
type parkedLower chan struct{}

func (p parkedLower) Close() error { close(p); return nil }

// TestBlockInputCloseUnblocksRead: Close closes the layer below before
// it takes the Read lock, the parked Read comes back with
// io.ErrClosedPipe whatever the layer below said, the partially consumed
// block is released, and so is every Read after.
func TestBlockInputCloseUnblocksRead(t *testing.T) {
	lower := make(parkedLower)
	block := wire.GetBuf(4)
	copy(block.Bytes(), "data")
	first := true
	in := NewBlockInput(lower, func([]byte) (int, *wire.Buf, error) {
		if first {
			first = false
			return 0, block, nil
		}
		<-lower
		return 0, nil, errors.New("use of closed connection")
	})
	p := make([]byte, 3)
	if n, err := in.Read(p); n != 3 || err != nil || string(p) != "dat" {
		t.Fatalf("first Read = %d, %v, %q", n, err, p)
	}
	if n, err := in.Read(p); n != 1 || err != nil {
		t.Fatalf("second Read = %d, %v", n, err)
	}
	if block.Refs() != 0 {
		t.Fatalf("exhausted block still holds %d references", block.Refs())
	}
	parked := make(chan error, 1)
	go func() {
		_, err := in.Read(p)
		parked <- err
	}()
	select {
	case err := <-parked:
		t.Fatalf("Read returned %v with nothing to deliver", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-parked:
		if err != io.ErrClosedPipe {
			t.Fatalf("parked Read after Close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock the parked Read")
	}
	if _, err := in.Read(p); err != io.ErrClosedPipe {
		t.Fatalf("Read after Close: %v", err)
	}
	if err := in.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestBlockInputDirectAndEmptyBlocks: a fill that decoded straight into
// the caller's slice is delivered as is, and a block with nothing to
// deliver is skipped, not mistaken for the end.
func TestBlockInputDirectAndEmptyBlocks(t *testing.T) {
	step := 0
	in := NewBlockInput(make(parkedLower), func(direct []byte) (int, *wire.Buf, error) {
		step++
		switch step {
		case 1:
			return 0, wire.GetBuf(0), nil // an empty block
		case 2:
			return 0, nil, nil // a foreign frame
		case 3:
			return copy(direct, "direct"), nil, nil
		}
		return 0, nil, io.EOF
	})
	got, err := io.ReadAll(in)
	if err != nil || string(got) != "direct" {
		t.Fatalf("ReadAll = %q, %v", got, err)
	}
}
