package ipl

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"netibis/internal/drivers/multi"
	"netibis/internal/drivers/secure"
	"netibis/internal/drivers/tcpblk"
)

// newWriteMessage starts a message to sink, in message objects of its own.
func newWriteMessage(sink MessageSink, onDone func([]byte)) *WriteMessage {
	return NewWriteMessages(sink, onDone).Next(nil)
}

// newReadMessage hands payload out as a receive port hands out a message.
func newReadMessage(origin Identifier, payload []byte) *ReadMessage {
	return new(ReadMessages).Next(origin, payload)
}

// captureSink remembers every delivered payload. It keeps a copy: a
// sink must not retain what it is handed.
type captureSink struct {
	payloads [][]byte
	bodies   []int // the length of each borrowed body, 0 for none
	err      error
}

func (s *captureSink) Deliver(head, body []byte) error {
	cp := append(append([]byte(nil), head[Headroom:]...), body...)
	s.payloads = append(s.payloads, cp)
	s.bodies = append(s.bodies, len(body))
	return s.err
}

func TestIdentifierAndPortID(t *testing.T) {
	id := Identifier{Name: "node-3", Pool: "run-42"}
	if id.String() != "run-42/node-3" {
		t.Fatalf("Identifier.String = %q", id.String())
	}
	if id.IsZero() {
		t.Fatal("non-zero identifier reported zero")
	}
	if !(Identifier{}).IsZero() {
		t.Fatal("zero identifier not reported zero")
	}
	pid := PortID{Owner: id, Port: "results"}
	if pid.String() != "run-42/node-3:results" {
		t.Fatalf("PortID.String = %q", pid.String())
	}
}

func TestPortTypeStack(t *testing.T) {
	pt := PortType{Name: "bulk", Stack: "zip/tcpblk"}
	st, err := pt.ParseStack()
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 2 || st[0].Name != "zip" {
		t.Fatalf("parsed stack %+v", st)
	}
	// Empty stack defaults to plain TCP_Block.
	def, err := PortType{Name: "x"}.ParseStack()
	if err != nil {
		t.Fatal(err)
	}
	if len(def) != 1 || def[0].Name != "tcpblk" {
		t.Fatalf("default stack %+v", def)
	}
}

func TestWriteReadMessageRoundTrip(t *testing.T) {
	sink := &captureSink{}
	done := 0
	m := newWriteMessage(sink, func([]byte) { done++ })
	m.WriteBool(true).
		WriteInt(-123456789).
		WriteFloat(math.Pi).
		WriteString("wide-area communication").
		WriteBytes([]byte{1, 2, 3, 4, 5}).
		WriteInt(0)
	if m.Size() == 0 {
		t.Fatal("message size should be non-zero")
	}
	if err := m.Finish(); err != nil {
		t.Fatal(err)
	}
	if done != 1 {
		t.Fatal("onDone not invoked")
	}
	if err := m.Finish(); err == nil {
		t.Fatal("double finish should fail")
	}
	if len(sink.payloads) != 1 {
		t.Fatalf("sink got %d payloads", len(sink.payloads))
	}

	r := newReadMessage(Identifier{Name: "a", Pool: "p"}, sink.payloads[0])
	if b, err := r.ReadBool(); err != nil || !b {
		t.Fatalf("ReadBool = %v %v", b, err)
	}
	if v, err := r.ReadInt(); err != nil || v != -123456789 {
		t.Fatalf("ReadInt = %v %v", v, err)
	}
	if f, err := r.ReadFloat(); err != nil || f != math.Pi {
		t.Fatalf("ReadFloat = %v %v", f, err)
	}
	if s, err := r.ReadString(); err != nil || s != "wide-area communication" {
		t.Fatalf("ReadString = %q %v", s, err)
	}
	if b, err := r.ReadBytes(); err != nil || len(b) != 5 || b[4] != 5 {
		t.Fatalf("ReadBytes = %v %v", b, err)
	}
	if v, err := r.ReadInt(); err != nil || v != 0 {
		t.Fatalf("ReadInt = %v %v", v, err)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if r.Origin.Name != "a" {
		t.Fatal("origin lost")
	}
}

func TestReadMessageTypeMismatch(t *testing.T) {
	sink := &captureSink{}
	m := newWriteMessage(sink, nil)
	m.WriteInt(7)
	m.Finish()
	r := newReadMessage(Identifier{}, sink.payloads[0])
	if _, err := r.ReadString(); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("expected ErrTypeMismatch, got %v", err)
	}
}

func TestReadMessageShort(t *testing.T) {
	r := newReadMessage(Identifier{}, nil)
	if _, err := r.ReadInt(); err != ErrShortMessage {
		t.Fatalf("expected ErrShortMessage, got %v", err)
	}
	// Truncated payload: tag present, body missing.
	r2 := newReadMessage(Identifier{}, []byte{tagBool})
	if _, err := r2.ReadBool(); err != ErrShortMessage {
		t.Fatalf("expected ErrShortMessage, got %v", err)
	}
	r3 := newReadMessage(Identifier{}, []byte{tagBytes, 200})
	if _, err := r3.ReadBytes(); err == nil {
		t.Fatal("truncated bytes should fail")
	}
}

func TestReadMessageLeftoverDetected(t *testing.T) {
	sink := &captureSink{}
	m := newWriteMessage(sink, nil)
	m.WriteInt(1).WriteInt(2)
	m.Finish()
	r := newReadMessage(Identifier{}, sink.payloads[0])
	r.ReadInt()
	if err := r.Finish(); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("expected leftover detection, got %v", err)
	}
}

func TestDeliverErrorPropagates(t *testing.T) {
	sink := &captureSink{err: errors.New("link broken")}
	m := newWriteMessage(sink, nil)
	m.WriteBool(false)
	if err := m.Finish(); err == nil {
		t.Fatal("sink error should propagate from Finish")
	}
}

// TestMessageTooLarge: a message past MaxMessageLen is refused with the
// typed error before it reaches the sink (a receiver would drop the link
// on its announced length); one exactly at the bound is delivered.
func TestMessageTooLarge(t *testing.T) {
	sink := &captureSink{}
	done := 0
	m := newWriteMessage(sink, func([]byte) { done++ })
	m.buf = make([]byte, Headroom+MaxMessageLen)
	if err := m.Finish(); err != nil || len(sink.payloads) != 1 {
		t.Fatalf("message at the bound: %v, %d delivered", err, len(sink.payloads))
	}
	m = newWriteMessage(sink, func([]byte) { done++ })
	m.buf = make([]byte, Headroom+MaxMessageLen+1)
	if err := m.Finish(); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("oversize message: got %v, want ErrMessageTooLarge", err)
	}
	if len(sink.payloads) != 1 || done != 2 {
		t.Fatalf("oversize message reached the sink (%d delivered) or left the port busy (%d done)", len(sink.payloads), done)
	}
}

// TestWriteMessageReusesBuffer: the buffer onDone hands back is what the
// next message encodes into, the headroom in front of the encoding holds
// the length of any message the bound allows, and a write or Finish
// through the finished message while the port's next one is active
// cannot reach that one.
func TestWriteMessageReusesBuffer(t *testing.T) {
	if n := len(appendUvarint(nil, MaxMessageLen)); n > Headroom {
		t.Fatalf("the length of a maximal message takes %d bytes, headroom is %d", n, Headroom)
	}
	sink := &captureSink{}
	var spare []byte
	msgs := NewWriteMessages(sink, func(buf []byte) { spare = buf })
	first := msgs.Next(nil)
	first.WriteBytes(make([]byte, 1000))
	if err := first.Finish(); err != nil {
		t.Fatal(err)
	}
	storage := &spare[0]
	second := msgs.Next(spare)
	second.WriteString("second")
	if &second.buf[0] != storage {
		t.Fatal("the next message did not encode into the returned buffer")
	}
	first.WriteString("stray")
	if err := first.Finish(); !errors.Is(err, ErrMessageFinished) || len(sink.payloads) != 1 {
		t.Fatalf("a finished message finished again: %v, %d delivered", err, len(sink.payloads))
	}
	if err := second.Finish(); err != nil {
		t.Fatal(err)
	}
	r := newReadMessage(Identifier{}, sink.payloads[1])
	if s, err := r.ReadString(); err != nil || s != "second" || r.Finish() != nil {
		t.Fatalf("second message decoded as %q, %v", s, err)
	}
}

// TestWriteBytesBorrowsTheLastLargeItem: a WriteBytes of at least
// borrowMin bytes reaches the sink as the caller's own slice when it is
// the message's last item; a shorter one, one with a write behind it, and
// one whose message is read through Payload are copied into the encoding.
// The message the sink sees is the same either way.
func TestWriteBytesBorrowsTheLastLargeItem(t *testing.T) {
	big, small := make([]byte, borrowMin), make([]byte, borrowMin-1)
	for _, tc := range []struct {
		name  string
		write func(m *WriteMessage)
		body  int // bytes the sink gets as the borrowed body
	}{
		{"large last", func(m *WriteMessage) { m.WriteInt(1).WriteBytes(big) }, borrowMin},
		{"under the borrow size", func(m *WriteMessage) { m.WriteInt(1).WriteBytes(small) }, 0},
		{"large, then small", func(m *WriteMessage) { m.WriteBytes(big).WriteBool(true) }, 0},
		{"two large", func(m *WriteMessage) { m.WriteBytes(big).WriteBytes(big) }, borrowMin},
		{"large, then Payload", func(m *WriteMessage) { m.WriteBytes(big).Payload() }, 0},
	} {
		sink, ref := &captureSink{}, &captureSink{}
		m := newWriteMessage(sink, nil)
		tc.write(m)
		size := m.Size()
		if err := m.Finish(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// The same items again, every one copied: the encoding to match.
		want := newWriteMessage(ref, nil)
		tc.write(want)
		want.Payload()
		want.Finish()
		if sink.bodies[0] != tc.body {
			t.Errorf("%s: %d bytes borrowed, want %d", tc.name, sink.bodies[0], tc.body)
		}
		if !bytes.Equal(sink.payloads[0], ref.payloads[0]) || size != len(ref.payloads[0]) {
			t.Errorf("%s: the message differs from its copied encoding, or Size %d is not its length %d", tc.name, size, len(ref.payloads[0]))
		}
	}
}

// TestBorrowedSliceChangeFailsLoudly: under checkBorrowed, which test
// binaries run with, a borrowed slice that changed before Finish returned
// panics — at Finish, after the port has its buffer back, or at the write
// that would have copied the changed bytes in.
func TestBorrowedSliceChangeFailsLoudly(t *testing.T) {
	if !checkBorrowed {
		t.Fatal("checkBorrowed is off in a test binary")
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	done := 0
	p := make([]byte, borrowMin)
	m := newWriteMessage(&captureSink{}, func([]byte) { done++ })
	m.WriteBytes(p)
	p[7]++
	mustPanic("changed before Finish", func() { m.Finish() })
	if done != 1 {
		t.Errorf("the port did not get its buffer back before the panic")
	}
	m = newWriteMessage(&captureSink{}, nil)
	m.WriteBytes(p)
	p[borrowMin-1]++
	mustPanic("changed before a later write", func() { m.WriteInt(1) })
	sink := &captureSink{}
	m = newWriteMessage(sink, nil)
	m.WriteBytes(p)
	if err := m.Finish(); err != nil || sink.bodies[0] != borrowMin {
		t.Fatalf("an unchanged borrowed slice: %v, %d bytes borrowed", err, sink.bodies[0])
	}
	p[0]++ // after Finish the slice is the caller's again
}

// TestBorrowSizeIsTheBlockSize ties borrowMin to the size from which on
// every block layer below sends a write from the caller's slice.
func TestBorrowSizeIsTheBlockSize(t *testing.T) {
	for layer, size := range map[string]int{
		"tcpblk block": tcpblk.DefaultBlockSize, "secure record": secure.DefaultSealBlock, "multi fragment": multi.DefaultFragment,
	} {
		if size != borrowMin {
			t.Errorf("borrowMin is %d, the %s %d", borrowMin, layer, size)
		}
	}
}

func TestSerializationQuick(t *testing.T) {
	f := func(b bool, i int64, fl float64, s string, raw []byte) bool {
		if math.IsNaN(fl) {
			fl = 0 // NaN != NaN would fail the comparison below
		}
		sink := &captureSink{}
		m := newWriteMessage(sink, nil)
		m.WriteBool(b).WriteInt(i).WriteFloat(fl).WriteString(s).WriteBytes(raw)
		if err := m.Finish(); err != nil {
			return false
		}
		r := newReadMessage(Identifier{}, sink.payloads[0])
		gb, e1 := r.ReadBool()
		gi, e2 := r.ReadInt()
		gf, e3 := r.ReadFloat()
		gs, e4 := r.ReadString()
		graw, e5 := r.ReadBytes()
		if e1 != nil || e2 != nil || e3 != nil || e4 != nil || e5 != nil {
			return false
		}
		if gb != b || gi != i || gf != fl || gs != s {
			return false
		}
		if len(graw) != len(raw) {
			return false
		}
		for k := range raw {
			if graw[k] != raw[k] {
				return false
			}
		}
		return r.Finish() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestErrorsDistinct(t *testing.T) {
	errs := []error{ErrClosed, ErrIncompatiblePortTypes, ErrNoSuchPort, ErrMessageActive, ErrMessageFinished, ErrMessageRecycled, ErrTypeMismatch, ErrShortMessage}
	for i := range errs {
		for j := range errs {
			if i != j && errors.Is(errs[i], errs[j]) {
				t.Fatalf("errors %d and %d overlap", i, j)
			}
		}
	}
}
