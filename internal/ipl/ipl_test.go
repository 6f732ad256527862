package ipl

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// captureSink remembers every delivered payload. It keeps a copy: a
// sink must not retain what it is handed.
type captureSink struct {
	payloads [][]byte
	err      error
}

func (s *captureSink) Deliver(msg []byte) error {
	cp := append([]byte(nil), msg[Headroom:]...)
	s.payloads = append(s.payloads, cp)
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

func TestPortTypeStackAndCompatibility(t *testing.T) {
	pt := PortType{Name: "bulk", Stack: "zip:level=1/tcpblk"}
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
	if !pt.Compatible(PortType{Name: "bulk", Stack: "zip:level=1/tcpblk"}) {
		t.Fatal("identical port types should be compatible")
	}
	if pt.Compatible(PortType{Name: "bulk", Stack: "tcpblk"}) {
		t.Fatal("different stacks should be incompatible")
	}
	if pt.Compatible(PortType{Name: "bulk", Stack: "zip:level=1/secure/tcpblk"}) {
		t.Fatal("a sealed and an unsealed stack should be incompatible")
	}
}

func TestWriteReadMessageRoundTrip(t *testing.T) {
	sink := &captureSink{}
	done := 0
	m := NewWriteMessage(sink, nil, func([]byte) { done++ })
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

	r := NewReadMessage(Identifier{Name: "a", Pool: "p"}, sink.payloads[0])
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
	m := NewWriteMessage(sink, nil, nil)
	m.WriteInt(7)
	m.Finish()
	r := NewReadMessage(Identifier{}, sink.payloads[0])
	if _, err := r.ReadString(); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("expected ErrTypeMismatch, got %v", err)
	}
}

func TestReadMessageShort(t *testing.T) {
	r := NewReadMessage(Identifier{}, nil)
	if _, err := r.ReadInt(); err != ErrShortMessage {
		t.Fatalf("expected ErrShortMessage, got %v", err)
	}
	// Truncated payload: tag present, body missing.
	r2 := NewReadMessage(Identifier{}, []byte{tagBool})
	if _, err := r2.ReadBool(); err != ErrShortMessage {
		t.Fatalf("expected ErrShortMessage, got %v", err)
	}
	r3 := NewReadMessage(Identifier{}, []byte{tagBytes, 200})
	if _, err := r3.ReadBytes(); err == nil {
		t.Fatal("truncated bytes should fail")
	}
}

func TestReadMessageLeftoverDetected(t *testing.T) {
	sink := &captureSink{}
	m := NewWriteMessage(sink, nil, nil)
	m.WriteInt(1).WriteInt(2)
	m.Finish()
	r := NewReadMessage(Identifier{}, sink.payloads[0])
	r.ReadInt()
	if err := r.Finish(); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("expected leftover detection, got %v", err)
	}
}

func TestDeliverErrorPropagates(t *testing.T) {
	sink := &captureSink{err: errors.New("link broken")}
	m := NewWriteMessage(sink, nil, nil)
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
	m := NewWriteMessage(sink, nil, func([]byte) { done++ })
	m.buf = make([]byte, Headroom+MaxMessageLen)
	if err := m.Finish(); err != nil || len(sink.payloads) != 1 {
		t.Fatalf("message at the bound: %v, %d delivered", err, len(sink.payloads))
	}
	m = NewWriteMessage(sink, nil, func([]byte) { done++ })
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
// the length of any message the bound allows, and a write after Finish
// cannot reach the next message.
func TestWriteMessageReusesBuffer(t *testing.T) {
	if n := len(appendUvarint(nil, MaxMessageLen)); n > Headroom {
		t.Fatalf("the length of a maximal message takes %d bytes, headroom is %d", n, Headroom)
	}
	sink := &captureSink{}
	var spare []byte
	keep := func(buf []byte) { spare = buf }
	first := NewWriteMessage(sink, nil, keep)
	first.WriteBytes(make([]byte, 1000))
	if err := first.Finish(); err != nil {
		t.Fatal(err)
	}
	storage := &spare[0]
	second := NewWriteMessage(sink, spare, keep)
	second.WriteString("second")
	if &second.buf[0] != storage {
		t.Fatal("the next message did not encode into the returned buffer")
	}
	first.WriteString("stray")
	if err := second.Finish(); err != nil {
		t.Fatal(err)
	}
	r := NewReadMessage(Identifier{}, sink.payloads[1])
	if s, err := r.ReadString(); err != nil || s != "second" || r.Finish() != nil {
		t.Fatalf("second message decoded as %q, %v", s, err)
	}
}

func TestSerializationQuick(t *testing.T) {
	f := func(b bool, i int64, fl float64, s string, raw []byte) bool {
		if math.IsNaN(fl) {
			fl = 0 // NaN != NaN would fail the comparison below
		}
		sink := &captureSink{}
		m := NewWriteMessage(sink, nil, nil)
		m.WriteBool(b).WriteInt(i).WriteFloat(fl).WriteString(s).WriteBytes(raw)
		if err := m.Finish(); err != nil {
			return false
		}
		r := NewReadMessage(Identifier{}, sink.payloads[0])
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
	errs := []error{ErrClosed, ErrIncompatiblePortTypes, ErrNoSuchPort, ErrMessageActive, ErrTypeMismatch, ErrShortMessage}
	for i := range errs {
		for j := range errs {
			if i != j && errors.Is(errs[i], errs[j]) {
				t.Fatalf("errors %d and %d overlap", i, j)
			}
		}
	}
}
