// Package ipl defines the Ibis Portability Layer abstractions used by
// NetIbis (paper Section 5): location-independent Ibis identifiers,
// port types, unidirectional message channels between send ports and
// receive ports, and the typed message serialization that applications
// use to fill and drain messages.
//
// The IPL deliberately has no concept of hosts, addresses or transport
// protocols — that is what makes it possible for the NetIbis
// implementation (package core) to pick a different connection
// establishment method and driver stack for every individual connection
// without the application noticing.
package ipl

import (
	"errors"
	"fmt"

	"netibis/internal/driver"
)

// Identifier is a location-independent Ibis identifier: it names an
// Ibis instance (a process participating in the application) without
// revealing where it runs or how to reach it.
type Identifier struct {
	// Name is the unique instance name within the pool.
	Name string
	// Pool is the name of the application run (all instances that want
	// to talk to each other join the same pool).
	Pool string
}

// String implements fmt.Stringer.
func (id Identifier) String() string { return id.Pool + "/" + id.Name }

// IsZero reports whether the identifier is unset.
func (id Identifier) IsZero() bool { return id.Name == "" && id.Pool == "" }

// PortType groups the properties that send and receive ports of one
// logical channel must agree on: the driver stack used for link
// utilization, which is also where a link asks to be authenticated and
// encrypted — by naming the "secure" driver in it. Connecting ports of
// different types is an error, exactly as in Ibis.
type PortType struct {
	// Name identifies the port type.
	Name string
	// Stack is the link utilization configuration, e.g.
	// "zip:level=1/multi:streams=4/tcpblk".
	Stack string
}

// ParseStack parses and validates the port type's driver stack,
// substituting the plain TCP_Block stack when none is configured.
func (pt PortType) ParseStack() (driver.Stack, error) {
	spec := pt.Stack
	if spec == "" {
		spec = "tcpblk"
	}
	return driver.ParseStack(spec)
}

// Compatible reports whether two port types can be connected.
func (pt PortType) Compatible(other PortType) bool {
	return pt.Name == other.Name && pt.Stack == other.Stack
}

// PortID names one receive port of one Ibis instance.
type PortID struct {
	// Owner is the instance hosting the receive port.
	Owner Identifier
	// Port is the receive port's name, unique within its owner.
	Port string
}

// String implements fmt.Stringer.
func (p PortID) String() string { return p.Owner.String() + ":" + p.Port }

// Errors shared by IPL implementations.
var (
	// ErrClosed is returned by operations on closed ports.
	ErrClosed = errors.New("ipl: port closed")
	// ErrIncompatiblePortTypes is returned when connecting ports whose
	// types do not match.
	ErrIncompatiblePortTypes = errors.New("ipl: incompatible port types")
	// ErrNoSuchPort is returned when connecting to a receive port that
	// the target instance has not created.
	ErrNoSuchPort = errors.New("ipl: no such receive port")
	// ErrMessageActive is returned when a new message is started while
	// the previous one has not been finished.
	ErrMessageActive = errors.New("ipl: previous message not finished")
	// ErrMessageTooLarge is returned by WriteMessage.Finish for a message
	// whose encoding exceeds MaxMessageLen; nothing is sent.
	ErrMessageTooLarge = errors.New("ipl: message exceeds maximum length")
)

// MaxMessageLen bounds the encoded size of one message (64 MiB, the
// frame bound of the layers below). A receive port sizes a message's
// buffer from the length announced on the link before the first payload
// byte arrives, so this is what a corrupt or hostile peer can make a
// node allocate per link: senders refuse a larger message, receivers
// drop a link that announces one.
const MaxMessageLen = 1 << 26

// SendPort is the sending endpoint of unidirectional message channels.
// One send port can be connected to several receive ports; a finished
// message is delivered to all of them.
type SendPort interface {
	// Type returns the port's type.
	Type() PortType
	// Connect establishes a message channel to the given receive port.
	Connect(to PortID) error
	// Disconnect tears down the channel to the given receive port.
	Disconnect(to PortID) error
	// ConnectedTo lists the receive ports currently connected.
	ConnectedTo() []PortID
	// NewMessage starts a new outgoing message. Only one message may be
	// active at a time per send port (IPL semantics).
	NewMessage() (*WriteMessage, error)
	// Close disconnects everything and releases the port.
	Close() error
}

// ReceivePort is the receiving endpoint of unidirectional message
// channels. Several send ports may be connected to one receive port.
type ReceivePort interface {
	// Type returns the port's type.
	Type() PortType
	// ID returns the port's identity (owner + name).
	ID() PortID
	// Receive blocks until the next message arrives and returns it. One
	// message per port is live at a time: a message, and every slice its
	// ReadBytes returned, is valid until the next Receive on the same
	// port, which recycles its buffer.
	Receive() (*ReadMessage, error)
	// Close releases the port; blocked Receive calls return ErrClosed.
	Close() error
}

// MessageSink is where a finished WriteMessage goes; implemented by the
// NetIbis send port over its driver stack outputs.
type MessageSink interface {
	// Deliver sends one complete message: msg[Headroom:] is the payload,
	// the encoded message, and msg[:Headroom] is free for the sink's
	// framing, so that frame and payload can go down as one write. The
	// sink must not retain msg, the payload included, after returning:
	// the send port encodes its next message into the same buffer.
	Deliver(msg []byte) error
}

// Headroom is how many bytes a WriteMessage keeps free in front of its
// encoding for the sink: the uvarint length of any message up to
// MaxMessageLen fits.
const Headroom = 4

// --- typed message serialization -----------------------------------------------

// Item tags used by the typed serialization. They allow a receiver to
// detect type mismatches between writer and reader, which in a
// distributed application is a far more common bug than corrupt bytes.
const (
	tagBool byte = iota + 1
	tagInt64
	tagFloat64
	tagString
	tagBytes
)

// ErrTypeMismatch is returned when the read sequence does not match the
// written sequence.
var ErrTypeMismatch = errors.New("ipl: serialization type mismatch")

// ErrShortMessage is returned when reading past the end of a message.
var ErrShortMessage = errors.New("ipl: read past end of message")

// WriteMessage accumulates typed items for one message. It is created
// by SendPort.NewMessage and delivered atomically by Finish.
type WriteMessage struct {
	sink     MessageSink
	buf      []byte // Headroom free bytes, then the encoding
	finished bool
	onDone   func(buf []byte)
}

// NewWriteMessage creates a message that will be delivered to sink on
// Finish. It encodes into buf's storage when there is any (its contents
// are ignored), so a port with one message active at a time can hand
// each message the buffer of the one before. onDone (may be nil) is
// invoked after delivery, successful or not, with the message's buffer,
// which the message no longer references — the send port uses it to
// allow the next message and to keep the buffer for it.
func NewWriteMessage(sink MessageSink, buf []byte, onDone func(buf []byte)) *WriteMessage {
	if cap(buf) < Headroom {
		buf = make([]byte, 0, 256)
	}
	return &WriteMessage{sink: sink, buf: buf[:Headroom], onDone: onDone}
}

// WriteBool appends a boolean.
func (m *WriteMessage) WriteBool(v bool) *WriteMessage {
	b := byte(0)
	if v {
		b = 1
	}
	m.buf = append(m.buf, tagBool, b)
	return m
}

// WriteInt appends a signed integer (64-bit on the wire).
func (m *WriteMessage) WriteInt(v int64) *WriteMessage {
	m.buf = append(m.buf, tagInt64)
	m.buf = appendZigZag(m.buf, v)
	return m
}

// WriteFloat appends a float64.
func (m *WriteMessage) WriteFloat(v float64) *WriteMessage {
	m.buf = append(m.buf, tagFloat64)
	m.buf = appendUint64(m.buf, mathFloat64bits(v))
	return m
}

// WriteString appends a string.
func (m *WriteMessage) WriteString(s string) *WriteMessage {
	m.buf = append(m.buf, tagString)
	m.buf = appendUvarint(m.buf, uint64(len(s)))
	m.buf = append(m.buf, s...)
	return m
}

// WriteBytes appends a byte slice (the bulk-data path used by the
// bandwidth benchmarks).
func (m *WriteMessage) WriteBytes(p []byte) *WriteMessage {
	m.buf = append(m.buf, tagBytes)
	m.buf = appendUvarint(m.buf, uint64(len(p)))
	m.buf = append(m.buf, p...)
	return m
}

// Size returns the current encoded size of the message.
func (m *WriteMessage) Size() int { return len(m.buf) - Headroom }

// Finish completes the message and delivers it to every connected
// receive port. After Finish the message must not be used again.
func (m *WriteMessage) Finish() error {
	if m.finished {
		return errors.New("ipl: message already finished")
	}
	m.finished = true
	err := ErrMessageTooLarge
	if m.Size() <= MaxMessageLen {
		err = m.sink.Deliver(m.buf)
	}
	buf := m.buf
	m.buf = m.buf[:Headroom:Headroom] // a stray write after Finish cannot reach the next message
	if m.onDone != nil {
		m.onDone(buf)
	}
	return err
}

// Payload exposes the encoded bytes. They are invalid after Finish: the
// send port encodes its next message into the same buffer.
func (m *WriteMessage) Payload() []byte { return m.buf[Headroom:] }

// ReadMessage decodes the typed items of one received message. It and
// its bytes are valid until the next Receive on the port it came from.
type ReadMessage struct {
	// Origin identifies the sending instance.
	Origin Identifier
	buf    []byte
	off    int
}

// NewReadMessage wraps a received encoded message.
func NewReadMessage(origin Identifier, payload []byte) *ReadMessage {
	return &ReadMessage{Origin: origin, buf: payload}
}

// Remaining reports how many encoded bytes are left unread.
func (m *ReadMessage) Remaining() int { return len(m.buf) - m.off }

func (m *ReadMessage) expect(tag byte) error {
	if m.off >= len(m.buf) {
		return ErrShortMessage
	}
	if m.buf[m.off] != tag {
		return fmt.Errorf("%w: expected tag %d, found %d", ErrTypeMismatch, tag, m.buf[m.off])
	}
	m.off++
	return nil
}

// ReadBool reads a boolean.
func (m *ReadMessage) ReadBool() (bool, error) {
	if err := m.expect(tagBool); err != nil {
		return false, err
	}
	if m.off >= len(m.buf) {
		return false, ErrShortMessage
	}
	v := m.buf[m.off] != 0
	m.off++
	return v, nil
}

// ReadInt reads a signed integer.
func (m *ReadMessage) ReadInt() (int64, error) {
	if err := m.expect(tagInt64); err != nil {
		return 0, err
	}
	v, n := decodeZigZag(m.buf[m.off:])
	if n <= 0 {
		return 0, ErrShortMessage
	}
	m.off += n
	return v, nil
}

// ReadFloat reads a float64.
func (m *ReadMessage) ReadFloat() (float64, error) {
	if err := m.expect(tagFloat64); err != nil {
		return 0, err
	}
	if m.Remaining() < 8 {
		return 0, ErrShortMessage
	}
	v := mathFloat64frombits(readUint64(m.buf[m.off:]))
	m.off += 8
	return v, nil
}

// ReadString reads a string.
func (m *ReadMessage) ReadString() (string, error) {
	if err := m.expect(tagString); err != nil {
		return "", err
	}
	b, err := m.readLenPrefixed()
	return string(b), err
}

// ReadBytes reads a byte slice. The returned slice aliases the message
// buffer: it is valid until the next Receive on the port, and a caller
// that keeps it longer must copy it.
func (m *ReadMessage) ReadBytes() ([]byte, error) {
	if err := m.expect(tagBytes); err != nil {
		return nil, err
	}
	return m.readLenPrefixed()
}

func (m *ReadMessage) readLenPrefixed() ([]byte, error) {
	n, used := decodeUvarint(m.buf[m.off:])
	if used <= 0 {
		return nil, ErrShortMessage
	}
	m.off += used
	if uint64(m.Remaining()) < n {
		return nil, ErrShortMessage
	}
	b := m.buf[m.off : m.off+int(n)]
	m.off += int(n)
	return b, nil
}

// Finish checks that the whole message has been consumed; a leftover
// usually means writer and reader disagree about the message layout.
func (m *ReadMessage) Finish() error {
	if m.Remaining() != 0 {
		return fmt.Errorf("%w: %d bytes left unread", ErrTypeMismatch, m.Remaining())
	}
	return nil
}
