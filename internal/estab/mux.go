package estab

// ServiceMux is the one conversation layer between a connect's
// establishments and the service link: it frames every brokering message,
// routes it to the establishment it belongs to, and ends the connect with
// one barrier.
//
// A data link's driver stack may need several connections (the
// parallel-streams driver brokers one per sub-stream): run one at a time
// their establishments would cost WAN-RTT × N of setup latency. The mux
// gives each its own numbered Conversation, so the establishments — and
// the method attempts each of them races — overlap on the one link. No
// method speaks: the endpoints every method dials ride in the connect
// exchange (Endpoints), so a conversation holds one slot for the
// initiator's verdict and a cancel channel per method. A message is
//
//	uvarint stream ‖ byte method ‖ byte type ‖ body
//
// with method 0 (MethodNone) on the initiator's control messages (elect,
// abort); under a method it is that attempt's abort, and nothing else. It
// has one shape: a message cut inside its header, a method above Routed,
// an unknown type, an election under a method, an abort with a body, and
// any frame that is neither a message nor the done marker end the whole
// mux with ErrProtocol — the link is out of step and its owner drops it.
//
// Pairing needs no negotiation: both endpoints build the same driver
// stack, so the k-th Dial on the initiator pairs with the k-th Accept on
// the acceptor; each side numbers its conversations 0,1,2,… in Open
// order, and any establishment is valid against any other (the
// parallel-streams driver tells its sub-streams apart by the index each
// starts with), so concurrent Open order does not matter. The same stack
// fixes how many establishments a connect runs, and the mux holds that
// count: a message on a stream past it is ErrProtocol. Every
// conversation races the same candidates — the ranking of the two
// profiles (race.go) — on its own, with the k-th endpoints of each side.
//
// Lifecycle: the mux owns the service connection in two halves, each
// handed back on its own. The write half is the mux's from construction
// until Done has written this side's done marker, which it sends when it
// will write no more (its stack build completed or failed); after it the
// owner may write on the connection again, right behind the marker. The
// read half is the mux's until Finish has returned: a side's reader runs
// until it has received the peer's done, which guarantees someone is
// always draining a synchronous link while the peer still writes, and
// reads no frame past that marker. That reader is the only one a connect
// has: a late abort cancels an attempt that has ended, and no method runs
// twice in one conversation. Receiving the peer's done also fails a wait
// for the verdict — none will come — so a half-failed establishment
// converges instead of hanging. After Finish the connection carries no
// residual mux traffic in either direction and is reusable for ordinary
// service requests; that barrier is the only thing Finish waits for, so a
// caller whose data links are up may pass it on a goroutine that keeps
// the read half to itself meanwhile (core does, and writes its next
// request behind the done marker).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"netibis/internal/wire"
)

// Mux frame kinds, in the driver-private range and distinct from the
// relay and overlay protocols that share the user kind space.
const (
	kindMuxData byte = wire.KindUser + 0x28 + iota
	kindMuxDone
)

// ErrEstablishmentEnded is returned to a conversation that waits for
// peer data after the peer announced it is done establishing: its
// counterpart conversation failed, no more data will come.
var ErrEstablishmentEnded = errors.New("estab: peer finished establishment, conversation abandoned")

// errControlFromAcceptor ends an initiator's conversation: the election
// and the untagged abort flow initiator → acceptor only.
var errControlFromAcceptor = fmt.Errorf("%w: control message from the acceptor", ErrProtocol)

// muxMsg is one decoded brokering message.
type muxMsg struct {
	stream uint64
	method Method // MethodNone: a control message of the initiator
	t      byte   // msgAbort or msgElect
	body   []byte
}

func appendMuxHeader(dst []byte, stream uint64, method Method, t byte) []byte {
	return append(binary.AppendUvarint(dst, stream), byte(method), t)
}

// decodeMuxMessage parses a kindMuxData payload. The body aliases p. The
// stream number must be minimally encoded, so a message has exactly one
// encoding.
func decodeMuxMessage(p []byte) (muxMsg, error) {
	stream, k := binary.Uvarint(p)
	if k <= 0 || (k > 1 && p[k-1] == 0) || len(p) < k+2 {
		return muxMsg{}, fmt.Errorf("%w: mux message cut inside its header", ErrProtocol)
	}
	msg := muxMsg{stream: stream, method: Method(p[k]), t: p[k+1], body: p[k+2:]}
	switch {
	case msg.method > Routed:
		return muxMsg{}, fmt.Errorf("%w: mux message for unknown method %d", ErrProtocol, p[k])
	case msg.t != msgAbort && msg.t != msgElect:
		return muxMsg{}, fmt.Errorf("%w: unknown mux message type %d", ErrProtocol, msg.t)
	case msg.t == msgElect && msg.method != MethodNone:
		return muxMsg{}, fmt.Errorf("%w: election on a method's conversation (method %d)", ErrProtocol, p[k])
	case msg.t == msgAbort && len(msg.body) != 0:
		return muxMsg{}, fmt.Errorf("%w: abort carries a body", ErrProtocol)
	}
	return msg, nil
}

// ServiceMux multiplexes a connect's establishments over one service
// connection. See the comment at the top of this file for the protocol.
type ServiceMux struct {
	wmu       sync.Mutex
	w         *wire.Writer
	localDone bool
	werr      error // the done marker's write error
	n         int   // the connect's establishments: streams 0 … n-1
	// local and peer are the two sides' endpoints from the connect
	// exchange; conversation k uses entry k of each list.
	local, peer Endpoints

	smu      sync.Mutex
	cond     *sync.Cond // signals every change to the fields below and to any Conversation
	convs    map[uint64]*Conversation
	nextID   uint64
	peerDone bool
	readErr  error

	rdone chan struct{}
}

// Conversation is one establishment's share of the mux, and all the
// state its race has: what EstablishInitiator and EstablishAcceptor run
// on. Its fields are guarded by the mux's smu.
type Conversation struct {
	m  *ServiceMux
	id uint64

	// initiator is set once EstablishInitiator runs on the conversation:
	// control messages flow initiator → acceptor only, so one arriving
	// here is a violation (err), which also cancels every attempt.
	initiator bool
	err       error
	control   *muxMsg // the initiator's verdict (elect or abort), once it came
	// cancels holds each method's cancel channel, closed at most once —
	// by the local race, by the peer's tagged abort (perhaps before the
	// attempt launched) or by a violation. No method runs twice in a
	// conversation, so none is reset; the array itself never changes.
	cancels [Routed + 1]chan struct{}
}

// NewServiceMux wraps the service connection of a connect that runs n
// establishments, with this side's endpoints and the peer's, and starts
// demultiplexing: it writes on service and reads through r, the one
// Reader of the connection (see wire's package doc). The caller must not
// write on the connection until Done has returned, nor read r until
// Finish has.
func NewServiceMux(service io.Writer, r *wire.Reader, n int, local, peer Endpoints) *ServiceMux {
	m := &ServiceMux{
		w:     wire.NewWriter(service),
		n:     n,
		local: local,
		peer:  peer,
		convs: make(map[uint64]*Conversation),
		rdone: make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.smu)
	go m.run(r)
	return m
}

// Open allocates the next conversation.
func (m *ServiceMux) Open() *Conversation {
	m.smu.Lock()
	defer m.smu.Unlock()
	id := m.nextID
	m.nextID++
	return m.convLocked(id)
}

func (m *ServiceMux) convLocked(id uint64) *Conversation {
	cv, ok := m.convs[id]
	if !ok {
		cv = &Conversation{m: m, id: id}
		for i := range cv.cancels {
			cv.cancels[i] = make(chan struct{})
		}
		m.convs[id] = cv
	}
	return cv
}

// run is the connect's one reader: it routes incoming messages until the
// peer's done marker, a connection failure or a malformed frame.
func (m *ServiceMux) run(r *wire.Reader) {
	defer close(m.rdone)
	for {
		f, err := r.ReadFrame()
		var msg muxMsg
		switch {
		case err != nil:
		case f.Kind == kindMuxData:
			msg, err = decodeMuxMessage(f.Payload)
			if err == nil && msg.stream >= uint64(m.n) {
				err = fmt.Errorf("%w: message on stream %d of a connect of %d establishments", ErrProtocol, msg.stream, m.n)
			}
		case f.Kind != kindMuxDone:
			err = fmt.Errorf("%w: frame kind %d inside an establishment", ErrProtocol, f.Kind)
		}
		last := err != nil || f.Kind == kindMuxDone
		m.smu.Lock()
		if last {
			m.readErr, m.peerDone = err, true
		} else {
			m.convLocked(msg.stream).deliverLocked(msg)
		}
		m.cond.Broadcast()
		m.smu.Unlock()
		if last {
			return
		}
	}
}

// deliverLocked files one incoming message. A method-tagged message is
// an abort: it cancels the local attempt outright, which also reaches an
// attempt blocked in a listener accept, so the race is not stalled for
// the full accept timeout. The first control message is the verdict.
func (cv *Conversation) deliverLocked(msg muxMsg) {
	switch {
	case msg.method == MethodNone && cv.initiator:
		cv.failLocked(errControlFromAcceptor)
	case msg.method != MethodNone:
		cv.cancelLocked(msg.method)
	case cv.control == nil:
		cv.control = &msg
	}
}

// Done announces that this side will broker no more (its stack build
// completed or failed): it writes the done marker, once, and hands the
// connection's write half back to its owner, for the mux writes nothing
// after it. It reports the marker's write error.
func (m *ServiceMux) Done() error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if !m.localDone {
		m.localDone = true
		m.werr = m.w.WriteFrame(kindMuxDone, 0, nil)
	}
	return m.werr
}

// Finish is Done, then the barrier: it waits until the peer has announced
// the same and hands the read half back too. It reports a connection
// failure or a malformed frame observed while demultiplexing, or the done
// marker's write error; a clean establishment failure of an individual
// conversation is reported by that conversation, not here.
func (m *ServiceMux) Finish() error {
	werr := m.Done()
	<-m.rdone
	m.smu.Lock()
	err := m.readErr
	m.smu.Unlock()
	if err == nil {
		err = werr
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// asInitiator marks the conversation as the initiator's end.
func (cv *Conversation) asInitiator() {
	cv.m.smu.Lock()
	defer cv.m.smu.Unlock()
	cv.initiator = true
	if cv.control != nil {
		cv.failLocked(errControlFromAcceptor)
	}
}

// failLocked ends the conversation with a violation: err, and every
// attempt canceled.
func (cv *Conversation) failLocked(err error) {
	cv.err = err
	for m := range cv.cancels {
		cv.cancelLocked(Method(m))
	}
}

// send puts one message of the conversation on the service link, as one
// frame.
func (cv *Conversation) send(method Method, t byte, body []byte) error {
	var hdr [binary.MaxVarintLen64 + 2]byte
	m := cv.m
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if m.localDone {
		return ErrEstablishmentEnded
	}
	return m.w.WriteFrameBatch([]wire.BatchFrame{{Kind: kindMuxData, Hdr: appendMuxHeader(hdr[:0], cv.id, method, t), Payload: body}})
}

// ended reports why the conversation can carry no further attempt: a
// protocol violation, a failed link, or a peer that is done.
func (cv *Conversation) ended() error {
	cv.m.smu.Lock()
	defer cv.m.smu.Unlock()
	return cv.endedLocked()
}

func (cv *Conversation) endedLocked() error {
	switch {
	case cv.err != nil:
		return cv.err
	case cv.m.readErr != nil:
		return cv.m.readErr
	case cv.m.peerDone:
		return ErrEstablishmentEnded
	}
	return nil
}

// cancelAttempt cancels one method's attempt: closing its cancel channel
// wakes its blocking primitives — listener accepts, splice offers, routed
// dials. Safe to call for methods that were never launched.
func (cv *Conversation) cancelAttempt(m Method) {
	cv.m.smu.Lock()
	cv.cancelLocked(m)
	cv.m.smu.Unlock()
}

func (cv *Conversation) cancelLocked(m Method) {
	select {
	case <-cv.cancels[m]:
	default:
		close(cv.cancels[m])
	}
}

// release closes the listener reserved for the conversation's
// establishment once it has ended: used or not, it takes no more
// connections.
func (cv *Conversation) release() {
	if ls := cv.m.local.listeners; cv.id < uint64(len(ls)) {
		ls[cv.id].Close()
	}
}
