package estab

// ServiceMux is the one conversation layer between a connect's
// establishments and the service link: it frames every brokering message,
// routes it to the establishment and the racing method it belongs to, and
// ends the connect with one barrier.
//
// A data link's driver stack may need several connections (the
// parallel-streams driver brokers one per sub-stream), and every
// establishment is an ordered conversation over the service link: run
// one at a time they cost WAN-RTT × N of setup latency. The mux gives
// each establishment its own numbered Conversation, and inside it one
// ordered queue per racing method plus one for the initiator's control
// messages (elect, abort), so the establishments — and the method
// attempts each of them races — overlap on the one link. A message is
//
//	uvarint stream ‖ byte method ‖ byte type ‖ body
//
// with method 0 (MethodNone) on the control messages. It has one shape:
// a message cut inside its header, a method above Routed, an unknown
// type, a control type under a method or the reverse, and any frame that
// is neither a message nor the done marker end the whole mux with
// ErrProtocol — the link is out of step and its owner drops it.
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
// profiles (race.go) — and the connectivity cache deduplicates the races
// of sibling conversations (the first becomes the leader, the rest reuse
// its winner).
//
// Lifecycle: the mux owns the service connection from construction until
// Finish has returned on both sides. Each side sends a done marker when
// it will write no more (its stack build completed or failed); a side's
// reader runs until it has received the peer's done, which guarantees
// someone is always draining a synchronous link while the peer still
// writes. That reader is the only one a connect has: a late message of a
// finished attempt is filed under its method, and no method runs twice
// in one conversation. Receiving the peer's done also fails every receive
// still pending — no more will come — so a half-failed establishment
// converges instead of hanging. After Finish the connection carries no
// residual mux traffic and is reusable for ordinary service requests;
// that barrier is the only thing Finish waits for, so a caller whose
// data links are up may pass it on a goroutine that keeps the link to
// itself meanwhile (core does).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"netibis/internal/emunet"
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
	t      byte   // msgListen … msgElect
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
	case msg.t < msgListen || msg.t > msgElect:
		return muxMsg{}, fmt.Errorf("%w: unknown mux message type %d", ErrProtocol, msg.t)
	case msg.t < msgAbort && msg.method == MethodNone, msg.t > msgAbort && msg.method != MethodNone:
		return muxMsg{}, fmt.Errorf("%w: message type %d on the wrong conversation (method %d)", ErrProtocol, msg.t, p[k])
	case msg.t == msgAbort && len(msg.body) != 0:
		return muxMsg{}, fmt.Errorf("%w: abort carries a body", ErrProtocol)
	}
	return msg, nil
}

// Splice is what a connect's establishments splice with: conversation k
// dials from the local port Ports[k] to the peer's prediction Peer[k].
type Splice struct {
	Ports []int
	Peer  []emunet.Endpoint
}

// ServiceMux multiplexes a connect's establishments over one service
// connection. See the comment at the top of this file for the protocol.
type ServiceMux struct {
	wmu       sync.Mutex
	w         *wire.Writer
	localDone bool
	n         int // the connect's establishments: streams 0 … n-1
	splice    Splice

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
	// here is a violation (err).
	initiator bool
	err       error
	// routedLeads is set before any attempt starts.
	routedLeads bool
	// queues holds the undelivered messages per method conversation;
	// queues[MethodNone] is the control queue, in arrival order.
	queues [Routed + 1][]muxMsg
	// canceled marks the methods whose attempt was called off — by the
	// local race or by the peer's tagged abort — and attempts
	// holds the cancel channel of each running one, closed exactly once.
	// No method runs twice in a conversation, so neither is ever reset.
	canceled [Routed + 1]bool
	attempts [Routed + 1]chan struct{}
}

// NewServiceMux wraps the service connection of a connect that runs n
// establishments and starts demultiplexing. The caller must not touch
// the connection until Finish has returned.
func NewServiceMux(service io.ReadWriter, n int, splice Splice) *ServiceMux {
	m := &ServiceMux{
		w:      wire.NewWriter(service),
		n:      n,
		splice: splice,
		convs:  make(map[uint64]*Conversation),
		rdone:  make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.smu)
	go m.run(wire.NewReader(service))
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

// deliverLocked files one incoming message. A method-tagged abort is not
// queued: it cancels the local attempt outright, which also reaches an
// attempt blocked in a listener accept (which never calls recv), so the
// race is not stalled for the full accept timeout.
func (cv *Conversation) deliverLocked(msg muxMsg) {
	switch {
	case msg.method == MethodNone && cv.initiator:
		cv.err = errControlFromAcceptor
	case msg.method != MethodNone && msg.t == msgAbort:
		cv.cancelLocked(msg.method)
	default:
		cv.queues[msg.method] = append(cv.queues[msg.method], msg)
	}
}

// Finish announces that this side will broker no more (its stack build
// completed or failed), waits until the peer has announced the same and
// returns the service connection to its owner. It reports a connection
// failure or a malformed frame observed while demultiplexing; a clean
// establishment failure of an individual conversation is reported by
// that conversation, not here.
func (m *ServiceMux) Finish() error {
	m.wmu.Lock()
	var werr error
	if !m.localDone {
		m.localDone = true
		werr = m.w.WriteFrame(kindMuxDone, 0, nil)
	}
	m.wmu.Unlock()
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
	if len(cv.queues[MethodNone]) > 0 {
		cv.err = errControlFromAcceptor
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

// recv takes the next message of one method conversation (MethodNone:
// the control queue), waiting for it until the conversation, the method's
// attempt or the whole mux has ended.
func (cv *Conversation) recv(method Method) (muxMsg, error) {
	m := cv.m
	m.smu.Lock()
	defer m.smu.Unlock()
	for {
		q := cv.queues[method]
		switch {
		case cv.err != nil:
			return muxMsg{}, cv.err
		case len(q) > 0:
			cv.queues[method] = q[1:]
			return q[0], nil
		case m.readErr != nil:
			return muxMsg{}, m.readErr
		case cv.canceled[method]:
			return muxMsg{}, errRaceLost
		case m.peerDone:
			return muxMsg{}, ErrEstablishmentEnded
		}
		m.cond.Wait()
	}
}

// ended reports why the conversation can carry no further attempt: a
// protocol violation, a failed link, or a peer that is done.
func (cv *Conversation) ended() error {
	m := cv.m
	m.smu.Lock()
	defer m.smu.Unlock()
	switch {
	case cv.err != nil:
		return cv.err
	case m.readErr != nil:
		return m.readErr
	case m.peerDone:
		return ErrEstablishmentEnded
	}
	return nil
}

// cancelAttempt cancels one method's attempt: the canceled flag wakes a
// recv blocked on the method's queue, and closing the attempt's cancel
// channel wakes its blocking primitives — listener accepts, splice
// offers, routed dials. Safe to call for methods that were never
// launched.
func (cv *Conversation) cancelAttempt(method Method) {
	cv.m.smu.Lock()
	cv.cancelLocked(method)
	cv.m.cond.Broadcast()
	cv.m.smu.Unlock()
}

func (cv *Conversation) cancelLocked(method Method) {
	cv.canceled[method] = true
	if ch := cv.attempts[method]; ch != nil {
		cv.attempts[method] = nil
		close(ch)
	}
}
