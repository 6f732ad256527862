package estab

// ServiceMux multiplexes several concurrent brokering conversations over
// one service link.
//
// A data link's driver stack may need several connections (the
// parallel-streams driver brokers one per sub-stream), and every
// establishment is an ordered conversation over the service link: run
// one at a time they cost WAN-RTT × N of setup latency. The mux gives
// each conversation its own numbered stream over the service link so the
// conversations — and the connection establishments they drive — overlap.
//
// Pairing needs no negotiation: both endpoints build the same driver
// stack, so the k-th Dial on the initiator pairs with the k-th Accept on
// the acceptor; each side numbers its streams 0,1,2,… in Open order, and
// any establishment conversation is valid against any other (the
// parallel-streams driver reassembles by fragment sequence number, not
// sub-stream identity), so concurrent Open order does not matter. This
// holds for the racing protocol too: the race plan travels inside each
// conversation (race.go), so every stream is self-describing, and the
// connectivity cache deduplicates the races of sibling streams (the
// first becomes the leader, the rest reuse its winner).
//
// Lifecycle: the mux owns the service connection from construction until
// Finish has returned on both sides. Each side sends a done marker when
// it will write no more (its stack build completed or failed); a side's
// reader runs until it has received the peer's done, which guarantees
// someone is always draining a synchronous link while the peer still
// writes. Receiving the peer's done also fails every conversation still
// waiting for data — no more will come — so a half-failed establishment
// converges instead of hanging. After Finish the connection carries no
// residual mux traffic and is reusable for ordinary service requests.

import (
	"encoding/binary"
	"errors"
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

// ServiceMux multiplexes concurrent brokering conversations over one
// service connection. See the package comment of this file for the
// protocol.
type ServiceMux struct {
	wmu       sync.Mutex
	w         *wire.Writer
	localDone bool

	smu      sync.Mutex
	cond     *sync.Cond
	streams  map[uint64]*muxStream
	nextID   uint64
	peerDone bool
	readErr  error

	rdone chan struct{}
}

// muxStream is one conversation's ordered byte stream over the mux.
type muxStream struct {
	m   *ServiceMux
	id  uint64
	buf []byte
}

// NewServiceMux wraps a service connection and starts demultiplexing.
// The caller must not touch the connection until Finish has returned.
func NewServiceMux(service io.ReadWriter) *ServiceMux {
	m := &ServiceMux{
		w:       wire.NewWriter(service),
		streams: make(map[uint64]*muxStream),
		rdone:   make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.smu)
	go m.run(wire.NewReader(service))
	return m
}

// Open allocates the next conversation stream.
func (m *ServiceMux) Open() io.ReadWriter {
	m.smu.Lock()
	defer m.smu.Unlock()
	id := m.nextID
	m.nextID++
	return m.streamLocked(id)
}

func (m *ServiceMux) streamLocked(id uint64) *muxStream {
	st, ok := m.streams[id]
	if !ok {
		st = &muxStream{m: m, id: id}
		m.streams[id] = st
	}
	return st
}

// run demultiplexes incoming mux frames until the peer's done marker (or
// a connection failure).
func (m *ServiceMux) run(r *wire.Reader) {
	defer close(m.rdone)
	for {
		f, err := r.ReadFrame()
		if err != nil {
			m.smu.Lock()
			m.readErr = err
			m.peerDone = true
			m.cond.Broadcast()
			m.smu.Unlock()
			return
		}
		switch f.Kind {
		case kindMuxData:
			id, k := binary.Uvarint(f.Payload)
			if k <= 0 {
				continue
			}
			m.smu.Lock()
			st := m.streamLocked(id)
			st.buf = append(st.buf, f.Payload[k:]...)
			m.cond.Broadcast()
			m.smu.Unlock()
		case kindMuxDone:
			m.smu.Lock()
			m.peerDone = true
			m.cond.Broadcast()
			m.smu.Unlock()
			return
		default:
			// Stray frames (late pongs, keep-alives): not part of a
			// conversation, skip.
		}
	}
}

// Finish announces that this side will broker no more (its stack build
// completed or failed), waits until the peer has announced the same and
// returns the service connection to its owner. It reports a connection
// failure observed while demultiplexing; a clean establishment failure
// of an individual conversation is reported by that conversation, not
// here.
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

// Read implements io.Reader for one conversation.
func (s *muxStream) Read(p []byte) (int, error) {
	m := s.m
	m.smu.Lock()
	defer m.smu.Unlock()
	for len(s.buf) == 0 {
		if m.readErr != nil {
			return 0, m.readErr
		}
		if m.peerDone {
			return 0, ErrEstablishmentEnded
		}
		m.cond.Wait()
	}
	n := copy(p, s.buf)
	s.buf = s.buf[n:]
	return n, nil
}

// Write implements io.Writer for one conversation: the bytes travel as
// one stream-tagged frame on the service link.
func (s *muxStream) Write(p []byte) (int, error) {
	var idb [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(idb[:], s.id)
	m := s.m
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if m.localDone {
		return 0, ErrEstablishmentEnded
	}
	if err := m.w.WriteFrameBatch([]wire.BatchFrame{{Kind: kindMuxData, Hdr: idb[:n], Payload: p}}); err != nil {
		return 0, err
	}
	return len(p), nil
}
