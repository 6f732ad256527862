package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"netibis/internal/driver"
	"netibis/internal/estab"
	"netibis/internal/ipl"
	"netibis/internal/wire"
)

// CreateSendPort creates a sending endpoint of the given port type.
func (n *Node) CreateSendPort(pt ipl.PortType) (ipl.SendPort, error) {
	if pt.Stack == "" {
		pt.Stack = n.cfg.DefaultStack
	}
	if _, err := pt.ParseStack(); err != nil {
		return nil, err
	}
	return &sendPort{node: n, portType: pt}, nil
}

// CreateReceivePort creates a receiving endpoint with the given name and
// registers it with the Ibis Name Service so peers can locate it.
func (n *Node) CreateReceivePort(pt ipl.PortType, name string) (ipl.ReceivePort, error) {
	if pt.Stack == "" {
		pt.Stack = n.cfg.DefaultStack
	}
	if _, err := pt.ParseStack(); err != nil {
		return nil, err
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	if _, dup := n.recvPorts[name]; dup {
		n.mu.Unlock()
		return nil, fmt.Errorf("core: receive port %q already exists", name)
	}
	rp := &receivePort{
		node:     n,
		name:     name,
		portType: pt,
		messages: make(chan inMessage, 64),
		done:     make(chan struct{}),
		sources:  make(map[*inSource]struct{}),
	}
	n.recvPorts[name] = rp
	n.mu.Unlock()

	// Advertise the port in the registry so senders can find its owner
	// with LocateReceivePort.
	if err := n.registry.Register(n.portKey(name), []byte(n.cfg.Name)); err != nil {
		n.mu.Lock()
		delete(n.recvPorts, name)
		n.mu.Unlock()
		return nil, err
	}
	return rp, nil
}

// LocateReceivePort finds which instance owns the named receive port,
// waiting up to timeout for it to be created (the usual bootstrap
// pattern: workers locate the master's port before it exists).
func (n *Node) LocateReceivePort(name string, timeout time.Duration) (ipl.PortID, error) {
	val, err := n.registry.Lookup(n.portKey(name), timeout)
	if err != nil {
		return ipl.PortID{}, err
	}
	return ipl.PortID{
		Owner: ipl.Identifier{Name: string(val), Pool: n.cfg.Pool},
		Port:  name,
	}, nil
}

// --- send port ----------------------------------------------------------------------

// outLink is one established message channel from a send port to a
// receive port.
type outLink struct {
	to     ipl.PortID
	out    driver.Output
	method estab.Method
}

// sendPort implements ipl.SendPort.
type sendPort struct {
	node     *Node
	portType ipl.PortType

	mu sync.Mutex
	// links is replaced, never modified in place, so Deliver sends on a
	// snapshot of it without holding the lock.
	links     []*outLink
	msgActive bool
	// spare is the buffer of the last message, for the next one: one
	// message is active at a time, and every Output.Write is done with
	// its argument when it returns.
	spare  []byte
	closed bool

	// Stats.
	messagesSent int64
	bytesSent    int64
}

// Type implements ipl.SendPort.
func (sp *sendPort) Type() ipl.PortType { return sp.portType }

// maxSpare is the largest message buffer a send port keeps for its next
// message: one that once sent a huge message does not pin its buffer.
const maxSpare = 4 << 20

// link returns the index of the link to the given receive port, or -1.
// The caller holds sp.mu.
func (sp *sendPort) link(to ipl.PortID) int {
	return slices.IndexFunc(sp.links, func(l *outLink) bool { return l.to == to })
}

// ConnectedTo implements ipl.SendPort.
func (sp *sendPort) ConnectedTo() []ipl.PortID {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	out := make([]ipl.PortID, 0, len(sp.links))
	for _, l := range sp.links {
		out = append(out, l.to)
	}
	return out
}

// Connect implements ipl.SendPort: it brokers a data link to the remote
// receive port over the service link and builds the driver stack on it.
// A transport failure of the service link itself (as opposed to a
// rejection or an establishment failure) evicts the cached link —
// its conversation state is unrecoverable, e.g. after a relay failover
// lost frames in flight — and the connect is retried once over a fresh
// one. Once the data link is up the connect has succeeded, whatever
// becomes of the service link afterwards.
func (sp *sendPort) Connect(to ipl.PortID) error {
	err := sp.connect(to)
	var broken *serviceLinkBrokenError
	if errors.As(err, &broken) {
		err = sp.connect(to)
	}
	if errors.As(err, &broken) {
		return broken.cause
	}
	return err
}

// serviceLinkBrokenError marks a connect failure caused by the service
// link's transport (the link has been evicted; a retry gets a new one).
type serviceLinkBrokenError struct{ cause error }

func (e *serviceLinkBrokenError) Error() string {
	return "core: service link broken: " + e.cause.Error()
}

func (e *serviceLinkBrokenError) Unwrap() error { return e.cause }

func (sp *sendPort) connect(to ipl.PortID) error {
	sp.mu.Lock()
	if sp.closed {
		sp.mu.Unlock()
		return ipl.ErrClosed
	}
	if sp.link(to) >= 0 {
		sp.mu.Unlock()
		return nil // already connected; Connect is idempotent
	}
	sp.mu.Unlock()

	n := sp.node
	sl, err := n.serviceLinkTo(to.Owner.Name)
	if err != nil {
		return err
	}
	broken := func(err error) error {
		n.dropServiceLink(sl)
		return &serviceLinkBrokenError{cause: err}
	}

	// The whole brokering conversation for this connect owns the service
	// link exclusively, until its barrier has passed — on a goroutine,
	// once the data link is up (below).
	sl.mu.Lock()
	barrierOwnsLink := false
	defer func() {
		if !barrierOwnsLink {
			sl.mu.Unlock()
		}
	}()

	// The request carries this node's connectivity profile, the method it
	// launches first and a splice endpoint per establishment of the stack,
	// the accepting reply the peer's profile and endpoints: one exchange
	// per connect, shared by every establishment (one per sub-stream of
	// the stack) below, and timed: it is the round trip the races size
	// their head starts by. The routed data links the peer opens are
	// admitted until the establishments are done.
	stack, err := sp.portType.ParseStack()
	if err != nil {
		return err
	}
	count := establishments(stack)
	ports, predicted := n.connector.ReserveSplice(count)
	first, _ := n.connector.Cache.Lookup(sl.peer)
	req := connectRequest{portName: to.Port, typeDigest: portTypeDigest(sp.portType), sender: n.id, profile: n.connector.Profile(), first: first, splice: predicted}
	defer n.expectRoutedData(sl.peer)()
	asked := time.Now()
	if err := sl.w.WriteFrame(wire.KindControl, opConnect, encodeConnectRequest(req)); err != nil {
		return broken(err)
	}
	f, err := sl.r.ReadFrame()
	if err != nil {
		return broken(err)
	}
	estOpts := estab.EstablishOpts{PeerKey: sl.peer, ServiceRTT: time.Since(asked), First: first}
	if f.Kind == wire.KindControl && f.Flags == opConnectErr {
		d := wire.NewDecoder(f.Payload)
		return fmt.Errorf("%w: %s", ErrConnectRejected, d.String())
	}
	if f.Kind != wire.KindControl || f.Flags != opConnectOK {
		return broken(fmt.Errorf("core: unexpected reply (kind %d, op %d) to a connect request", f.Kind, f.Flags))
	}
	remote, peerSplice, err := decodeConnectReply(f.Payload)
	want := 0
	if n.connector.Splices(req.profile, remote) {
		want = count
	}
	if err == nil && remote.RelayID != sl.peer {
		err = fmt.Errorf("core: connect reply names %q on the service link to %q", remote.RelayID, sl.peer)
	} else if err == nil && len(peerSplice) != want {
		err = fmt.Errorf("%w: %d splice endpoints in the connect reply, want %d", estab.ErrProtocol, len(peerSplice), want)
	}
	if err != nil {
		return broken(err)
	}

	// Establishment conversations are multiplexed over the service link
	// so a stack needing several connections (parallel streams) brokers
	// them concurrently instead of paying WAN-RTT × N. Env.Dial must be
	// concurrent-safe; the method is recorded under its own lock. The
	// peer key routes the establishments through the connectivity cache
	// (one race per peer, cached winner on reconnect).
	mux := estab.NewServiceMux(sl.conn, count, estab.Splice{Ports: ports, Peer: peerSplice})
	var methodMu sync.Mutex
	var usedMethod estab.Method
	env := &driver.Env{
		Dial: func() (net.Conn, error) {
			dataConn, method, err := n.connector.EstablishInitiator(mux.Open(), remote, estOpts)
			if err != nil {
				return nil, err
			}
			methodMu.Lock()
			usedMethod = method
			methodMu.Unlock()
			return dataConn, nil
		},
		LinkKey: linkKey(sl.conn),
	}
	out, err := driver.BuildOutput(stack, env)
	// Always settle the mux session, success or not: it hands the
	// service link back in a clean state and unblocks the acceptor's
	// half-finished conversations when our build failed. A Finish error
	// means the service connection itself broke (or could not carry the
	// done marker): evict the link so nobody reuses its wedged state.
	if err != nil {
		if merr := mux.Finish(); merr != nil {
			return broken(merr)
		}
		return err
	}
	// The build succeeded: the elections are sent and the data link is
	// usable, so the barrier holds the service link, not the caller. Its
	// failure now is the service link's alone.
	n.mu.Lock()
	if n.closed {
		// Close has closed the service link under the mux already.
		n.mu.Unlock()
		out.Close()
		return ErrClosed
	}
	n.wg.Add(1)
	n.mu.Unlock()
	barrierOwnsLink = true
	go func() {
		defer n.wg.Done()
		defer sl.mu.Unlock()
		if mux.Finish() != nil {
			n.dropServiceLink(sl)
		}
	}()

	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.closed {
		out.Close()
		return ipl.ErrClosed
	}
	if sp.link(to) >= 0 {
		out.Close() // a concurrent Connect to the same port won
		return nil
	}
	sp.links = append(slices.Clip(sp.links), &outLink{to: to, out: out, method: usedMethod})
	return nil
}

// Disconnect implements ipl.SendPort.
func (sp *sendPort) Disconnect(to ipl.PortID) error {
	sp.mu.Lock()
	i := sp.link(to)
	if i < 0 {
		sp.mu.Unlock()
		return nil
	}
	l := sp.links[i]
	sp.links = slices.Delete(slices.Clone(sp.links), i, i+1)
	sp.mu.Unlock()
	return l.out.Close()
}

// SendPortMethods reports which establishment method each link of a
// send port created by this package uses, keyed by the remote PortID
// string. It returns nil for foreign SendPort implementations. The
// evaluation harness and the examples use it to report how connectivity
// was achieved.
func SendPortMethods(sp ipl.SendPort) map[string]estab.Method {
	p, ok := sp.(*sendPort)
	if !ok {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]estab.Method, len(p.links))
	for _, l := range p.links {
		out[l.to.String()] = l.method
	}
	return out
}

// NewMessage implements ipl.SendPort.
func (sp *sendPort) NewMessage() (*ipl.WriteMessage, error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.closed {
		return nil, ipl.ErrClosed
	}
	if sp.msgActive {
		return nil, ipl.ErrMessageActive
	}
	sp.msgActive = true
	buf := sp.spare
	sp.spare = nil
	return ipl.NewWriteMessage(sp, buf, sp.messageDone), nil
}

// messageDone ends the active message and keeps its buffer for the next.
func (sp *sendPort) messageDone(buf []byte) {
	sp.mu.Lock()
	sp.msgActive = false
	if cap(buf) <= maxSpare {
		sp.spare = buf
	}
	sp.mu.Unlock()
}

// Deliver implements ipl.MessageSink: the message's length goes into the
// headroom in front of it, and length and message go down every
// connected link as one Write, then a Flush.
func (sp *sendPort) Deliver(msg []byte) error {
	size := len(msg) - ipl.Headroom
	sp.mu.Lock()
	links := sp.links
	sp.messagesSent++
	sp.bytesSent += int64(size)
	sp.mu.Unlock()

	var length [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(length[:], uint64(size))
	framed := msg[ipl.Headroom-n:]
	copy(framed, length[:n])
	var first error
	for _, l := range links {
		if _, err := l.out.Write(framed); err != nil && first == nil {
			first = err
			continue
		}
		if err := l.out.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats reports messages and payload bytes sent.
func (sp *sendPort) Stats() (messages, bytes int64) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.messagesSent, sp.bytesSent
}

// Close implements ipl.SendPort.
func (sp *sendPort) Close() error {
	sp.mu.Lock()
	if sp.closed {
		sp.mu.Unlock()
		return nil
	}
	sp.closed = true
	links := sp.links
	sp.links, sp.spare = nil, nil
	sp.mu.Unlock()
	var first error
	for _, l := range links {
		if err := l.out.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// --- receive port --------------------------------------------------------------------

// inSource is one connected sender feeding a receive port.
type inSource struct {
	origin ipl.Identifier
	in     driver.Input
}

// receivePort implements ipl.ReceivePort.
type receivePort struct {
	node     *Node
	name     string
	portType ipl.PortType

	mu       sync.Mutex
	sources  map[*inSource]struct{}
	closed   bool
	messages chan inMessage
	done     chan struct{}
	// last holds the message handed out last, for the next Receive to
	// recycle.
	last atomic.Pointer[wire.Buf]

	received int64
}

// inMessage is a received message and the pooled Buf holding its bytes.
type inMessage struct {
	msg *ipl.ReadMessage
	buf *wire.Buf
}

// poisonRecycled makes Receive overwrite the message it recycles, so a
// read past its lifetime fails deterministically instead of by luck.
// Only tests set it.
var poisonRecycled bool

// Type implements ipl.ReceivePort.
func (rp *receivePort) Type() ipl.PortType { return rp.portType }

// ID implements ipl.ReceivePort.
func (rp *receivePort) ID() ipl.PortID {
	return ipl.PortID{Owner: rp.node.id, Port: rp.name}
}

// addSource attaches a newly established incoming link and starts its
// reader.
func (rp *receivePort) addSource(origin ipl.Identifier, in driver.Input) {
	src := &inSource{origin: origin, in: in}
	rp.mu.Lock()
	if rp.closed {
		rp.mu.Unlock()
		in.Close()
		return
	}
	rp.sources[src] = struct{}{}
	rp.mu.Unlock()

	rp.node.wg.Add(1)
	go func() {
		defer rp.node.wg.Done()
		rp.readLoop(src)
	}()
}

// readLoop pulls framed messages off one incoming link.
func (rp *receivePort) readLoop(src *inSource) {
	msgs := newMsgReader(src.in)
	defer func() {
		rp.mu.Lock()
		delete(rp.sources, src)
		rp.mu.Unlock()
		src.in.Close()
		msgs.close()
	}()
	for {
		buf, body, err := msgs.next()
		if err != nil {
			return // end of stream, or a corrupt or hostile peer
		}
		m := inMessage{msg: ipl.NewReadMessage(src.origin, body), buf: buf}
		rp.mu.Lock()
		rp.received++
		rp.mu.Unlock()
		// Block (preserving FIFO reliability and backpressure) until the
		// application drains the port or the port is closed.
		select {
		case rp.messages <- m:
		case <-rp.done:
			m.buf.Release()
			return
		}
	}
}

// Receive implements ipl.ReceivePort. It first recycles the message it
// handed out last: one message per port is live at a time.
func (rp *receivePort) Receive() (*ipl.ReadMessage, error) {
	if b := rp.last.Swap(nil); b != nil {
		if poisonRecycled {
			p := b.Bytes()
			for i := range p {
				p[i] ^= 0xff
			}
		}
		b.Release()
	}
	var m inMessage
	select {
	case m = <-rp.messages:
	case <-rp.done:
		// Drain anything already queued before reporting closure.
		select {
		case m = <-rp.messages:
		default:
			return nil, ipl.ErrClosed
		}
	}
	rp.last.Store(m.buf)
	return m.msg, nil
}

// readAhead is the size of a link's read-ahead buffer: a 64 KiB block
// and its framing fit its size class, so a Read of a block-sized message
// reaches the driver with room for the whole block, which the driver
// then decodes straight into it.
const readAhead = 64 << 10

// errMessageTooLarge drops a link that announces a message past
// ipl.MaxMessageLen: a message's buffer is sized from the announced
// length, so it is refused before anything is allocated.
var errMessageTooLarge = errors.New("core: message length past ipl.MaxMessageLen")

// msgReader splits a link's byte stream into messages, each a uvarint
// length followed by the encoded message. It reads ahead into a pooled
// buffer and parses the length from there. A message of the read-ahead
// buffer's own size class that fits in it is handed out in that buffer,
// and the bytes read past it move to a fresh one. A smaller message is
// copied into a buffer of its own class, so a queued message never pins
// more than that; a larger one takes the bytes read so far and reads the
// rest straight into its own buffer. A byte read ahead is carried into
// another buffer at most once.
type msgReader struct {
	in       io.Reader
	ahead    *wire.Buf // at full capacity; [off:end) is read, not yet consumed
	off, end int
}

func newMsgReader(in io.Reader) *msgReader {
	return &msgReader{in: in, ahead: newReadAhead()}
}

func newReadAhead() *wire.Buf {
	b := wire.GetBuf(readAhead)
	b.SetLen(b.Cap())
	return b
}

// close releases the read-ahead buffer.
func (r *msgReader) close() { r.ahead.Release() }

// next returns the next message's bytes and the Buf holding them, whose
// reference passes to the caller.
func (r *msgReader) next() (*wire.Buf, []byte, error) {
	length, err := r.length()
	if err != nil {
		return nil, nil, err
	}
	n := int(length)
	if end := r.off + n; end <= r.ahead.Len() && wire.ClassSize(n) == r.ahead.Cap() {
		for r.end < end {
			if err := r.fill(); err != nil {
				return nil, nil, unexpectedEOF(err)
			}
		}
		msg := r.ahead
		r.ahead = newReadAhead()
		r.end = copy(r.ahead.Bytes(), msg.Bytes()[end:r.end])
		body := msg.Bytes()[r.off:end]
		r.off = 0
		return msg, body, nil
	}
	msg := wire.GetBuf(n)
	body := msg.Bytes()
	k := copy(body, r.ahead.Bytes()[r.off:r.end])
	r.off += k
	if _, err := io.ReadFull(r.in, body[k:]); err != nil {
		msg.Release()
		return nil, nil, unexpectedEOF(err)
	}
	return msg, body, nil
}

// length parses the next message's length, reading ahead as needed. It
// yields io.EOF only when the stream ends between messages.
func (r *msgReader) length() (uint64, error) {
	for {
		buf := r.ahead.Bytes()
		v, k := binary.Uvarint(buf[r.off:r.end])
		switch {
		case k > 0 && v <= ipl.MaxMessageLen:
			r.off += k
			return v, nil
		case k != 0:
			return 0, errMessageTooLarge // past the bound, or past 64 bits
		case r.off == r.end:
			r.off, r.end = 0, 0
		case r.end == len(buf):
			// A length cut at the end of the buffer: move its first bytes
			// to the front.
			r.end = copy(buf, buf[r.off:r.end])
			r.off = 0
		}
		if err := r.fill(); err != nil {
			if r.off < r.end {
				err = unexpectedEOF(err)
			}
			return 0, err
		}
	}
}

// fill reads more of the stream into the read-ahead buffer.
func (r *msgReader) fill() error {
	n, err := r.in.Read(r.ahead.Bytes()[r.end:])
	r.end += n
	if n > 0 {
		return nil
	}
	return err
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Received reports how many messages have arrived on this port.
func (rp *receivePort) Received() int64 {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.received
}

// Close implements ipl.ReceivePort.
func (rp *receivePort) Close() error {
	rp.mu.Lock()
	if rp.closed {
		rp.mu.Unlock()
		return nil
	}
	rp.closed = true
	srcs := make([]*inSource, 0, len(rp.sources))
	for s := range rp.sources {
		srcs = append(srcs, s)
	}
	rp.mu.Unlock()

	for _, s := range srcs {
		s.in.Close()
	}
	rp.node.mu.Lock()
	delete(rp.node.recvPorts, rp.name)
	rp.node.mu.Unlock()
	rp.node.registry.Unregister(rp.node.portKey(rp.name))
	close(rp.done)
	return nil
}
