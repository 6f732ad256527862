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
	sp := &sendPort{node: n, portType: pt}
	sp.msgs = ipl.NewWriteMessages(sp, sp.messageDone)
	return sp, nil
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
	links  []*outLink
	closed atomic.Bool // set under mu

	// msgActive is held by the message being filled, from NewMessage to
	// its Finish, and owns msgs and spare meanwhile.
	msgActive atomic.Bool
	msgs      *ipl.WriteMessages
	// spare is the buffer of the last message, for the next one: one
	// message is active at a time, and every Output.Write is done with
	// its argument when it returns.
	spare []byte
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
	if sp.closed.Load() {
		sp.mu.Unlock()
		return ipl.ErrClosed
	}
	if sp.link(to) >= 0 {
		sp.mu.Unlock()
		return nil // already connected; Connect is idempotent
	}
	sp.mu.Unlock()

	// A stack that cannot be built fails here, before a peer hears of it.
	stack, err := sp.portType.ParseStack()
	if err != nil {
		return err
	}
	count, err := establishments(stack)
	if err != nil {
		return err
	}
	n := sp.node
	sl, err := n.serviceLinkTo(to.Owner.Name)
	if err != nil {
		return err
	}
	broken := func(err error) error {
		n.dropServiceLink(sl)
		return &serviceLinkBrokenError{cause: err}
	}

	// The connect holds the service link's write half from its request
	// until its done marker is written, and its read half from the reply
	// until the peer's done marker is read — on a goroutine, once the
	// data link is up (below). A request written while the previous
	// connect's barrier is still open is read by the peer only once that
	// barrier has passed there, so only its reply waits for it.
	sl.wmu.Lock()
	writing, reading := true, false
	defer func() {
		if writing {
			sl.wmu.Unlock()
		}
		if reading {
			sl.rmu.Unlock()
		}
	}()

	// The request carries this node's profile and its endpoints for each
	// establishment of the stack (a splice endpoint, and a listener when
	// a peer could dial it), the accepting reply the peer's: one exchange
	// per connect, shared by every establishment (one per sub-stream)
	// below, and timed: it is the round trip the races size their head
	// starts by. The routed data links the peer opens, one per
	// establishment, are admitted until the establishments are done.
	// They may be admitted while the previous connect's barrier is open,
	// and that connect's late routed halves then park here too; none is
	// taken, for each is abandoned by the time this reply is read: the
	// acceptor abandons what its election discarded before it writes its
	// done marker, and this reply follows that marker on the same FIFO
	// relay path.
	profile := n.connector.Profile()
	local, err := n.connector.Reserve(n.connector.Carries(count, profile, nil))
	if err != nil {
		return err
	}
	defer local.Close()
	req := connectRequest{portName: to.Port, typeDigest: portTypeDigest(sp.portType), sender: n.id, profile: profile, endpoints: local}
	defer n.expectRoutedData(sl.peer)()
	asked := time.Now()
	if err := sl.w.WriteFrame(wire.KindControl, opConnect, encodeConnectRequest(req)); err != nil {
		return broken(err)
	}
	queued := !sl.rmu.TryLock()
	if queued {
		sl.rmu.Lock()
	}
	reading = true
	f, err := sl.r.ReadFrame()
	if err != nil {
		return broken(err)
	}
	// A request queued behind a barrier was read late, so its round trip
	// may time the peer's build as well: the last one timed bounds it.
	rtt := time.Since(asked)
	if queued {
		rtt = min(rtt, sl.rtt)
	}
	sl.rtt = rtt
	estOpts := estab.EstablishOpts{PeerKey: sl.peer, ServiceRTT: rtt}
	if f.Kind == wire.KindControl && f.Flags == opConnectErr {
		d := wire.NewDecoder(f.Payload)
		return fmt.Errorf("%w: %s", ErrConnectRejected, d.String())
	}
	if f.Kind != wire.KindControl || f.Flags != opConnectOK {
		return broken(fmt.Errorf("core: unexpected reply (kind %d, op %d) to a connect request", f.Kind, f.Flags))
	}
	remote, peer, err := decodeConnectReply(f.Payload)
	s, l := n.connector.Carries(count, profile, &remote)
	switch {
	case err != nil:
	case remote.RelayID != sl.peer:
		err = fmt.Errorf("core: connect reply names %q on the service link to %q", remote.RelayID, sl.peer)
	case len(peer.Splice) != s || len(peer.Listen) != l:
		err = fmt.Errorf("%w: %d splice and %d listen endpoints in the connect reply, want %d and %d",
			estab.ErrProtocol, len(peer.Splice), len(peer.Listen), s, l)
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
	mux := estab.NewServiceMux(sl.conn, sl.r, count, local, peer)
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
	// usable, so a goroutine holds the service link for the barrier, not
	// the caller: the write half until the done marker is out, which lets
	// the next request go, the read half until the peer's marker is in.
	// Its failure now is the service link's alone.
	n.mu.Lock()
	if n.closed {
		// Close has closed the service link under the mux already.
		n.mu.Unlock()
		out.Close()
		return ErrClosed
	}
	n.wg.Add(1)
	n.mu.Unlock()
	writing, reading = false, false
	go func() {
		defer n.wg.Done()
		defer sl.rmu.Unlock()
		mux.Done() // a failed write fails the barrier too
		sl.wmu.Unlock()
		if mux.Finish() != nil {
			n.dropServiceLink(sl)
		}
	}()

	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.closed.Load() {
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

// NewMessage implements ipl.SendPort: the message is one of the port's
// own two, encoding into the last message's buffer.
func (sp *sendPort) NewMessage() (*ipl.WriteMessage, error) {
	if !sp.msgActive.CompareAndSwap(false, true) {
		if sp.closed.Load() {
			return nil, ipl.ErrClosed
		}
		return nil, ipl.ErrMessageActive
	}
	if sp.closed.Load() {
		sp.msgActive.Store(false)
		return nil, ipl.ErrClosed
	}
	buf := sp.spare
	sp.spare = nil
	return sp.msgs.Next(buf), nil
}

// messageDone ends the active message and keeps its buffer for the next.
func (sp *sendPort) messageDone(buf []byte) {
	if cap(buf) <= maxSpare {
		sp.spare = buf
	}
	sp.msgActive.Store(false)
}

// Deliver implements ipl.MessageSink: the message's length goes into the
// headroom in front of head, and every connected link gets length and
// head as one Write, a borrowed body as the next, then a Flush. Each
// layer cuts the two writes as it cut them when they were one: the
// length and head ride at the front of the body's block or fragment.
func (sp *sendPort) Deliver(head, body []byte) error {
	size := len(head) - ipl.Headroom + len(body)
	sp.mu.Lock()
	links := sp.links
	sp.mu.Unlock()

	var length [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(length[:], uint64(size))
	framed := head[ipl.Headroom-n:]
	copy(framed, length[:n])
	var first error
	for _, l := range links {
		_, err := l.out.Write(framed)
		if err == nil && len(body) > 0 {
			_, err = l.out.Write(body)
		}
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		if err := l.out.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close implements ipl.SendPort.
func (sp *sendPort) Close() error {
	sp.mu.Lock()
	if sp.closed.Load() {
		sp.mu.Unlock()
		return nil
	}
	sp.closed.Store(true)
	links := sp.links
	sp.links = nil
	sp.mu.Unlock()
	// Taking the message slot for good drops the spare buffer; a message
	// still active keeps it until the port is dropped.
	if sp.msgActive.CompareAndSwap(false, true) {
		sp.spare = nil
	}
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
	// msgs and last, the Buf of the message handed out last, are
	// Receive's: the next Receive recycles both.
	msgs ipl.ReadMessages
	last *wire.Buf

	received atomic.Int64
}

// inMessage is a received message, the pooled Buf holding its bytes and
// the link it came in on.
type inMessage struct {
	body []byte
	buf  *wire.Buf
	src  *inSource
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
	}()
	for {
		buf, body, err := msgs.next()
		if err != nil {
			return // end of stream, or a corrupt or hostile peer
		}
		rp.received.Add(1)
		m := inMessage{body: body, buf: buf, src: src}
		select {
		case rp.messages <- m:
			continue
		default:
		}
		// The queue is full: block (preserving FIFO reliability and
		// backpressure) until the application drains the port or the port
		// is closed.
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
	rp.msgs.Recycle()
	if b := rp.last; b != nil {
		rp.last = nil
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
	default:
		// The queue is empty: wait for a message or for Close.
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
	}
	rp.last = m.buf
	return rp.msgs.Next(m.src.origin, m.body), nil
}

// readAhead is the block a link's read-ahead holds: a 64 KiB block and
// its framing fit the read-ahead's size class, so a Read of a block-sized
// message reaches the driver with room for the whole block, which the
// driver then decodes straight into it.
const readAhead = 64 << 10

// errMessageTooLarge drops a link that announces a message past
// ipl.MaxMessageLen: a message's buffer is sized from the announced
// length, so it is refused before anything is allocated.
var errMessageTooLarge = errors.New("core: message length past ipl.MaxMessageLen")

// msgReader splits a link's byte stream into messages, each a uvarint
// length followed by the encoded message, through a wire.Reader whose
// read-ahead is readAhead's size class. A message of that class leaves
// in the read-ahead buffer itself; a smaller one is copied into a buffer
// of its own class, so a queued message never pins more than that; a
// larger one takes the bytes read so far and reads the rest straight
// into its own buffer (see wire.Reader.Next).
type msgReader struct{ r *wire.Reader }

func newMsgReader(in io.Reader) msgReader {
	return msgReader{wire.NewUnitReader(in, wire.ClassSize(readAhead))}
}

// next returns the next message's bytes and the Buf holding them, whose
// reference passes to the caller. It yields io.EOF only when the stream
// ends between messages.
func (m msgReader) next() (*wire.Buf, []byte, error) {
	length, err := m.r.ReadUvarint()
	switch {
	case err == wire.ErrCorruptFrame || err == nil && length > ipl.MaxMessageLen:
		return nil, nil, errMessageTooLarge // past the bound, or past 64 bits
	case err != nil:
		return nil, nil, err
	}
	buf, body, err := m.r.Next(int(length))
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return buf, body, err
}

// Received reports how many messages have arrived on this port.
func (rp *receivePort) Received() int64 { return rp.received.Load() }

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
