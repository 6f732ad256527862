package relay

import (
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netibis/internal/identity"
	"netibis/internal/obs"
	"netibis/internal/wire"
)

// Forwarder extends a Server with inter-relay routing. The overlay mesh
// implements it; see package overlay.
type Forwarder interface {
	// ForwardFrame is called for a routed frame whose destination node
	// is not attached to this relay. srcNode is the locally attached
	// node the frame arrived from; payload is the complete routed
	// payload (still prefixed with dst and channel), and dstNode aliases
	// it. Both are only valid for the duration of the call unless the
	// implementation retains owner (the pooled buffer backing payload;
	// nil for synthesized frames, in which case payload must be copied
	// to outlive the call). It returns the ID of the peer relay the frame
	// was handed to, and whether forwarding succeeded.
	ForwardFrame(srcNode string, dstNode []byte, kind byte, payload []byte, owner *wire.Buf) (peerRelay string, ok bool)
	// NodeAttached is called after a node registered with this relay.
	NodeAttached(id string)
	// NodeDetached is called after a node's attachment ended.
	NodeDetached(id string)
}

// ConnHandler is called with a connection whose first frame is not an
// attach, handing ownership of the connection (and the frame reader) to
// the overlay's peer-link protocol. The first frame's payload is a
// stable copy, safe to retain. Until the handler returns, the Server's
// Close closes the connection too: the handler runs its handshake and
// returns once the connection is proven or dropped.
type ConnHandler func(first wire.Frame, conn net.Conn, r *wire.Reader)

// PeerForward is one entry of a Stats.ForwardedByPeer breakdown.
type PeerForward struct {
	Peer   string
	Frames int64
}

// Stats is a snapshot of a Server's routing counters.
type Stats struct {
	// FramesRouted and BytesRouted count frames delivered to locally
	// attached nodes (including frames injected by the mesh).
	FramesRouted int64
	BytesRouted  int64
	// FramesForwarded counts frames handed to peer relays via the
	// Forwarder hook.
	FramesForwarded int64
	// FramesInjected counts frames the mesh injected for local delivery.
	FramesInjected int64
	// ForwardedByPeer breaks FramesForwarded down by peer relay ID,
	// sorted by peer.
	ForwardedByPeer []PeerForward
}

// Forwarded returns the forwarded-frame count for one peer relay (0
// when the peer never received a forward).
func (st *Stats) Forwarded(peer string) int64 {
	i := sort.Search(len(st.ForwardedByPeer), func(i int) bool {
		return st.ForwardedByPeer[i].Peer >= peer
	})
	if i < len(st.ForwardedByPeer) && st.ForwardedByPeer[i].Peer == peer {
		return st.ForwardedByPeer[i].Frames
	}
	return 0
}

// Server is the relay process.
type Server struct {
	mu     sync.Mutex
	id     string
	nodes  map[string]*serverPeer
	fwd    Forwarder
	connH  ConnHandler
	auth   AuthConfig
	closed bool
	// listeners are the ones Serve accepts on, closed by Close; like wg.Add
	// they are guarded by mu, so nothing is added to either after Close.
	listeners []net.Listener
	// unproven are the accepted connections whose handshake has not
	// finished, which Close closes too: a dialer that never speaks, or
	// stalls mid-handshake, would hold Close for its read deadline.
	// Guarded by mu like listeners.
	unproven map[net.Conn]struct{}
	wg       sync.WaitGroup

	// attachMu serialises each {s.nodes update, Forwarder notification}
	// pair of handleNode. Without it a detaching handler could delete its
	// map entry, lose the CPU, and deliver its NodeDetached only after a
	// re-attach of the same node on this relay published NodeAttached —
	// gossiping a higher-versioned tombstone for a live attachment that
	// nothing would ever repair.
	attachMu sync.Mutex

	// egressHist observes, for every vectored write an attached node's
	// egress performs, how many frames that write emitted (the batching
	// win: mean > 1 under load). Shared by all egress schedulers;
	// Observe is atomic and alloc-free.
	egressHist *obs.Histogram

	framesRouted    atomic.Int64
	bytesRouted     atomic.Int64
	framesForwarded atomic.Int64
	framesInjected  atomic.Int64
	// kindFrames counts routed frames per kind (index kind - KindOpen),
	// covering both locally originated (route) and mesh-injected
	// (Inject) frames: one atomic add per frame, the relay's vantage on
	// establishment traffic (opens, refusals, abandons) and flow
	// control (credit) crossing it.
	kindFrames [numRoutedKinds]atomic.Int64
	// attachOutcomes counts attach verdicts by identity verdict code:
	// index 0 is success.
	attachOutcomes [identity.NumVerdicts]atomic.Int64
	detaches       atomic.Int64

	traceMu sync.Mutex
	tr      *obs.Trace

	statsMu         sync.Mutex
	forwardedByPeer map[string]int64
}

// numRoutedKinds spans the contiguous routed frame kinds
// KindOpen..KindCredit counted by kindFrames.
const numRoutedKinds = int(KindCredit - KindOpen + 1)

// SetTrace attaches an event-trace ring: attach verdicts and detaches
// are recorded on it (routing itself is never traced — it is
// frame-scale, the trace is human-scale). A nil trace (the default)
// disables recording. Meant to be set before Serve.
func (s *Server) SetTrace(tr *obs.Trace) {
	s.traceMu.Lock()
	s.tr = tr
	s.traceMu.Unlock()
}

func (s *Server) trace() *obs.Trace {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	return s.tr
}

// serverPeer is one attached node. All post-attach frames towards the
// node go through its egress scheduler, which decouples the writers (the
// other nodes' reader goroutines and the mesh) from the node's possibly
// stalled connection: one slow destination no longer head-of-line-blocks
// every link crossing the relay.
type serverPeer struct {
	id   string
	conn net.Conn
	eg   *Egress
	// enforceSrc (trust-enforcing relays) pins the source-node field
	// embedded in this peer's routed frames to its authenticated
	// attachment ID: having proven who it is, a node also may not
	// *speak* as anyone else. Frames claiming a foreign source are
	// dropped at this edge (mesh-forwarded frames were already
	// edge-validated by the trusted peer relay they entered through).
	enforceSrc bool
}

// enqueue schedules one frame towards the peer on behalf of the given
// source link. When owner is non-nil the egress takes the reference the
// caller retained for it; payload then aliases owner (cut-through: the
// bytes are re-emitted verbatim, never copied).
func (p *serverPeer) enqueue(src string, kind byte, payload []byte, owner *wire.Buf) error {
	return p.eg.Enqueue(src, kind, nil, payload, owner)
}

// NewServer creates a relay with no attached nodes.
func NewServer() *Server {
	return &Server{
		nodes:           make(map[string]*serverPeer),
		unproven:        make(map[net.Conn]struct{}),
		forwardedByPeer: make(map[string]int64),
		// Power-of-two buckets up to the default batch budget: the
		// interesting signal is "how far above 1 frame per writev".
		egressHist: obs.NewHistogram([]float64{1, 2, 4, 8, 16, 32}),
	}
}

// SetID names this relay; the ID is announced to attaching clients (so
// a node knows which relay of a mesh it landed on) and used by the
// overlay's directory gossip.
func (s *Server) SetID(id string) {
	s.mu.Lock()
	s.id = id
	s.mu.Unlock()
}

// ID returns the relay's name, if one was set.
func (s *Server) ID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.id
}

// EgressWriteStats reports, across all attached nodes' egress schedulers,
// how many vectored writes have been performed and how many frames they
// emitted in total (frames/writes is the mean batch size — the
// netibis_relay_egress_frames_per_write signal, for tests and benches).
func (s *Server) EgressWriteStats() (writes, frames int64) {
	return s.egressHist.Count(), int64(s.egressHist.Sum())
}

// SetForwarder installs the inter-relay forwarding hook.
func (s *Server) SetForwarder(f Forwarder) {
	s.mu.Lock()
	s.fwd = f
	s.mu.Unlock()
}

// SetConnHandler installs the handler for connections that open with a
// non-attach frame (peer relays of the overlay mesh).
func (s *Server) SetConnHandler(h ConnHandler) {
	s.mu.Lock()
	s.connH = h
	s.mu.Unlock()
}

func (s *Server) forwarder() Forwarder {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fwd
}

func (s *Server) connHandler() ConnHandler {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.connH
}

// Serve accepts relay clients on l until the listener is closed. After
// Close it closes l and returns net.ErrClosed.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return net.ErrClosed
	}
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	for {
		c, err := l.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return net.ErrClosed
		}
		s.wg.Add(1)
		s.unproven[c] = struct{}{}
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(c)
		}()
	}
}

// Close shuts the relay down: it stops accepting, closes the connections
// still in their handshake, then disconnects all nodes and waits for
// their handlers. Once it has begun, Serve starts no handler and
// handleNode attaches no node.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	listeners := s.listeners
	s.listeners = nil
	unproven := make([]net.Conn, 0, len(s.unproven))
	for c := range s.unproven {
		unproven = append(unproven, c)
	}
	s.mu.Unlock()
	for _, l := range listeners {
		l.Close()
	}
	for _, c := range unproven {
		c.Close()
	}
	s.mu.Lock()
	peers := make([]*serverPeer, 0, len(s.nodes))
	for _, p := range s.nodes {
		peers = append(peers, p)
	}
	s.mu.Unlock()
	for _, p := range peers {
		p.conn.Close()
		p.eg.Close()
	}
	s.wg.Wait()
}

// Stats reports the relay's routing counters. It is safe to call
// concurrently with routing and cheap enough to poll continuously —
// netibis-top polls it (through /metrics) at up to 10 Hz: the scalar
// counters are single atomic loads, and the per-peer breakdown is one
// short lock-held slice fill (the peer set is the mesh size, a handful
// of entries) sorted outside the lock. No map is built.
func (s *Server) Stats() Stats {
	st := Stats{
		FramesRouted:    s.framesRouted.Load(),
		BytesRouted:     s.bytesRouted.Load(),
		FramesForwarded: s.framesForwarded.Load(),
		FramesInjected:  s.framesInjected.Load(),
	}
	s.statsMu.Lock()
	if n := len(s.forwardedByPeer); n > 0 {
		st.ForwardedByPeer = make([]PeerForward, 0, n)
		for id, frames := range s.forwardedByPeer {
			st.ForwardedByPeer = append(st.ForwardedByPeer, PeerForward{Peer: id, Frames: frames})
		}
	}
	s.statsMu.Unlock()
	sort.Slice(st.ForwardedByPeer, func(i, j int) bool {
		return st.ForwardedByPeer[i].Peer < st.ForwardedByPeer[j].Peer
	})
	return st
}

func (s *Server) countForward(peerRelay string) {
	s.framesForwarded.Add(1)
	s.statsMu.Lock()
	s.forwardedByPeer[peerRelay]++
	s.statsMu.Unlock()
}

// NodeBacklog is one attached node's egress backlog.
type NodeBacklog struct {
	Node   string
	Frames int
}

// EgressBacklogAll reports the egress backlog of every attached node,
// sorted by node ID, so operators can find the stalled destination
// without knowing attachment IDs up front. Each entry is one mutex-read
// of that node's scheduler; like Stats, it is safe to poll continuously.
func (s *Server) EgressBacklogAll() []NodeBacklog {
	s.mu.Lock()
	peers := make([]*serverPeer, 0, len(s.nodes))
	for _, p := range s.nodes {
		peers = append(peers, p)
	}
	s.mu.Unlock()
	out := make([]NodeBacklog, 0, len(peers))
	for _, p := range peers {
		out = append(out, NodeBacklog{Node: p.id, Frames: p.eg.Backlog()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// AttachedNodes returns the IDs of the currently attached nodes.
func (s *Server) AttachedNodes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.nodes))
	for id := range s.nodes {
		ids = append(ids, id)
	}
	return ids
}

func (s *Server) lookup(id string) *serverPeer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nodes[id]
}

// lookupKey is lookup for a destination that still aliases a frame
// payload. The map index converts without allocating, which keeps the
// routing fast path allocation-free.
func (s *Server) lookupKey(id []byte) *serverPeer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nodes[string(id)]
}

// Inject delivers a frame that arrived from a peer relay to a locally
// attached node. It reports false when the destination is not attached
// here (the caller then NACKs so stale routes get repaired). src labels
// the link the frame arrived on (the peer relay's ID; empty for frames
// the caller synthesised) and selects the egress queue that backpressures
// when the destination stalls. When owner is non-nil it is the pooled
// buffer backing payload; Inject retains it for the egress, so the
// caller's own release stays valid. A nil owner means payload is a
// caller-allocated slice handed over for good.
func (s *Server) Inject(src string, kind byte, payload []byte, owner *wire.Buf) bool {
	dst, _, _, ok := ParseRouted(payload)
	if !ok {
		return false
	}
	target := s.lookupKey(dst)
	if target == nil {
		return false
	}
	s.framesRouted.Add(1)
	s.bytesRouted.Add(int64(len(payload)))
	s.framesInjected.Add(1)
	if k := int(kind) - int(KindOpen); k >= 0 && k < numRoutedKinds {
		s.kindFrames[k].Add(1)
	}
	if owner != nil {
		owner.Retain()
	}
	target.enqueue(src, kind, payload, owner)
	return true
}

// preAttachTimeout bounds how long an accepted connection may idle
// before opening a handshake (an attach or a peer hello): a client
// probing RTT refreshes it with every keep-alive, while a silent
// connection costs the relay a timer instead of a goroutine pinned
// forever.
const preAttachTimeout = 30 * time.Second

//netibis:preauth
func (s *Server) handle(c net.Conn) {
	r := wire.NewReader(c)
	pw := wire.NewWriter(c)

	// Read up to the first meaningful frame. Keep-alives before the
	// attach are echoed, which lets clients measure the round-trip time
	// of a candidate relay before committing to it. Until that frame
	// arrives the peer is an arbitrary dialer, so every read is
	// deadline-bounded (refreshed per keep-alive: an RTT probe may echo
	// several times before the client picks this relay).
	var f wire.Frame
	var err error
	for {
		c.SetReadDeadline(time.Now().Add(preAttachTimeout))
		if f, err = r.ReadFrame(); err != nil || f.Kind != wire.KindKeepAlive {
			break
		}
		if err = pw.WriteFrame(wire.KindKeepAlive, 0, nil); err != nil {
			break
		}
	}
	switch h := s.connHandler(); {
	case err == nil && f.Kind == KindAttach:
		s.handleNode(c, r, f)
	case err == nil && h != nil:
		// Not a node: maybe a peer relay of the overlay mesh, which runs
		// its handshake in h. The frame payload is already a stable copy
		// (ReadFrame contract).
		c.SetReadDeadline(time.Time{})
		h(f, c, r)
	default:
		c.Close()
	}
	s.proven(c)
}

// proven takes c out of the connections Close must close itself: its
// handshake is over.
func (s *Server) proven(c net.Conn) {
	s.mu.Lock()
	delete(s.unproven, c)
	s.mu.Unlock()
}

//netibis:preauth
func (s *Server) handleNode(c net.Conn, r *wire.Reader, attach wire.Frame) {
	defer c.Close()
	w := wire.NewWriter(c)
	// The handshake binds the *claimed node ID* to the proven key when
	// the relay holds a trust store, so one node cannot attach as
	// another.
	cfg := s.authConfig()
	id, err := identity.Respond(c, r, w, attach.Payload, identity.Attach, cfg.side(s.ID()))
	c.SetReadDeadline(time.Time{})
	if err != nil {
		if code, ok := identity.VerdictCode(err); ok {
			s.attachOutcomes[code].Add(1)
			s.trace().Eventf("relay", "attach of %s refused (%s)", id, identity.VerdictName(code))
		}
		return
	}
	peer := &serverPeer{id: id, conn: c, enforceSrc: cfg.Trust != nil}

	// The attach ack must be the first frame the client sees after the
	// handshake, and the node must be routable by the time the client
	// sees it: a client dials the moment Attach returns, and acking first
	// and publishing after left a window in which an open towards a
	// just-attached node was refused as unknown. So the egress writer
	// takes over the connection now, and the node is published and its
	// ack queued as the scheduler's first entry inside one s.mu critical
	// section: nobody can look the node up (and enqueue a routed or
	// forwarded frame) before the ack is queued, and the ack cannot be
	// written before the node is published. A fresh egress never blocks.
	peer.eg = NewEgress(c, w, s.egressHist)
	defer peer.eg.Close()

	s.attachMu.Lock()
	s.mu.Lock()
	if s.closed {
		// No ack during shutdown: an ack followed by the shutdown's conn
		// close would look like an attach and an immediate detach, which
		// in resumable mode burns one of the client's failover attempts
		// instead of surfacing a clean failure.
		s.mu.Unlock()
		s.attachMu.Unlock()
		return
	}
	delete(s.unproven, c)
	old := s.nodes[id]
	s.nodes[id] = peer
	peer.eg.Enqueue("", KindAttachOK, nil, nil, nil)
	s.mu.Unlock()
	if old != nil {
		// Latest attachment wins. After an asymmetric failure the relay
		// can still hold the node's half-open previous connection (its
		// blocked read never errors); refusing the re-attach would lock
		// the node out of its own identity. Closing the stale conn makes
		// its handler exit, and the handler's deregistration guard sees
		// the map already points at the new attachment.
		old.conn.Close()
	}
	if fwd := s.forwarder(); fwd != nil {
		fwd.NodeAttached(id)
	}
	s.attachMu.Unlock()
	s.attachOutcomes[0].Add(1)
	s.trace().Eventf("relay", "node %s attached", id)
	defer func() {
		s.attachMu.Lock()
		s.mu.Lock()
		stale := s.nodes[id] != peer
		if !stale {
			delete(s.nodes, id)
		}
		s.mu.Unlock()
		if !stale {
			if fwd := s.forwarder(); fwd != nil {
				fwd.NodeDetached(id)
			}
		}
		s.attachMu.Unlock()
		if !stale {
			s.detaches.Add(1)
			s.trace().Eventf("relay", "node %s detached", id)
		}
	}()

	// Route frames until the node disconnects. The relay never inspects
	// payload data: it forwards based on the (dst, channel) header
	// prefix of every routed frame. Frames are read into an owned pooled
	// buffer and re-emitted verbatim — cut-through, zero payload copies.
	for {
		kind, _, b, err := r.ReadFrameBuf()
		if err != nil {
			return
		}
		switch kind {
		case KindOpen, KindOpenOK, KindOpenFail, KindData, KindShut, KindAbandon, KindCredit:
			s.route(peer, kind, b)
		case wire.KindKeepAlive:
			peer.enqueue(peer.id, wire.KindKeepAlive, nil, nil)
		case wire.KindClose:
			b.Release()
			return
		}
		b.Release()
	}
}

// route delivers one routed frame arriving from a locally attached node:
// cut-through to another local node, hand-off to the mesh, or an
// open-failure back to the sender. b holds the routed payload; route
// borrows it for the duration of the call and retains it itself when the
// frame is queued (the caller's release stays valid either way). The
// payload is parsed in place and re-emitted verbatim; delivered locally
// or handed to the mesh, route performs no allocation and no payload
// copy (gated by regression tests). Delivery enqueues on the destination's
// egress scheduler: a stalled destination backpressures this source once
// its bounded queue fills, without delaying any other link.
func (s *Server) route(from *serverPeer, kind byte, b *wire.Buf) {
	payload := b.Bytes()
	dst, channel, body, ok := ParseRouted(payload)
	if !ok {
		return
	}
	s.kindFrames[kind-KindOpen].Add(1)
	if from.enforceSrc && kind != KindOpenFail {
		// Trust-enforcing relay: the frame body's source field must name
		// the attachment it arrived on. An authenticated-but-malicious
		// node forging frames "from" another node (e.g. to reset the
		// victims' sealed links with garbage records) is stopped here.
		// KindOpenFail is exempt: refusals carry an empty body. The
		// check parses and compares in place — no allocation, the
		// cut-through property is untouched.
		src, ok := routedSrc(body)
		if !ok || string(src) != from.id {
			return
		}
	}
	target := s.lookupKey(dst)
	if target == nil {
		// Not attached here: try the mesh.
		if fwd := s.forwarder(); fwd != nil {
			if peerRelay, ok := fwd.ForwardFrame(from.id, dst, kind, payload, b); ok {
				s.countForward(peerRelay)
				return
			}
		}
		if kind == KindOpen {
			// Tell the originator the peer is unknown.
			from.enqueue(from.id, KindOpenFail, AppendRouted(nil, from.id, channel, nil), nil)
		}
		return
	}
	s.framesRouted.Add(1)
	s.bytesRouted.Add(int64(len(payload)))
	b.Retain()
	target.enqueue(from.id, kind, payload, b)
}
