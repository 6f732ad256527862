package overlay

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netibis/internal/identity"
	"netibis/internal/nameservice"
	"netibis/internal/obs"
	"netibis/internal/relay"
	"netibis/internal/wire"
)

// RegistryPrefix is the name-service prefix under which mesh relays
// register their dialable address.
const RegistryPrefix = "overlay/relay/"

// Peer-link frame kinds, disjoint from the relay node protocol so that
// one listener serves both nodes and peer relays. The rest of the
// peer-link handshake is identity's; 0x11 and 0x15 are not reused.
const (
	kindPeerHello = wire.KindUser + 0x10 // dialer -> acceptor: opens the handshake (payload: identity.Hello)
	kindGossip    = wire.KindUser + 0x12 // directory entries
	kindForward   = wire.KindUser + 0x13 // forwarded routed frame
	kindNack      = wire.KindUser + 0x14 // forwarded frame was undeliverable
)

// DefaultRescanInterval is the longest wait between a relay's registry
// scans for newly joined relays, and the wait when Config.RescanInterval
// is unset.
const DefaultRescanInterval = 2 * time.Second

// DefaultMaxHops bounds how often a frame may be re-forwarded between
// relays. Two hops suffice in a full mesh even while gossip is in
// flight; the third is slack for transient disagreement.
const DefaultMaxHops = 3

// Errors.
var (
	// ErrClosed is returned by operations on a closed overlay.
	ErrClosed = errors.New("overlay: closed")
	// ErrHandshake is returned when a peer-link handshake goes wrong.
	ErrHandshake = errors.New("overlay: peer handshake failed")
)

// Config describes one mesh member.
type Config struct {
	// ID is the relay's unique name within the mesh.
	ID string
	// Server is the local relay the overlay extends.
	Server *relay.Server
	// Advertise is the address peers dial to reach this relay, in
	// whatever format Dial understands (emunet "addr:port", TCP
	// "host:port", ...).
	Advertise string
	// Registry is the name-service client used for registration and
	// discovery. It may be nil: the mesh is then formed manually with
	// AddPeer.
	Registry *nameservice.Client
	// Dial opens a connection to another relay's advertised address.
	Dial func(addr string) (net.Conn, error)
	// RescanInterval, when positive, is the wait after a registry scan
	// that found a relay to link to and after a lost peer link; each scan
	// that finds none doubles the wait, up to DefaultRescanInterval.
	RescanInterval time.Duration
	// Identity is the relay's Ed25519 identity. With one configured the
	// relay signs its registry record (so nodes and peers can detect a
	// poisoned address) and proves itself in peer-link handshakes.
	Identity *identity.Identity
	// Trust, when non-nil, makes peer-link authentication mandatory:
	// every peer relay must prove an identity this store binds to its
	// claimed mesh ID, in both directions, before any gossip or
	// forwarded frame is exchanged — and discovered registry records
	// must carry a valid signature from the relay they advertise.
	Trust *identity.TrustStore
	// Trace, when non-nil, records peer-link lifecycle events (link
	// formed, link lost) on the shared event ring. Frame traffic is
	// never traced.
	Trace *obs.Trace
}

// Relay is one member of the relay mesh. It implements relay.Forwarder.
type Relay struct {
	cfg Config

	dir *directory

	mu    sync.Mutex
	peers map[string]*peerLink
	// dialing are the connections AddPeer opened whose handshake is
	// still running, for shutdown to close.
	dialing map[net.Conn]struct{}
	closed  bool
	done    chan struct{}
	wg      sync.WaitGroup
	relink  chan struct{} // a lost peer link resets rescanLoop's wait

	// Delta gossip is broadcast from a dedicated goroutine fed through
	// this queue: NodeAttached/NodeDetached are called from the relay's
	// attach path, which must never block on a stalled peer-link write.
	// The queue is bounded by construction: it holds at most one pending
	// entry per node, because a newer directory version for a node
	// supersedes the queued one in place (receivers merge by version, so
	// an intermediate delta that never leaves the queue was never needed
	// on the wire). Ordering per node is preserved; cross-node ordering
	// does not matter to the merge.
	gmu     sync.Mutex
	gcond   *sync.Cond
	gpend   map[string]Entry // pending delta per node, superseded in place
	gorder  []string         // FIFO of nodes with a pending delta
	gclosed bool

	// Gossip and repair counters (one atomic add per event; the forward
	// counter sits on the mesh data path and must stay allocation-free).
	gossipSent    atomic.Int64 // gossip frames sent (per peer)
	gossipRecv    atomic.Int64 // gossip frames received
	gossipApplied atomic.Int64 // received entries adopted by the directory
	gossipStale   atomic.Int64 // received entries rejected as stale
	nackSent      atomic.Int64 // NACKs originated or passed along
	nackRecv      atomic.Int64 // NACKs received
	forwardRecv   atomic.Int64 // forward envelopes received from peers
}

// peerLink is an established link to another relay of the mesh. All
// post-handshake frames go through its egress scheduler (the same
// bounded, source-fair machinery that decouples an attached node's
// connection): a stalled peer relay backpressures only the source links
// whose frames head its way, never the relay's own attach path or the
// traffic towards other relays.
type peerLink struct {
	id   string
	conn net.Conn
	eg   *relay.Egress
}

// send schedules one self-originated frame (gossip, NACKs) on the peer
// link. payload must be a fresh slice the egress may keep.
func (p *peerLink) send(kind byte, payload []byte) error {
	return p.eg.Enqueue("", kind, nil, payload, nil)
}

// The forward envelope around a routed payload is
//
//	string(origin) ‖ string(firstHop) ‖ string(srcNode) ‖ uvarint(hops) ‖ kind ‖ bytes(routed)
//
// A relay sends it as a small header, built on its stack and copied into
// the egress slot, plus the routed payload as a second vector re-emitted
// verbatim — the relay-to-relay leg of cut-through forwarding never
// copies it. The sender retains the payload's pooled buffer for the
// egress (its caller's own release stays valid) and queues the frame
// under the source node's link, so one link's backlog towards a slow peer
// relay blocks only that link's reader.

// appendForwardTail completes a forward envelope header after its three
// IDs: the hop count, the frame kind and the routed payload's length.
func appendForwardTail(head []byte, hops uint64, kind byte, routedLen int) []byte {
	head = wire.AppendUvarint(head, hops)
	head = append(head, kind)
	return wire.AppendUvarint(head, uint64(routedLen))
}

// forwardEnvelope is a decoded forward envelope. Every field aliases the
// frame it was decoded from.
type forwardEnvelope struct {
	origin, firstHop, srcNode []byte
	ids                       []byte // the encoded three IDs, re-sent verbatim on a re-forward
	hops                      uint64
	kind                      byte
	routed                    []byte
}

// New federates the given relay server into the mesh: it installs the
// forwarding hooks, registers the relay in the name service (when a
// registry client is configured) and starts discovering peers.
func New(cfg Config) (*Relay, error) {
	if cfg.ID == "" {
		return nil, errors.New("overlay: config needs an ID")
	}
	if cfg.Server == nil {
		return nil, errors.New("overlay: config needs a Server")
	}
	if cfg.Dial == nil {
		return nil, errors.New("overlay: config needs a Dial function")
	}
	if cfg.Trust != nil && cfg.Identity == nil {
		// Peer-link authentication is mutual by construction: a
		// trust-enforcing member asks each peer for a proof, and its
		// trust-enforcing peers ask it for one, which it can give only
		// with an identity of its own.
		return nil, errors.New("overlay: Trust requires an Identity (peer authentication is mutual)")
	}
	if cfg.RescanInterval <= 0 {
		cfg.RescanInterval = DefaultRescanInterval
	}
	o := &Relay{
		cfg:     cfg,
		dir:     newDirectory(cfg.ID),
		peers:   make(map[string]*peerLink),
		dialing: make(map[net.Conn]struct{}),
		done:    make(chan struct{}),
		relink:  make(chan struct{}, 1),
		gpend:   make(map[string]Entry),
	}
	o.gcond = sync.NewCond(&o.gmu)
	cfg.Server.SetID(cfg.ID)
	cfg.Server.SetConnHandler(o.handlePeerConn)
	cfg.Server.SetForwarder(o)
	// Nodes that attached before the overlay existed are seeded into the
	// directory (New is usually called before Serve, so this is empty).
	for _, id := range cfg.Server.AttachedNodes() {
		o.dir.localUpdate(id, cfg.ID, true)
	}
	if cfg.Registry != nil {
		// With an identity, the advertised address is registered as a
		// signed record: a registry poisoner cannot redirect peers or
		// nodes to an impostor address without breaking the signature.
		val := []byte(cfg.Advertise)
		if cfg.Identity != nil {
			val = identity.SealRecord(cfg.Identity, RegistryPrefix+cfg.ID, val)
		}
		if err := cfg.Registry.Register(RegistryPrefix+cfg.ID, val); err != nil {
			return nil, fmt.Errorf("overlay: register relay: %w", err)
		}
		o.scan()
		o.wg.Add(1)
		go o.rescanLoop()
	}
	// Started after the fallible registration so an error return leaks no
	// goroutine; gossip enqueued before this point is simply drained now.
	o.wg.Add(1)
	go o.broadcastLoop()
	return o, nil
}

// ID returns the relay's mesh ID.
func (o *Relay) ID() string { return o.cfg.ID }

// Peers returns the IDs of the relays this one holds peer links to.
func (o *Relay) Peers() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]string, 0, len(o.peers))
	for id := range o.peers {
		out = append(out, id)
	}
	return out
}

// Directory returns a snapshot of the attachment directory, mainly for
// monitoring and tests.
func (o *Relay) Directory() []Entry { return o.dir.snapshot() }

// Close leaves the mesh gracefully: the relay unregisters from the name
// service and tears down its peer links, and a pending AddPeer returns
// ErrClosed.
func (o *Relay) Close() { o.shutdown(true) }

// Kill tears the overlay down without unregistering, simulating a crash:
// the stale registry record stays behind, exactly as it would after a
// real relay failure, and nodes and peers must cope.
func (o *Relay) Kill() { o.shutdown(false) }

func (o *Relay) shutdown(unregister bool) {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	o.closed = true
	close(o.done)
	peers := make([]*peerLink, 0, len(o.peers))
	for _, p := range o.peers {
		peers = append(peers, p)
	}
	for c := range o.dialing {
		c.Close() // its AddPeer returns ErrClosed
	}
	o.mu.Unlock()
	o.gmu.Lock()
	o.gclosed = true
	o.gmu.Unlock()
	o.gcond.Broadcast()
	for _, p := range peers {
		p.conn.Close()
		p.eg.Close()
	}
	if unregister && o.cfg.Registry != nil {
		o.cfg.Registry.Unregister(RegistryPrefix + o.cfg.ID)
	}
	o.wg.Wait()
}

// --- discovery -------------------------------------------------------------------

// rescanLoop scans the registry until the relay closes. The first wait
// is RescanInterval. A scan that finds no relay to link to doubles the
// wait, up to DefaultRescanInterval; a scan that finds one, or a lost
// peer link, puts it back to RescanInterval. A complete mesh so lists
// the registry once per DefaultRescanInterval, however short
// RescanInterval is.
func (o *Relay) rescanLoop() {
	defer o.wg.Done()
	wait := o.cfg.RescanInterval
	t := time.NewTimer(wait)
	defer t.Stop()
	for {
		select {
		case <-o.done:
			return
		case <-o.relink:
			wait = o.cfg.RescanInterval
		case <-t.C:
			wait = o.nextWait(wait, o.scan())
		}
		t.Reset(wait)
	}
}

// nextWait is the wait after a scan that found a relay to link to, or
// found none after waiting wait.
func (o *Relay) nextWait(wait time.Duration, found bool) time.Duration {
	if found {
		return o.cfg.RescanInterval
	}
	return min(2*wait, max(o.cfg.RescanInterval, DefaultRescanInterval))
}

// scan dials every registered relay we should initiate a link to and
// lack, and reports whether there was one. The relay with the smaller ID
// initiates, so each pair forms exactly one link.
func (o *Relay) scan() (found bool) {
	ads, err := ListRelays(o.cfg.Registry, o.cfg.Trust)
	if err != nil {
		return false
	}
	for _, ad := range ads {
		if ad.ID == "" || ad.ID == o.cfg.ID || o.cfg.ID > ad.ID || o.peer(ad.ID) != nil {
			continue
		}
		found = true
		o.AddPeer(ad.Addr) // best effort; retried next rescan
	}
	return found
}

// Advert is one relay's registry record: its mesh ID and the address it
// advertises.
type Advert struct {
	ID, Addr string
}

// ListRelays lists the relays registered under RegistryPrefix. With a
// trust store it skips every record not signed by the relay it names, so
// a poisoned registry cannot redirect a node or a peer to an impostor;
// without one it unwraps a sealed record unverified.
func ListRelays(reg *nameservice.Client, trust *identity.TrustStore) ([]Advert, error) {
	recs, err := reg.List(RegistryPrefix)
	if err != nil {
		return nil, err
	}
	ads := make([]Advert, 0, len(recs))
	for _, rec := range recs {
		id := strings.TrimPrefix(rec.Key, RegistryPrefix)
		addr := identity.UnwrapRecord(rec.Value)
		if trust != nil {
			if addr, err = identity.VerifyRecord(trust, id, rec.Key, rec.Value); err != nil {
				continue
			}
		}
		ads = append(ads, Advert{ID: id, Addr: string(addr)})
	}
	return ads, nil
}

func (o *Relay) peer(id string) *peerLink {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.peers[id]
}

// side is this relay's part in peer-link handshakes.
func (o *Relay) side() identity.Side {
	return identity.Side{ID: o.cfg.ID, Identity: o.cfg.Identity, Trust: o.cfg.Trust}
}

// AddPeer dials another relay's advertised address and establishes a
// peer link (used by discovery, and directly for registry-less static
// meshes) through identity's handshake. With a trust store the peer
// *must* prove an identity bound to its claimed mesh ID, and a peer that
// holds one refuses us with a typed error unless we prove ours.
//
//netibis:preauth
func (o *Relay) AddPeer(addr string) error {
	o.mu.Lock()
	closed := o.closed
	o.mu.Unlock()
	if closed {
		return ErrClosed
	}
	conn, err := o.cfg.Dial(addr)
	if err != nil {
		return err
	}
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		conn.Close()
		return ErrClosed
	}
	o.dialing[conn] = struct{}{}
	o.mu.Unlock()
	w, r := wire.NewWriter(conn), wire.NewReader(conn)
	peerID, err := identity.Initiate(conn, r, w, kindPeerHello, identity.PeerLink, o.side())
	conn.SetReadDeadline(time.Time{})
	o.mu.Lock()
	delete(o.dialing, conn)
	if o.closed {
		err = ErrClosed
	}
	o.mu.Unlock()
	if err == nil && (peerID == "" || peerID == o.cfg.ID) {
		err = fmt.Errorf("%w: bad peer ID %q", ErrHandshake, peerID)
	}
	if err != nil {
		conn.Close()
		return fmt.Errorf("overlay: peer link to %s: %w", addr, err)
	}
	return o.startPeer(peerID, conn, w, r)
}

// handlePeerConn is the relay.ConnHandler: it answers identity's
// handshake on a connection whose first frame was not a node attach.
// With a trust store configured, the dialer must prove a trusted
// identity before the link is admitted to the mesh; a refused dialer
// learns which check failed, and nothing else.
//
//netibis:preauth
func (o *Relay) handlePeerConn(first wire.Frame, conn net.Conn, r *wire.Reader) {
	w := wire.NewWriter(conn)
	peerID, err := "", ErrHandshake
	if first.Kind == kindPeerHello {
		peerID, err = identity.Respond(conn, r, w, first.Payload, identity.PeerLink, o.side())
	}
	conn.SetReadDeadline(time.Time{})
	if err != nil || peerID == o.cfg.ID {
		conn.Close()
		return
	}
	o.startPeer(peerID, conn, w, r)
}

// startPeer registers an established peer link, pushes our directory
// snapshot over it and starts its read loop.
func (o *Relay) startPeer(peerID string, conn net.Conn, w *wire.Writer, r *wire.Reader) error {
	// The handshake used w synchronously; from here on the egress writer
	// owns the connection.
	p := &peerLink{id: peerID, conn: conn, eg: relay.NewEgress(conn, w, nil)}
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		conn.Close()
		p.eg.Close()
		return ErrClosed
	}
	if old := o.peers[peerID]; old != nil {
		// A reconnect replaces a link whose failure we have not noticed
		// yet; closing the stale conn unblocks its read loop.
		old.conn.Close()
		old.eg.Close()
	}
	o.peers[peerID] = p
	o.wg.Add(1)
	o.mu.Unlock()

	o.cfg.Trace.Eventf("overlay", "peer link %s up", peerID)
	if snap := o.dir.snapshot(); len(snap) > 0 {
		o.gossipSent.Add(1)
		p.send(kindGossip, encodeGossip(snap))
	}
	go func() {
		defer o.wg.Done()
		o.readPeer(p, r)
	}()
	return nil
}

func (o *Relay) removePeer(p *peerLink) {
	o.mu.Lock()
	removed := o.peers[p.id] == p
	if removed {
		delete(o.peers, p.id)
	}
	o.mu.Unlock()
	if !removed {
		// The link was superseded by a reconnect (startPeer closed this
		// conn when it installed the replacement). The peer relay is
		// still up, so its directory entries must survive: dropping them
		// here could race with the fresh link's snapshot gossip, and a
		// drop that lands after the merge is unrepairable — dropRelay
		// does not bump versions, so re-received snapshots lose to the
		// tombstones and the peer's nodes stay unroutable.
		return
	}
	select {
	case o.relink <- struct{}{}:
	default:
	}
	p.conn.Close()
	p.eg.Close()
	o.cfg.Trace.Eventf("overlay", "peer link %s down; dropping its homed nodes", p.id)
	// Everything homed at the lost relay is unreachable until its nodes
	// reattach elsewhere (which bumps their versions past these records).
	o.dir.dropRelay(p.id)
}

// readPeer demultiplexes frames arriving over one peer link. Frames are
// read into a pooled buffer that is released after synchronous dispatch;
// a forwarded routed payload is injected or re-forwarded straight out of
// that buffer (cut-through), never copied into an intermediate struct.
func (o *Relay) readPeer(p *peerLink, r *wire.Reader) {
	defer o.removePeer(p)
	for {
		kind, _, b, err := r.ReadFrameBuf()
		if err != nil {
			return
		}
		switch kind {
		case kindGossip:
			o.gossipRecv.Add(1)
			entries, err := decodeGossip(b.Bytes())
			if err != nil {
				b.Release()
				return
			}
			for _, e := range entries {
				if o.dir.merge(e) {
					o.gossipApplied.Add(1)
				} else {
					o.gossipStale.Add(1)
				}
			}
		case kindForward:
			o.forwardRecv.Add(1)
			o.handleForward(p, b)
		case kindNack:
			o.nackRecv.Add(1)
			o.handleNack(p, b)
		case wire.KindKeepAlive:
			// Deliberately not echoed: both ends of a peer link run this
			// loop, so an echo would ping-pong a single keepalive frame
			// between the two relays forever. (RTT probing uses the node
			// protocol's pre-attach echo, never a peer link.)
		case wire.KindClose:
			b.Release()
			return
		}
		b.Release()
	}
}

// --- forwarding -------------------------------------------------------------------

// ForwardFrame implements relay.Forwarder: the local relay server calls
// it for routed frames addressed to nodes that are not attached here.
// owner (when non-nil) is the pooled buffer backing payload; it is
// retained for the peer link's egress queue, so the payload crosses the
// relay-to-relay leg without a copy or an allocation.
func (o *Relay) ForwardFrame(srcNode string, dstNode []byte, kind byte, payload []byte, owner *wire.Buf) (string, bool) {
	home, ok := o.dir.lookup(dstNode)
	if !ok || home == o.cfg.ID {
		// Unknown, or the directory claims the node is local while the
		// server disagrees — either way there is no route.
		return "", false
	}
	p := o.peer(home)
	if p == nil {
		return "", false
	}
	var arr [128]byte
	head := wire.AppendString(arr[:0], o.cfg.ID)
	head = wire.AppendString(head, home)
	head = wire.AppendString(head, srcNode)
	head = appendForwardTail(head, 1, kind, len(payload))
	if owner != nil {
		owner.Retain()
	}
	if err := p.eg.Enqueue(srcNode, kindForward, head, payload, owner); err != nil {
		return "", false
	}
	return home, true
}

// handleForward delivers (or re-forwards, or NACKs) a frame that arrived
// over a peer link. b is the frame's pooled payload buffer, released by
// the caller; delivery and re-forwarding retain it as needed. Neither
// allocates: the envelope is parsed in place.
func (o *Relay) handleForward(from *peerLink, b *wire.Buf) {
	env, err := decodeForward(b.Bytes())
	if err != nil {
		return
	}
	if env.kind == relay.KindOpen && string(env.origin) != o.cfg.ID {
		// Reverse-path learning, before the open is delivered: its answer
		// may come back before the dialer's attach gossip does.
		o.dir.learn(string(env.srcNode), string(env.origin))
	}
	if o.cfg.Server.Inject(from.id, env.kind, env.routed, b) {
		return
	}
	dst, channel, _, ok := relay.ParseRouted(env.routed)
	if !ok {
		return
	}
	if string(env.origin) == o.cfg.ID {
		// The frame came home: a circular stale route. Repair the hop we
		// originally chose (only that one — gossip may have corrected the
		// entry to the true home while the frame was looping) and fail
		// the open without another round trip.
		o.dir.invalidate(string(dst), string(env.firstHop))
		if env.kind == relay.KindOpen {
			o.cfg.Server.Inject("", relay.KindOpenFail, relay.AppendRouted(nil, string(env.srcNode), channel, nil), nil)
		}
		return
	}
	// Owner/hop check: re-forward only while the hop budget lasts, never
	// back over the link the frame arrived on and never to ourselves —
	// together these make forwarding loops impossible.
	if home, ok := o.dir.lookup(dst); ok && home != o.cfg.ID && home != from.id && int(env.hops) < DefaultMaxHops {
		if p := o.peer(home); p != nil {
			var arr [128]byte
			head := appendForwardTail(append(arr[:0], env.ids...), env.hops+1, env.kind, len(env.routed))
			b.Retain()
			if p.eg.EnqueueFrom(env.srcNode, kindForward, head, env.routed, b) == nil {
				return
			}
		}
	}
	// Undeliverable: NACK back over the link the frame arrived on, so
	// the repair walks the reverse path — every hop of a stale chain
	// invalidated its own bad entry, not just the origin.
	o.nackSent.Add(1)
	from.send(kindNack, encodeNack(string(env.origin), string(dst), string(env.srcNode), channel, env.kind))
}

// handleNack processes an undeliverable notice: the sender of the NACK
// is the relay our route for dst pointed at, so that entry is stale —
// repair it, pass the notice towards the origin, and at the origin
// synthesise the open-failure towards the dialing node.
func (o *Relay) handleNack(from *peerLink, b *wire.Buf) {
	body := b.Bytes()
	origin, dst, srcNode, channel, kind, err := decodeNack(body)
	if err != nil {
		return
	}
	o.dir.invalidate(dst, from.id)
	if origin != o.cfg.ID {
		// We were an intermediate hop; pass the notice towards the
		// origin (at most once — the origin never re-forwards a NACK).
		if p := o.peer(origin); p != nil && p != from {
			o.nackSent.Add(1)
			b.Retain()
			p.eg.Enqueue("", kindNack, nil, body, b)
		}
		return
	}
	if kind == relay.KindOpen {
		o.cfg.Server.Inject("", relay.KindOpenFail, relay.AppendRouted(nil, srcNode, channel, nil), nil)
	}
}

// NodeAttached implements relay.Forwarder: gossip the new attachment.
// The directory update is synchronous (the caller serialises it against
// the node's publication); the broadcast is queued so the relay's attach
// path never blocks on a peer-link write.
func (o *Relay) NodeAttached(id string) {
	o.enqueueGossip(o.dir.localUpdate(id, o.cfg.ID, true))
}

// NodeDetached implements relay.Forwarder: gossip the departure, unless
// the node is already known to have resumed on another relay.
func (o *Relay) NodeDetached(id string) {
	if e, ok := o.dir.localDetach(id, o.cfg.ID); ok {
		o.enqueueGossip(e)
	}
}

// enqueueGossip queues one directory delta for broadcast, coalescing
// with any delta for the same node still waiting in the queue: versions
// are monotonic per node and receivers merge by version, so a queued
// delta the broadcaster has not picked up yet is superseded in place by
// the newer one. The queue is thereby bounded by the number of distinct
// nodes, however fast attachments churn against a slow peer link.
func (o *Relay) enqueueGossip(e Entry) {
	o.gmu.Lock()
	if old, queued := o.gpend[e.Node]; !queued {
		o.gorder = append(o.gorder, e.Node)
		o.gpend[e.Node] = e
	} else if e.Version >= old.Version {
		o.gpend[e.Node] = e // supersede in place, keeping the queue position
	}
	o.gmu.Unlock()
	o.gcond.Signal()
}

// broadcastLoop drains the gossip queue towards all peer links. Each
// drain ships the whole pending batch as a single gossip frame per peer.
func (o *Relay) broadcastLoop() {
	defer o.wg.Done()
	o.gmu.Lock()
	for {
		for len(o.gorder) == 0 && !o.gclosed {
			o.gcond.Wait()
		}
		if o.gclosed {
			o.gmu.Unlock()
			return
		}
		batch := make([]Entry, 0, len(o.gorder))
		for _, node := range o.gorder {
			batch = append(batch, o.gpend[node])
			delete(o.gpend, node)
		}
		o.gorder = o.gorder[:0]
		o.gmu.Unlock()
		o.broadcast(batch)
		o.gmu.Lock()
	}
}

func (o *Relay) broadcast(batch []Entry) {
	payload := encodeGossip(batch)
	o.mu.Lock()
	peers := make([]*peerLink, 0, len(o.peers))
	for _, p := range o.peers {
		peers = append(peers, p)
	}
	o.mu.Unlock()
	for _, p := range peers {
		o.gossipSent.Add(1)
		p.send(kindGossip, payload)
	}
}

// --- wire formats -----------------------------------------------------------------

func encodeGossip(entries []Entry) []byte {
	b := wire.AppendUvarint(nil, uint64(len(entries)))
	for _, e := range entries {
		b = wire.AppendString(b, e.Node)
		b = wire.AppendString(b, e.Home)
		b = wire.AppendUvarint(b, e.Version)
		present := byte(0)
		if e.Present {
			present = 1
		}
		b = append(b, present)
	}
	return b
}

func decodeGossip(p []byte) ([]Entry, error) {
	d := wire.NewDecoder(p)
	n := d.Uvarint()
	// The count is attacker-controlled (peer links may be hostile): cap
	// the pre-allocation and let the per-entry decode bound the loop —
	// a lying count fails on the first missing entry instead of
	// allocating gigabytes up front (found by FuzzDecodeGossip).
	capHint := n
	if capHint > 1024 {
		capHint = 1024
	}
	entries := make([]Entry, 0, capHint)
	for i := uint64(0); i < n; i++ {
		var e Entry
		e.Node = d.String()
		e.Home = d.String()
		e.Version = d.Uvarint()
		e.Present = d.Byte() != 0
		if d.Err() != nil {
			return nil, d.Err()
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// decodeForward parses a forward envelope in place (see the envelope's
// layout above appendForwardTail).
func decodeForward(p []byte) (forwardEnvelope, error) {
	d := wire.NewDecoder(p)
	var env forwardEnvelope
	env.origin = d.Bytes()
	env.firstHop = d.Bytes()
	env.srcNode = d.Bytes()
	env.ids = p[:len(p)-d.Remaining()]
	env.hops = d.Uvarint()
	env.kind = d.Byte()
	env.routed = d.Bytes()
	return env, d.Err()
}

func encodeNack(origin, dst, srcNode string, channel uint64, kind byte) []byte {
	b := wire.AppendString(nil, origin)
	b = wire.AppendString(b, dst)
	b = wire.AppendString(b, srcNode)
	b = wire.AppendUvarint(b, channel)
	b = append(b, kind)
	return b
}

func decodeNack(p []byte) (origin, dst, srcNode string, channel uint64, kind byte, err error) {
	d := wire.NewDecoder(p)
	origin = d.String()
	dst = d.String()
	srcNode = d.String()
	channel = d.Uvarint()
	kind = d.Byte()
	return origin, dst, srcNode, channel, kind, d.Err()
}
