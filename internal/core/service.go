package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"netibis/internal/driver"
	"netibis/internal/drivers/multi"
	"netibis/internal/estab"
	"netibis/internal/ipl"
	"netibis/internal/nameservice"
	"netibis/internal/relay"
	"netibis/internal/wire"
)

// Service-link operation codes (frame flags on wire.KindControl frames).
const (
	opConnect    byte = 1
	opConnectOK  byte = 2
	opConnectErr byte = 3
	opPing       byte = 4
	opPong       byte = 5
)

// serviceLink is an outgoing service path to one peer, used to broker
// data links. It is owned in two halves, each taken in request order:
// wmu, the write half, from a request until its last frame (a connect's
// done marker, a ping) is written; rmu, the read half, from the reply
// until the last frame the request draws (the peer's done marker, the
// pong) is read. Whoever holds the write half takes the read half before
// giving the write half up, so replies are read in the order requests
// went out, and the next request goes out right behind the previous
// connect's done marker while only its reply waits for the barrier: the
// peer reads requests in order and each only after its own barrier,
// through the link's one reader, which its mux reads through too.
type serviceLink struct {
	wmu sync.Mutex
	rmu sync.Mutex
	// peer is the routed link's Peer(): the serviceLinks key, and the
	// one name the peer's replies are held against.
	peer string
	conn net.Conn
	r    *wire.Reader  // under rmu
	w    *wire.Writer  // under wmu
	rtt  time.Duration // under rmu: the last round trip timed on the link
}

// --- dispatcher: incoming routed connections ------------------------------------------

// dispatcher accepts relay-routed connections from peers and hands each
// to the consumer the purpose byte of its open names: a service link gets
// a handler goroutine, a data link goes to the establishment its open
// names, anything else is closed. Who a link is from is its own Peer(),
// never something the sender writes.
func (n *Node) dispatcher() {
	defer n.wg.Done()
	for {
		conn, err := n.relayCli.Accept()
		if err != nil {
			return
		}
		switch purpose, conv := conn.(interface{ Purpose() (byte, uint64) }).Purpose(); purpose {
		case relay.PurposeService:
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				n.serveServiceLink(conn)
			}()
		case relay.PurposeData:
			n.parkRoutedData(conn, conv)
		default:
			conn.Close()
		}
	}
}

// linkPeer returns the node ID at the far end of a relay-routed link:
// the name the relay pinned to the (authenticated) attachment the link's
// frames come from, and the one the end-to-end key agreement verified.
// It is "" — which matches no peer — for anything else.
func linkPeer(conn net.Conn) string {
	if rl, ok := conn.(interface{ Peer() string }); ok {
		return rl.Peer()
	}
	return ""
}

// linkKey returns the key only the two ends of a sealed service link
// derive from its handshake: the driver.Env.LinkKey of every data link
// brokered over it. On an unsealed link it is nil, never a default.
func linkKey(conn net.Conn) []byte {
	if rl, ok := conn.(interface{ ExportKey(label string) []byte }); ok {
		return rl.ExportKey("data-link secure driver")
	}
	return nil
}

// routedWaiters parks the routed data links a peer opens to this node
// while connects to it establish, one per establishment, sent right
// behind the connect reply: links[k], made on first use, holds the one
// naming establishment k (a stack brokers at most multi.MaxStreams).
type routedWaiters struct {
	links   [multi.MaxStreams]chan net.Conn
	waiters int // connects establishing
}

// slot is where establishment k's link parks, nil past the bound. The
// caller holds n.mu.
func (w *routedWaiters) slot(k uint64) chan net.Conn {
	if k >= uint64(len(w.links)) {
		return nil
	}
	if w.links[k] == nil {
		w.links[k] = make(chan net.Conn, 1)
	}
	return w.links[k]
}

// expectRoutedData admits routed data links from peer until the returned
// function is called; the last connect to leave drops the entry and
// closes what is parked (lost races' links, a peer's surplus), for no
// establishment is left to take it.
func (n *Node) expectRoutedData(peer string) (leave func()) {
	n.mu.Lock()
	w := n.pendingData[peer]
	if w == nil {
		w = &routedWaiters{}
		n.pendingData[peer] = w
	}
	w.waiters++
	n.mu.Unlock()
	return func() {
		n.mu.Lock()
		w.waiters--
		last := w.waiters == 0
		if last {
			delete(n.pendingData, peer)
		}
		n.mu.Unlock()
		if !last {
			return
		}
		for _, ch := range w.links {
			for len(ch) > 0 {
				(<-ch).Close()
			}
		}
	}
}

// parkRoutedData hands a routed data link to establishment conv of the
// connect waiting for it, or closes it at once: no connect to its peer
// is establishing, or that establishment holds a live link already (an
// abandoned one, left by an earlier connect's lost race, gives way).
func (n *Node) parkRoutedData(conn net.Conn, conv uint64) {
	n.mu.Lock()
	if w := n.pendingData[linkPeer(conn)]; w != nil {
		slot := w.slot(conv) // nil: neither case is ever ready
		select {
		case slot <- conn:
			conn = nil
		case parked := <-slot: // full: the live one of the two stays
			if abandoned(parked) {
				parked, conn = conn, parked
			}
			select {
			case slot <- parked: // just emptied, and only parkers fill it
			default:
			}
		default:
		}
	}
	n.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// abandoned reports whether conn's peer discarded it (relay.KindAbandon).
func abandoned(conn net.Conn) bool {
	ab, ok := conn.(interface{ Abandoned() bool })
	return ok && ab.Abandoned()
}

// acceptRoutedData is the estab.Connector hook on the initiating side of
// a routed establishment, which runs inside a connect to peerID: it
// takes the data link that peer opened for establishment conv, skipping
// abandoned ones (their acceptor lost an establishment race). cancel
// fires when this establishment lost its race.
func (n *Node) acceptRoutedData(peerID string, conv uint64, timeout time.Duration, cancel <-chan struct{}) (net.Conn, error) {
	n.mu.Lock()
	links := n.pendingData[peerID].slot(conv)
	n.mu.Unlock()
	deadline := time.After(timeout)
	for {
		select {
		case conn := <-links:
			if abandoned(conn) {
				conn.Close()
				continue
			}
			return conn, nil
		case <-cancel: // nil cancel never fires
			return nil, fmt.Errorf("core: routed accept from %s canceled (lost the establishment race)", peerID)
		case <-n.done:
			return nil, ErrClosed
		case <-deadline:
			return nil, fmt.Errorf("core: timed out waiting for routed data link from %s", peerID)
		}
	}
}

// --- service links -------------------------------------------------------------------

// serviceLinkTo returns (creating if needed) the service link to a peer
// node. Service links are routed through the relay, so they exist in
// every topology; their modest performance does not matter because they
// only carry brokering traffic.
func (n *Node) serviceLinkTo(peerName string) (*serviceLink, error) {
	peerID := n.cfg.Pool + "/" + peerName
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	if sl, ok := n.serviceLinks[peerID]; ok {
		n.mu.Unlock()
		return sl, nil
	}
	n.mu.Unlock()

	conn, err := n.dialRouted(peerName, peerID)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrPeerUnavailable, err)
	}
	sl := &serviceLink{peer: linkPeer(conn), conn: conn, r: wire.NewReader(conn), w: wire.NewWriter(conn)}

	n.mu.Lock()
	if existing, ok := n.serviceLinks[sl.peer]; ok {
		// Lost the race against a concurrent creator; keep the first.
		n.mu.Unlock()
		conn.Close()
		return existing, nil
	}
	n.serviceLinks[sl.peer] = sl
	n.mu.Unlock()
	return sl, nil
}

// dialRouted opens a service link to a peer node, retrying refusals and
// detachments (the mesh's gossip window, or our own attachment being
// resumed after a failover) until the accept timeout expires. That would
// make dialing a node that never joined slow, and the registry knows at
// once whether the peer exists: the dial's first refusal asks it, and is
// final for a peer it does not know. Nothing in the record is used — the
// dial targets the peer ID, whose attachment the relay authenticated — so
// a dial that succeeds never asks.
func (n *Node) dialRouted(peerName, peerID string) (net.Conn, error) {
	asked := false
	dial := func(peerID string, timeout time.Duration) (net.Conn, error) {
		conn, err := n.relayCli.DialPurpose(peerID, relay.PurposeService, 0, timeout, nil)
		if errors.Is(err, relay.ErrRefused) && !asked {
			asked = true
			if _, lerr := n.registry.Lookup(n.nodeKey(peerName), 0); errors.Is(lerr, nameservice.ErrNotFound) {
				return nil, lerr
			}
		}
		return conn, err
	}
	return estab.RetryRoutedDial(dial, peerID, n.connector.ResolvedAcceptTimeout(), n.done)
}

// dropServiceLink evicts one cached service link (because an
// establishment over it observed a failure — its conversation state is
// unrecoverable) and closes its connection, which also unblocks the
// peer's serve loop.
func (n *Node) dropServiceLink(sl *serviceLink) {
	n.mu.Lock()
	if cur, ok := n.serviceLinks[sl.peer]; ok && cur == sl {
		delete(n.serviceLinks, sl.peer)
	}
	n.mu.Unlock()
	sl.conn.Close()
}

// dropAllServiceLinks evicts and closes every cached service link (used
// after a relay failover, when in-flight routed frames were lost).
func (n *Node) dropAllServiceLinks() {
	n.mu.Lock()
	links := make([]*serviceLink, 0, len(n.serviceLinks))
	for _, sl := range n.serviceLinks {
		links = append(links, sl)
	}
	n.serviceLinks = make(map[string]*serviceLink)
	n.mu.Unlock()
	for _, sl := range links {
		sl.conn.Close()
	}
}

// Ping measures the round-trip time to a peer over the (relay-routed)
// service link; it doubles as a liveness check. The ping goes out only
// once the read half is free — behind any barrier — so it times one round
// trip and nothing else, and the write half is given up right behind it.
func (n *Node) Ping(peerName string) (time.Duration, error) {
	sl, err := n.serviceLinkTo(peerName)
	if err != nil {
		return 0, err
	}
	sl.wmu.Lock()
	sl.rmu.Lock()
	defer sl.rmu.Unlock()
	start := time.Now()
	err = sl.w.WriteFrame(wire.KindControl, opPing, nil)
	sl.wmu.Unlock()
	if err != nil {
		return 0, err
	}
	f, err := sl.r.ReadFrame()
	if err != nil {
		return 0, err
	}
	if f.Kind != wire.KindControl || f.Flags != opPong {
		// The link is out of step: nothing on it can be trusted again.
		n.dropServiceLink(sl)
		return 0, fmt.Errorf("core: unexpected reply (kind %d, op %d) to a ping", f.Kind, f.Flags)
	}
	sl.rtt = time.Since(start)
	return sl.rtt, nil
}

// serveServiceLink handles requests arriving on a service link created
// by a peer. Anything that is not a request closes the link.
func (n *Node) serveServiceLink(conn net.Conn) {
	defer conn.Close()
	r := wire.NewReader(conn)
	w := wire.NewWriter(conn)
	for {
		f, err := r.ReadFrame()
		if err != nil || f.Kind != wire.KindControl {
			return
		}
		switch f.Flags {
		case opPing:
			err = w.WriteFrame(wire.KindControl, opPong, nil)
		case opConnect:
			err = n.handleConnect(conn, r, w, f.Payload)
		default:
			return
		}
		if err != nil {
			return
		}
	}
}

// connectRequest is the decoded form of an opConnect payload. sender and
// profile.RelayID are checked against the service link's Peer() before
// anything else is done with the request; profile and endpoints are
// what the acceptor's establishments of this connect race with. The port
// type crosses as a digest: the acceptor only tests it for equality with
// its own port's, and a stack string may hold a psk= passphrase.
type connectRequest struct {
	portName   string
	typeDigest [sha256.Size]byte
	sender     ipl.Identifier
	profile    estab.Profile
	endpoints  estab.Endpoints // the initiator's, per estab.Connector.Carries
}

// portTypeDigest is SHA-256 over string name ‖ string stack.
func portTypeDigest(pt ipl.PortType) [sha256.Size]byte {
	return sha256.Sum256(wire.AppendString(wire.AppendString(nil, pt.Name), pt.Stack))
}

// establishments is how many establishments building stack runs: the
// product of its multi layers' streams, at most multi.MaxStreams.
func establishments(stack driver.Stack) (int, error) {
	n := 1
	for _, s := range stack {
		if s.Name != multi.Name {
			continue
		}
		streams, err := multi.Streams(s)
		if err != nil {
			return 0, err
		}
		if n *= streams; n > multi.MaxStreams {
			return 0, fmt.Errorf("%w: %s builds more than %d streams", driver.ErrBadParam, stack, multi.MaxStreams)
		}
	}
	return n, nil
}

func encodeConnectRequest(req connectRequest) []byte {
	var b []byte
	b = wire.AppendString(b, req.portName)
	b = wire.AppendBytes(b, req.typeDigest[:])
	b = wire.AppendString(b, req.sender.Name)
	b = wire.AppendString(b, req.sender.Pool)
	b = wire.AppendBytes(b, req.profile.Encode())
	return estab.AppendEndpoints(b, req.endpoints)
}

func decodeConnectRequest(p []byte) (connectRequest, error) {
	d := wire.NewDecoder(p)
	var req connectRequest
	req.portName = d.String()
	digest := d.Bytes()
	req.sender.Name = d.String()
	req.sender.Pool = d.String()
	profile := d.Bytes()
	endpoints, err := estab.ReadEndpoints(d, multi.MaxStreams)
	if err != nil || d.Remaining() != 0 || len(digest) != len(req.typeDigest) {
		return connectRequest{}, errors.New("core: corrupt connect request")
	}
	copy(req.typeDigest[:], digest)
	req.endpoints = endpoints
	req.profile, err = estab.DecodeProfile(profile)
	return req, err
}

// encodeConnectReply is the opConnectOK payload: the acceptor's profile
// and its endpoints, per estab.Connector.Carries.
func encodeConnectReply(profile estab.Profile, endpoints estab.Endpoints) []byte {
	return estab.AppendEndpoints(wire.AppendBytes(nil, profile.Encode()), endpoints)
}

// decodeConnectReply accepts one encoding: what encodeConnectReply makes
// of the result (no trailing bytes, no varint that is not minimal).
func decodeConnectReply(p []byte) (profile estab.Profile, endpoints estab.Endpoints, err error) {
	d := wire.NewDecoder(p)
	enc := d.Bytes()
	if endpoints, err = estab.ReadEndpoints(d, multi.MaxStreams); err == nil {
		profile, err = estab.DecodeProfile(enc)
	}
	if err != nil || !bytes.Equal(encodeConnectReply(profile, endpoints), p) {
		return estab.Profile{}, estab.Endpoints{}, errors.New("core: corrupt connect reply")
	}
	return profile, endpoints, nil
}

// handleConnect processes one data-link establishment request on the
// accepting side: validate the sender and the target port, acknowledge
// with this node's profile, then establish as many connections as the
// driver stack needs and build its input side.
func (n *Node) handleConnect(conn net.Conn, r *wire.Reader, w *wire.Writer, payload []byte) error {
	reject := func(reason string) error {
		return w.WriteFrame(wire.KindControl, opConnectErr, wire.AppendString(nil, reason))
	}
	req, err := decodeConnectRequest(payload)
	if err != nil {
		return reject("malformed connect request")
	}
	if peer := linkPeer(conn); req.sender.Pool+"/"+req.sender.Name != peer || req.profile.RelayID != peer {
		return reject("connect request does not name the node this service link belongs to")
	}
	n.mu.Lock()
	rp := n.recvPorts[req.portName]
	n.mu.Unlock()
	if rp == nil {
		return reject(ipl.ErrNoSuchPort.Error())
	}
	if portTypeDigest(rp.portType) != req.typeDigest {
		return reject(ipl.ErrIncompatiblePortTypes.Error())
	}
	stack, err := rp.portType.ParseStack()
	if err != nil {
		return reject(err.Error())
	}
	count, err := establishments(stack) // equal digests: the initiator's count too
	if err != nil {
		return reject(err.Error())
	}
	if s, l := n.connector.Carries(count, req.profile, nil); len(req.endpoints.Splice) != s || len(req.endpoints.Listen) != l {
		return reject(fmt.Sprintf("%d splice and %d listen endpoints for a stack of %d establishments, want %d and %d",
			len(req.endpoints.Splice), len(req.endpoints.Listen), count, s, l))
	}
	local := n.connector.Profile()
	endpoints, err := n.connector.Reserve(n.connector.Carries(count, req.profile, &local))
	if err != nil {
		return reject(err.Error())
	}
	defer endpoints.Close()
	if err := w.WriteFrame(wire.KindControl, opConnectOK, encodeConnectReply(local, endpoints)); err != nil {
		return err
	}

	// Build the input side of the driver stack; every Accept call runs
	// one brokered establishment over a mux conversation of this service
	// link, mirroring (and overlapping with) the Dial calls the
	// initiator makes concurrently on its side. Each starts every
	// candidate's half at once, so what the acceptor does first (its
	// dial of the initiator's listener, its splice request and its
	// routed open) follows the reply above back to back.
	mux := estab.NewServiceMux(conn, r, count, endpoints, req.endpoints)
	env := &driver.Env{
		Accept: func() (net.Conn, error) {
			dataConn, _, err := n.connector.EstablishAcceptor(mux.Open(), req.profile)
			return dataConn, err
		},
		LinkKey: linkKey(conn),
	}
	if input, err := driver.BuildInput(stack, env); err == nil {
		// The data link is up, whatever becomes of the service link.
		rp.addSource(req.sender, input)
	}
	// A failed build the initiator observes through its own establishment
	// errors. Either way the barrier passes before the serve loop reads
	// the link again; its error means the service connection itself
	// broke, and tells the loop to stop using it.
	return mux.Finish()
}
