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
	"netibis/internal/emunet"
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
// data links. Requests over one service link are serialised.
type serviceLink struct {
	mu sync.Mutex
	// peer is the routed link's Peer(): the serviceLinks key, and the
	// one name the peer's replies are held against.
	peer string
	conn net.Conn
	r    *wire.Reader
	w    *wire.Writer
}

// --- dispatcher: incoming routed connections ------------------------------------------

// dispatcher accepts relay-routed connections from peers and hands each
// to the consumer the purpose byte of its open names: a service link gets
// a handler goroutine, a data link goes to the connect waiting for it,
// anything else is closed. Who a link is from is its own Peer(), never
// something the sender writes.
func (n *Node) dispatcher() {
	defer n.wg.Done()
	for {
		conn, err := n.relayCli.Accept()
		if err != nil {
			return
		}
		switch conn.(interface{ Purpose() byte }).Purpose() {
		case relay.PurposeService:
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				n.serveServiceLink(conn)
			}()
		case relay.PurposeData:
			n.parkRoutedData(conn)
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
// while connects to it establish: an acceptor opens its link right
// behind its connect reply, before the establishment that takes it runs.
// An establishment takes one link, a stack brokers at most
// multi.MaxStreams.
type routedWaiters struct {
	links   chan net.Conn
	waiters int // connects establishing
}

// expectRoutedData admits routed data links from peer until the returned
// function is called; the last connect to leave drops the entry and
// closes what is parked (lost races' links, a peer's surplus), for no
// establishment is left to take it.
func (n *Node) expectRoutedData(peer string) (leave func()) {
	n.mu.Lock()
	w := n.pendingData[peer]
	if w == nil {
		w = &routedWaiters{links: make(chan net.Conn, multi.MaxStreams)}
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
		for last && len(w.links) > 0 {
			(<-w.links).Close()
		}
	}
}

// parkRoutedData hands a routed data link to the connect waiting for it,
// or closes it at once: no connect to its peer is establishing, or that
// one's links are all parked.
func (n *Node) parkRoutedData(conn net.Conn) {
	parked := false
	n.mu.Lock()
	if w := n.pendingData[linkPeer(conn)]; w != nil {
		select {
		case w.links <- conn:
			parked = true
		default:
		}
	}
	n.mu.Unlock()
	if !parked {
		conn.Close()
	}
}

// acceptRoutedData is the estab.Connector hook on the initiating side of
// a routed establishment, which runs inside a connect to peerID: it
// takes the next data link that peer opened. Links whose acceptor lost
// an establishment race arrive abandoned (see relay.KindAbandon) and are
// discarded. cancel fires when this establishment lost its race.
func (n *Node) acceptRoutedData(peerID string, timeout time.Duration, cancel <-chan struct{}) (net.Conn, error) {
	n.mu.Lock()
	w := n.pendingData[peerID]
	n.mu.Unlock()
	deadline := time.After(timeout)
	for {
		select {
		case conn := <-w.links:
			if ab, ok := conn.(interface{ Abandoned() bool }); ok && ab.Abandoned() {
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
		conn, err := n.relayCli.DialPurpose(peerID, relay.PurposeService, timeout, nil)
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
// service link; it doubles as a liveness check.
func (n *Node) Ping(peerName string) (time.Duration, error) {
	sl, err := n.serviceLinkTo(peerName)
	if err != nil {
		return 0, err
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	start := time.Now()
	if err := sl.w.WriteFrame(wire.KindControl, opPing, nil); err != nil {
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
	return time.Since(start), nil
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
			err = n.handleConnect(conn, w, f.Payload)
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
// anything else is done with the request; profile, first and splice are
// what the acceptor's establishments of this connect race with. The port
// type crosses as a digest: the acceptor only tests it for equality with
// its own port's, and a stack string may hold a psk= passphrase.
type connectRequest struct {
	portName   string
	typeDigest [sha256.Size]byte
	sender     ipl.Identifier
	profile    estab.Profile
	first      estab.Method
	splice     []emunet.Endpoint // one predicted endpoint per establishment
}

// portTypeDigest is SHA-256 over string name ‖ string stack.
func portTypeDigest(pt ipl.PortType) [sha256.Size]byte {
	return sha256.Sum256(wire.AppendString(wire.AppendString(nil, pt.Name), pt.Stack))
}

// establishments is how many establishments building stack runs: the
// product of its multi layers' streams, capped at multi.MaxStreams.
func establishments(stack driver.Stack) int {
	n := 1
	for _, s := range stack {
		if s.Name == multi.Name {
			n = min(n*min(max(s.IntParam("streams", multi.DefaultStreams), 1), multi.MaxStreams), multi.MaxStreams)
		}
	}
	return n
}

func encodeConnectRequest(req connectRequest) []byte {
	var b []byte
	b = wire.AppendString(b, req.portName)
	b = wire.AppendBytes(b, req.typeDigest[:])
	b = wire.AppendString(b, req.sender.Name)
	b = wire.AppendString(b, req.sender.Pool)
	b = append(wire.AppendBytes(b, req.profile.Encode()), byte(req.first))
	return estab.AppendEndpoints(b, req.splice)
}

func decodeConnectRequest(p []byte) (connectRequest, error) {
	d := wire.NewDecoder(p)
	var req connectRequest
	req.portName = d.String()
	digest := d.Bytes()
	req.sender.Name = d.String()
	req.sender.Pool = d.String()
	profile := d.Bytes()
	req.first = estab.Method(d.Byte())
	splice, err := estab.ReadEndpoints(d, multi.MaxStreams)
	if err != nil || d.Remaining() != 0 || len(digest) != len(req.typeDigest) || req.first > estab.Routed {
		return connectRequest{}, errors.New("core: corrupt connect request")
	}
	copy(req.typeDigest[:], digest)
	req.splice = splice
	req.profile, err = estab.DecodeProfile(profile)
	return req, err
}

// encodeConnectReply is the opConnectOK payload: the acceptor's profile,
// and its splice endpoints when splicing is a candidate.
func encodeConnectReply(profile estab.Profile, splice []emunet.Endpoint) []byte {
	return estab.AppendEndpoints(wire.AppendBytes(nil, profile.Encode()), splice)
}

// decodeConnectReply accepts one encoding: what encodeConnectReply makes
// of the result (no trailing bytes, no varint that is not minimal).
func decodeConnectReply(p []byte) (profile estab.Profile, splice []emunet.Endpoint, err error) {
	d := wire.NewDecoder(p)
	enc := d.Bytes()
	if splice, err = estab.ReadEndpoints(d, multi.MaxStreams); err == nil {
		profile, err = estab.DecodeProfile(enc)
	}
	if err != nil || !bytes.Equal(encodeConnectReply(profile, splice), p) {
		return estab.Profile{}, nil, errors.New("core: corrupt connect reply")
	}
	return profile, splice, nil
}

// handleConnect processes one data-link establishment request on the
// accepting side: validate the sender and the target port, acknowledge
// with this node's profile, then establish as many connections as the
// driver stack needs and build its input side.
func (n *Node) handleConnect(conn net.Conn, w *wire.Writer, payload []byte) error {
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
	count := establishments(stack) // equal digests: the initiator's count too
	if len(req.splice) != count {
		return reject(fmt.Sprintf("%d splice endpoints for a stack of %d establishments", len(req.splice), count))
	}
	local := n.connector.Profile()
	var ports []int
	var predicted []emunet.Endpoint
	if n.connector.Splices(req.profile, local) {
		ports, predicted = n.connector.ReserveSplice(count)
	}
	if err := w.WriteFrame(wire.KindControl, opConnectOK, encodeConnectReply(local, predicted)); err != nil {
		return err
	}

	// Build the input side of the driver stack; every Accept call runs
	// one brokered establishment over a mux conversation of this service
	// link, mirroring (and overlapping with) the Dial calls the
	// initiator makes concurrently on its side. Each starts every
	// candidate's half at once, so what the acceptor does first (its
	// listening endpoint, its splice request, or its routed open when
	// routed leads) follows the reply above back to back.
	mux := estab.NewServiceMux(conn, count, estab.Splice{Ports: ports, Peer: req.splice})
	env := &driver.Env{
		Accept: func() (net.Conn, error) {
			dataConn, _, err := n.connector.EstablishAcceptor(mux.Open(), req.profile, req.first)
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
