package relay

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"netibis/internal/identity"
	"netibis/internal/wire"
)

// Client is a node's persistent attachment to a relay. It multiplexes
// any number of virtual links over the single underlying connection.
type Client struct {
	id   string
	auth *AuthConfig // security posture (nil: anonymous, plaintext links)

	wmu     sync.Mutex
	conn    net.Conn
	w       *wire.Writer
	linkHdr []byte // sendLink's header scratch (guarded by wmu)

	mu       sync.Mutex
	serverID string
	links    map[linkID]*routedConn
	accepts  chan *routedConn
	pending  map[linkID]*pendingDial
	nextChan uint64
	window   int // receive window advertised on new links
	closed   bool
	detached bool
	gen      int // incremented on every (re)attach; stale readLoops are ignored
	onDetach func(error)

	// Flow-control accounting across all links (see FlowStats). Updated
	// with single atomic adds; the blocked-writer clock is only read
	// when a write actually parks on an exhausted window, so the
	// uncontended write path performs no time calls.
	flowStalls       atomic.Int64
	flowBlockedNanos atomic.Int64
	flowCreditSent   atomic.Int64
}

// FlowStats is a snapshot of a client's flow-control counters, summed
// over all its routed links.
type FlowStats struct {
	// CreditStalls counts writes that had to park on an exhausted send
	// window before credit arrived.
	CreditStalls int64
	// BlockedWriter is the total time writers spent parked on exhausted
	// windows.
	BlockedWriter time.Duration
	// CreditFramesSent counts credit grants this client returned to its
	// peers' send windows.
	CreditFramesSent int64
}

// FlowStats reports the client's flow-control counters. Safe to call
// concurrently with link traffic; cheap enough to poll continuously.
func (c *Client) FlowStats() FlowStats {
	return FlowStats{
		CreditStalls:     c.flowStalls.Load(),
		BlockedWriter:    time.Duration(c.flowBlockedNanos.Load()),
		CreditFramesSent: c.flowCreditSent.Load(),
	}
}

// pendingDial is one open in flight: the waiter's channel plus the
// end-to-end key exchange state (nil when the link runs plaintext).
type pendingDial struct {
	ch    chan dialResult
	offer *identity.LinkOffer
	// canceled (guarded by Client.mu) is set by abandonDial: an OpenOK
	// being completed for this dial must not register its link, for
	// nobody is left to receive it.
	canceled bool
}

// dialResult is the outcome of an open: an established link or a typed
// refusal.
type dialResult struct {
	rc  *routedConn
	err error
}

// linkID identifies one virtual link from the local node's point of
// view. Channel numbers are allocated by the initiating (dialing) side,
// so two peers dialing each other may pick the same number; the outbound
// flag (true on the side that initiated) disambiguates.
type linkID struct {
	peer     string
	channel  uint64
	outbound bool
}

// Frame body role values: who sent this frame relative to the channel.
const (
	roleInitiator byte = 1
	roleAcceptor  byte = 0
)

// handshake performs the attach exchange on conn — including the
// authentication challenge/response when the relay demands it and auth
// provides an identity — and returns the framing objects plus the relay
// server's announced ID. The whole exchange is bounded by
// authHandshakeTimeout: until the relay answers (and, with a trust
// store, proves itself) it is just something that accepted a TCP
// connection.
//
//netibis:preauth
func handshake(conn net.Conn, nodeID string, auth *AuthConfig) (*wire.Writer, *wire.Reader, string, error) {
	conn.SetReadDeadline(time.Now().Add(authHandshakeTimeout))
	defer conn.SetReadDeadline(time.Time{})
	w := wire.NewWriter(conn)
	var ident *identity.Identity
	var clientNonce []byte
	if auth != nil && auth.Identity != nil {
		ident = auth.Identity
		var err error
		clientNonce, err = identity.NewNonce()
		if err != nil {
			return nil, nil, "", err
		}
	}
	body := appendAttachAuth(wire.AppendString(nil, nodeID), ident, clientNonce)
	if err := w.WriteFrame(KindAttach, 0, body); err != nil {
		return nil, nil, "", err
	}
	r := wire.NewReader(conn)
	challenged := false
	for {
		f, err := r.ReadFrame()
		if err != nil {
			return nil, nil, "", err
		}
		switch f.Kind {
		case KindChallenge:
			if challenged {
				return nil, nil, "", fmt.Errorf("relay: duplicate challenge")
			}
			challenged = true
			if err := clientAuthExchange(r, w, nodeID, auth, clientNonce, f); err != nil {
				return nil, nil, "", err
			}
		case KindAttachFail:
			d := wire.NewDecoder(f.Payload)
			code := d.Uvarint()
			msg := d.String()
			if d.Err() != nil {
				return nil, nil, "", fmt.Errorf("relay: attach rejected")
			}
			return nil, nil, "", fmt.Errorf("relay: attach rejected (%s): %w", msg, attachFailErr(code))
		case KindAttachOK:
			if auth != nil && auth.Trust != nil && !challenged {
				// Policy: with a trust store configured the relay must have
				// proven itself inside a challenge. An un-challenged accept
				// means an unauthenticated relay — fail closed rather than
				// route traffic through an unverified box.
				return nil, nil, "", fmt.Errorf("relay: relay did not authenticate: %w", identity.ErrAuthRequired)
			}
			serverID, err := parseAttachAck(f.Payload)
			if err != nil {
				return nil, nil, "", err
			}
			return w, r, serverID, nil
		default:
			return nil, nil, "", fmt.Errorf("relay: unexpected attach response kind %d", f.Kind)
		}
	}
}

// parseAttachAck decodes the attach ack: the relay's server ID (empty
// for a relay that has none set) and nothing else.
func parseAttachAck(payload []byte) (serverID string, err error) {
	d := wire.NewDecoder(payload)
	serverID = d.String()
	if d.Err() != nil || d.Remaining() != 0 {
		return "", fmt.Errorf("relay: malformed attach ack: %w", identity.ErrMalformed)
	}
	return serverID, nil
}

// probeTimeout bounds a single RTT probe: a relay that cannot echo a
// keep-alive within it is not a candidate worth waiting on.
const probeTimeout = 5 * time.Second

// ProbeRTT measures the round-trip time to a relay over an established
// but not yet attached connection, using the pre-attach keep-alive echo.
// The connection remains usable for a subsequent Attach. The probe is
// bounded by probeTimeout, so a black-holed relay yields an error
// instead of hanging relay selection.
//
//netibis:preauth
func ProbeRTT(conn net.Conn) (time.Duration, error) {
	w := wire.NewWriter(conn)
	r := wire.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(probeTimeout))
	defer conn.SetReadDeadline(time.Time{})
	start := time.Now()
	if err := w.WriteFrame(wire.KindKeepAlive, 0, nil); err != nil {
		return 0, err
	}
	for {
		f, err := r.ReadFrame()
		if err != nil {
			return 0, err
		}
		if f.Kind == wire.KindKeepAlive {
			return time.Since(start), nil
		}
	}
}

// Attach connects this node (with the given location-independent node
// ID) to the relay over an already established connection, anonymously
// and without end-to-end link sealing (see AttachAuth).
func Attach(conn net.Conn, nodeID string) (*Client, error) {
	return AttachAuth(conn, nodeID, nil)
}

// ID returns the node ID this client attached under.
func (c *Client) ID() string { return c.id }

// SetWindow changes the receive window advertised on links opened or
// accepted from now on (bytes; <= 0 restores DefaultWindowBytes).
// Existing links keep the window they were created with.
func (c *Client) SetWindow(bytes int) {
	if bytes <= 0 {
		bytes = DefaultWindowBytes
	}
	c.mu.Lock()
	c.window = bytes
	c.mu.Unlock()
}

func (c *Client) recvWindow() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.window
}

// ServerID returns the ID announced by the relay the client is currently
// attached to (empty for relays that have no ID set).
func (c *Client) ServerID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.serverID
}

// SetDetachHandler arms resumable mode: when the relay connection fails,
// the client keeps its virtual links and accept queue, fails only the
// dials in flight, and calls handler from a fresh goroutine instead of
// tearing everything down. The owner is expected to obtain a connection
// to a surviving relay and call Resume.
func (c *Client) SetDetachHandler(handler func(error)) {
	c.mu.Lock()
	c.onDetach = handler
	c.mu.Unlock()
}

// Detached reports whether the client currently has no relay connection.
func (c *Client) Detached() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.detached
}

// Resume re-attaches the client's node identity over a fresh connection
// to a relay (possibly a different member of the mesh than before).
// Virtual links opened before the detach remain valid: routing is by
// node ID, so once the mesh's directory learns the new home relay,
// frames flow again — including the close handshake of links the
// application shuts down after the failover. Frames sent while detached
// are lost, exactly as with a real TCP failure.
func (c *Client) Resume(conn net.Conn) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return ErrClosed
	}
	c.mu.Unlock()

	// The same handshake as the original attach, security included: a
	// failover onto a surviving relay re-authenticates the node there
	// (and re-verifies the relay) before any link state is resynced.
	w, r, serverID, err := handshake(conn, c.id, c.auth)
	if err != nil {
		conn.Close()
		return err
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return ErrClosed
	}
	c.gen++
	gen := c.gen
	c.serverID = serverID
	// Install the new connection before clearing the detached flag (both
	// under mu, the conn swap additionally under wmu): a concurrent send
	// that observes detached == false must already see the new writer.
	c.wmu.Lock()
	old := c.conn
	c.conn = conn
	c.w = w
	c.wmu.Unlock()
	c.detached = false
	c.mu.Unlock()

	if old != nil && old != conn {
		old.Close()
	}
	go c.readLoop(r, gen)

	// Frames in flight across the failure were lost — data and credit
	// grants alike. Left alone, that would wedge flow control on the
	// surviving links: our writers would wait forever on credit the old
	// relay swallowed, and the peers' writers on grants that never left.
	// Resync every link: lift our send windows back to the advertised
	// initial value and re-grant the peers our current free receive
	// space. Both are over-grants of at most one window (the in-flight
	// amount that was *not* lost), so a link's memory bound is 2x the
	// window transiently after a failover, never unbounded — and never a
	// deadlock.
	c.mu.Lock()
	links := make([]*routedConn, 0, len(c.links))
	for _, rc := range c.links {
		links = append(links, rc)
	}
	c.mu.Unlock()
	for _, rc := range links {
		rc.resyncAfterResume()
	}
	return nil
}

// Abandon gives up on resuming a detached client: the client is torn
// down exactly as a fatal connection failure would tear it down in
// non-resumable mode. The owner calls it when no relay of the mesh can
// be reached anymore.
func (c *Client) Abandon(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.detached = false // let fail run the full teardown
	c.mu.Unlock()
	c.fail(err)
}

func (c *Client) send(kind byte, payload []byte) error {
	c.mu.Lock()
	detached := c.detached
	c.mu.Unlock()
	if detached {
		return ErrDetached
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.w.WriteFrame(kind, 0, payload)
}

// sendLink sends one frame on an established link: the routing header,
// the from ‖ role prefix of every link frame and ext (a data frame's
// length, a credit grant; built on the caller's stack) are encoded into
// the client's scratch under the write lock, and data (an application
// Write in flight) rides as a second vector. A small frame leaves as a
// single conn write; above the wire layer's coalescing threshold the
// data bytes are never assembled into an intermediate body buffer.
// Nothing is allocated.
func (c *Client) sendLink(kind byte, peer string, channel uint64, role byte, ext, data []byte) error {
	c.mu.Lock()
	detached := c.detached
	c.mu.Unlock()
	if detached {
		return ErrDetached
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	hdr := wire.AppendString(c.linkHdr[:0], peer)
	hdr = wire.AppendUvarint(hdr, channel)
	hdr = wire.AppendString(hdr, c.id)
	hdr = wire.AppendUvarint(hdr, uint64(role))
	hdr = append(hdr, ext...)
	c.linkHdr = hdr
	return c.w.WriteFrameBatch([]wire.BatchFrame{{Kind: kind, Hdr: hdr, Payload: data}})
}

// Close detaches from the relay; all virtual links are torn down.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	links := make([]*routedConn, 0, len(c.links))
	for _, l := range c.links {
		links = append(links, l)
	}
	c.mu.Unlock()
	for _, l := range links {
		l.discard(ErrClosed)
	}
	c.send(wire.KindClose, nil)
	close(c.accepts)
	c.wmu.Lock()
	conn := c.conn
	c.wmu.Unlock()
	return conn.Close()
}

// Dial opens a routed virtual link to the node attached under peerID.
func (c *Client) Dial(peerID string, timeout time.Duration) (net.Conn, error) {
	return c.DialCancel(peerID, timeout, nil)
}

// DialCancel is Dial with a cancellation channel: when cancel fires
// before the peer answers, the open is withdrawn, an abandon frame is
// sent so the far side discards any link it may already have accepted,
// and ErrDialCanceled is returned. The racing establishment layer uses
// it to call off an in-flight routed open the moment another method
// wins.
func (c *Client) DialCancel(peerID string, timeout time.Duration, cancel <-chan struct{}) (net.Conn, error) {
	return c.DialPurpose(peerID, 0, timeout, cancel)
}

// DialPurpose is DialCancel for an open that ends in a purpose byte
// (PurposeService, PurposeData; 0 for none), which the accepting side
// reads off the link it accepts.
func (c *Client) DialPurpose(peerID string, purpose byte, timeout time.Duration, cancel <-chan struct{}) (net.Conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if c.detached {
		c.mu.Unlock()
		return nil, ErrDetached
	}
	c.nextChan++
	ch := c.nextChan
	key := linkID{peer: peerID, channel: ch, outbound: true}
	pd := &pendingDial{ch: make(chan dialResult, 1)}
	c.mu.Unlock()

	// End-to-end security: when armed, every open carries an
	// identity-signed X25519 offer. Relays forward the open body
	// opaquely; only the destination node can answer it.
	var offerBlob []byte // empty: no offer, the link runs plaintext
	if c.auth.e2eCapable() {
		offer, err := identity.OfferLink(c.auth.Identity, c.id, peerID, ch)
		if err != nil {
			return nil, err
		}
		pd.offer = offer
		offerBlob = offer.Blob()
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.pending[key] = pd
	c.mu.Unlock()

	// The body tells the peer who we are, our receive window (the credit
	// it starts with for sends towards us), our e2e offer and the link's
	// purpose, if any.
	body := appendOpenBody(nil, c.id, c.recvWindow(), offerBlob)
	if purpose != 0 {
		body = append(body, purpose)
	}
	if err := c.send(KindOpen, AppendRouted(nil, peerID, ch, body)); err != nil {
		c.mu.Lock()
		delete(c.pending, key)
		c.mu.Unlock()
		return nil, err
	}
	select {
	case res := <-pd.ch:
		if res.err != nil {
			return nil, res.err
		}
		return res.rc, nil
	case <-cancel: // nil cancel blocks forever, i.e. never fires
		return nil, c.abandonDial(key, pd)
	case <-time.After(timeout):
		c.mu.Lock()
		delete(c.pending, key)
		c.mu.Unlock()
		return nil, ErrUnknownPeer
	}
}

// abandonDial withdraws a canceled open. The OpenOK may already have
// crossed (the dispatch loop registers the link before handing it to the
// waiter), so both outcomes are covered: a link that materialised is
// aborted with the abandon handshake, a still-pending open gets a bare
// abandon frame so the peer's accepted half is discarded when (if) its
// OpenOK arrives at a dead letter box.
func (c *Client) abandonDial(key linkID, pd *pendingDial) error {
	c.mu.Lock()
	delete(c.pending, key)
	// Dispatch may hold the waiter already, between taking it off
	// pending and registering the link: tell it not to.
	pd.canceled = true
	rc := c.links[key]
	c.mu.Unlock()
	if rc == nil {
		// Dispatch may have grabbed the waiter just before we deleted it.
		select {
		case res := <-pd.ch:
			rc = res.rc
		default:
		}
	}
	if rc != nil {
		rc.Abort()
		return ErrDialCanceled
	}
	c.abandonLink(key.peer, key.channel, roleInitiator)
	return ErrDialCanceled
}

// Accept returns the next incoming routed virtual link.
func (c *Client) Accept() (net.Conn, error) {
	rc, ok := <-c.accepts
	if !ok {
		return nil, ErrClosed
	}
	return rc, nil
}

// readLoop demultiplexes frames arriving from the relay. Each frame is
// read into a pooled buffer that dispatch borrows and readLoop releases;
// a data frame's link retains the buffer and its reader copies the
// payload out of it, once, into the caller's slice.
func (c *Client) readLoop(r *wire.Reader, gen int) {
	for {
		kind, _, b, err := r.ReadFrameBuf()
		if err != nil {
			c.disconnected(err, gen)
			return
		}
		c.dispatch(kind, b)
		b.Release()
	}
}

// dispatch handles one frame from the relay, parsed in place. It borrows
// b: a link that keeps the payload retains b itself.
func (c *Client) dispatch(kind byte, b *wire.Buf) {
	_, channel, body, ok := ParseRouted(b.Bytes())
	if !ok {
		return
	}
	switch kind {
	case KindOpen:
		c.handleOpen(channel, body)
	case KindOpenOK:
		c.handleOpenOK(channel, body)
	case KindOpenFail:
		c.handleOpenFail(channel)
	case KindData:
		c.handleData(channel, body, b)
	case KindCredit:
		c.handleCredit(channel, body)
	case KindShut:
		c.handleShut(channel, body)
	case KindAbandon:
		c.handleAbandon(channel, body)
	}
}

// handleOpen accepts (or refuses) an incoming virtual link. The body
// carries the originator's node ID, its receive window — our initial send
// credit on this link, so the link is usable the moment it is accepted —
// its signed e2e link offer and the link's purpose, if any.
func (c *Client) handleOpen(channel uint64, body []byte) {
	from, peerWindow, offerBlob, purpose, err := decodeOpenBody(body)
	if err != nil {
		if from != "" {
			c.send(KindOpenFail, AppendRouted(nil, from, channel, nil))
		}
		return
	}
	var keys *identity.LinkKeys
	var answer []byte
	if len(offerBlob) > 0 && c.auth.e2eCapable() {
		k, a, err := identity.AcceptLink(c.auth.Identity, c.auth.Trust, from, c.id, channel, offerBlob)
		if err != nil {
			// An offer we cannot verify (untrusted initiator, forged
			// signature, spoofed "from"): refuse rather than silently
			// fall back to plaintext with an unverified peer.
			c.send(KindOpenFail, AppendRouted(nil, from, channel, nil))
			return
		}
		keys, answer = k, a
	} else if c.auth != nil && c.auth.RequireE2E {
		// Sealing is mandatory here but the open carries no usable
		// offer (an anonymous peer, or the offer was stripped in
		// transit): fail closed.
		c.send(KindOpenFail, AppendRouted(nil, from, channel, nil))
		return
	}
	key := linkID{peer: from, channel: channel, outbound: false}
	rc := newRoutedConn(c, from, channel, false, peerWindow, c.recvWindow())
	rc.keys, rc.purpose = keys, purpose
	c.mu.Lock()
	closed := c.closed
	if !closed {
		c.links[key] = rc
	}
	c.mu.Unlock()
	if closed {
		return
	}
	// Acknowledge and deliver to Accept. The send into accepts is
	// flag-guarded under mu: Close/fail set closed under mu before
	// closing the channel, so a sender either completes first or
	// observes closed — never a send on a closed channel.
	ack := appendOpenBody(nil, c.id, rc.recvWindow, answer)
	c.send(KindOpenOK, AppendRouted(nil, from, channel, ack))
	delivered := false
	c.mu.Lock()
	if !c.closed {
		select {
		case c.accepts <- rc:
			delivered = true
		default:
		}
	}
	c.mu.Unlock()
	if !delivered {
		// Backlog full (or closing): refuse.
		c.send(KindOpenFail, AppendRouted(nil, from, channel, nil))
		c.dropLink(key)
	}
}

// handleOpenOK completes a dial: the body mirrors the open's, with the
// acceptor's window and its e2e answer, and no purpose.
func (c *Client) handleOpenOK(channel uint64, body []byte) {
	from, peerWindow, answerBlob, purpose, bodyErr := decodeOpenBody(body)
	if purpose != 0 {
		bodyErr = identity.ErrMalformed
	}
	if from == "" {
		return
	}
	key := linkID{peer: from, channel: channel, outbound: true}
	c.mu.Lock()
	pd := c.pending[key]
	delete(c.pending, key)
	c.mu.Unlock()
	if pd == nil {
		return
	}
	if bodyErr != nil {
		c.abandonLink(from, channel, roleInitiator)
		pd.ch <- dialResult{err: fmt.Errorf("relay: malformed open-OK from %s#%d: %w", from, channel, bodyErr)}
		return
	}
	var keys *identity.LinkKeys
	if pd.offer != nil {
		if len(answerBlob) == 0 {
			// We offered the secure capability and the answer came back
			// without it: an acceptor that cannot seal, or a stripped
			// exchange.
			if c.auth != nil && c.auth.RequireE2E {
				c.abandonLink(from, channel, roleInitiator)
				pd.ch <- dialResult{err: fmt.Errorf("relay: open %s#%d answered without the secure capability: %w",
					from, channel, identity.ErrDowngraded)}
				return
			}
			// Plaintext fallback permitted by policy.
		} else {
			k, err := pd.offer.CompleteLink(c.auth.Trust, answerBlob)
			if err != nil {
				// Unverifiable answer: tear the far half down and fail
				// the dial with the precise reason.
				c.abandonLink(from, channel, roleInitiator)
				pd.ch <- dialResult{err: fmt.Errorf("relay: link key exchange with %s failed: %w", from, err)}
				return
			}
			keys = k
		}
	}
	c.mu.Lock()
	var rc *routedConn
	if !c.closed && !pd.canceled {
		// c.mu is held: read the window field directly.
		rc = newRoutedConn(c, from, channel, true, peerWindow, c.window)
		rc.keys = keys
		c.links[key] = rc
	}
	c.mu.Unlock()
	if rc == nil {
		// Closed, or canceled while the answer was being verified:
		// abandonDial has told the peer, and its waiter is gone.
		pd.ch <- dialResult{err: ErrClosed}
		return
	}
	pd.ch <- dialResult{rc: rc}
}

// handleOpenFail fails the dials pending on channel: either a dial
// failure or a refused accept.
func (c *Client) handleOpenFail(channel uint64) {
	c.mu.Lock()
	var failed []*pendingDial
	for key, pd := range c.pending {
		if key.channel == channel {
			failed = append(failed, pd)
			delete(c.pending, key)
		}
	}
	c.mu.Unlock()
	for _, pd := range failed {
		pd.ch <- dialResult{err: ErrRefused}
	}
}

// linkFrame decodes the from ‖ role prefix that leads the body of every
// frame sent on an established link and resolves the link it names (nil
// when there is none, or when the prefix does not decode — d.Err reports
// that). A frame sent by the channel's initiator belongs to a link we
// accepted, and vice versa. from aliases the frame and the lookup
// converts nothing, so a data frame costs no allocation. d is the
// caller's, so that it stays on the caller's stack, and is left
// positioned after the prefix.
func (c *Client) linkFrame(channel uint64, d *wire.Decoder) (from []byte, outbound bool, rc *routedConn) {
	from = d.Bytes()
	outbound = byte(d.Uvarint()) == roleAcceptor
	if d.Err() != nil {
		return nil, false, nil
	}
	c.mu.Lock()
	rc = c.links[linkID{peer: string(from), channel: channel, outbound: outbound}]
	c.mu.Unlock()
	return from, outbound, rc
}

// handleData queues a data frame on its link; b is the frame's buffer,
// which body aliases (see routedConn.deliver).
func (c *Client) handleData(channel uint64, body []byte, b *wire.Buf) {
	d := wire.NewDecoder(body)
	_, _, rc := c.linkFrame(channel, d)
	data := d.Bytes()
	if rc == nil || d.Err() != nil || d.Remaining() != 0 {
		return
	}
	rc.deliver(data, b)
}

// handleCredit: the peer's reader drained bytes and returns them to our
// send window.
func (c *Client) handleCredit(channel uint64, body []byte) {
	d := wire.NewDecoder(body)
	_, _, rc := c.linkFrame(channel, d)
	amount := d.Uvarint()
	if rc == nil || d.Err() != nil || d.Remaining() != 0 {
		return
	}
	rc.addCredit(int(amount))
}

func (c *Client) handleShut(channel uint64, body []byte) {
	d := wire.NewDecoder(body)
	_, _, rc := c.linkFrame(channel, d)
	if rc == nil || d.Err() != nil || d.Remaining() != 0 {
		return
	}
	rc.peerClosed()
}

// handleAbandon: the peer discarded the link (it lost an establishment
// race). Unlike KindShut this is not a half-close: the link is removed
// entirely and marked abandoned, so a consumer that finds it in an accept
// queue knows to skip it rather than use a dead conn.
func (c *Client) handleAbandon(channel uint64, body []byte) {
	d := wire.NewDecoder(body)
	from, outbound, rc := c.linkFrame(channel, d)
	if d.Err() != nil || d.Remaining() != 0 {
		return
	}
	key := linkID{peer: string(from), channel: channel, outbound: outbound}
	c.mu.Lock()
	delete(c.links, key)
	// An abandon can also cross an OpenOK still in flight the other
	// way; fail the pending dial like a refusal.
	var failed []*pendingDial
	for pkey, pd := range c.pending {
		if pkey.peer == key.peer && pkey.channel == channel {
			failed = append(failed, pd)
			delete(c.pending, pkey)
		}
	}
	c.mu.Unlock()
	if rc != nil {
		rc.closeWithError(ErrAbandoned)
	}
	for _, pd := range failed {
		pd.ch <- dialResult{err: ErrRefused}
	}
}

// disconnected handles a read-loop failure: in resumable mode the client
// parks itself in the detached state, otherwise it tears down.
func (c *Client) disconnected(err error, gen int) {
	c.mu.Lock()
	if c.closed || gen != c.gen {
		c.mu.Unlock()
		return
	}
	handler := c.onDetach
	if handler == nil {
		c.mu.Unlock()
		c.fail(err)
		return
	}
	c.detached = true
	// Dials in flight cannot complete; links and the accept queue are
	// kept for Resume.
	pend := c.pending
	c.pending = make(map[linkID]*pendingDial)
	c.mu.Unlock()
	for _, pd := range pend {
		pd.ch <- dialResult{err: ErrRefused}
	}
	go handler(err)
}

func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	links := make([]*routedConn, 0, len(c.links))
	for _, l := range c.links {
		links = append(links, l)
	}
	pend := c.pending
	c.pending = make(map[linkID]*pendingDial)
	c.mu.Unlock()
	for _, l := range links {
		l.closeWithError(err)
	}
	for _, pd := range pend {
		pd.ch <- dialResult{err: ErrRefused}
	}
	close(c.accepts)
}

func (c *Client) dropLink(key linkID) {
	c.mu.Lock()
	delete(c.links, key)
	c.mu.Unlock()
}

// abandonLink sends an abandon frame for a link that never became usable
// locally (a failed end-to-end key exchange, a canceled dial) or lost an
// establishment race, telling the peer to discard its half rather than
// hold a half-open conn.
func (c *Client) abandonLink(peer string, channel uint64, role byte) {
	c.sendLink(KindAbandon, peer, channel, role, nil, nil)
}

// LinkCount reports the number of currently open virtual links.
// Diagnostics: the lost-race cleanup tests assert that abandoned links
// do not linger after an establishment race has settled.
func (c *Client) LinkCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.links)
}
