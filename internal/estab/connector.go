package estab

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"time"

	"netibis/internal/emunet"
	"netibis/internal/obs"
	"netibis/internal/relay"
	"netibis/internal/socks"
	"netibis/internal/wire"
)

// Brokering protocol message types, the type byte of a ServiceMux message
// (mux.go). The order is part of the decoder: the type below msgAbort
// belongs to a method's conversation, the election above it is the
// initiator's control message (method 0), and msgAbort is both — under a
// method it calls that attempt off, under method 0 the establishment.
// Splicing and routed say nothing on the service link: both endpoints
// ride in the connect exchange, and the acceptor opens routed unasked.
const (
	msgListen byte = iota + 1 // "I am listening at this endpoint, dial me"
	msgAbort                  // failed on my side (empty)
	msgElect                  // the race's winner, one method byte (MethodNone: nothing won, the establishment is over)
)

// DefaultSpliceTimeout bounds how long a simultaneous open waits for the
// peer's connection request when Connector.SpliceTimeout is not positive.
const DefaultSpliceTimeout = 2 * time.Second

// DefaultAcceptTimeout bounds how long the waiting side of a brokered
// establishment — a listener, or the initiator of a routed one — waits
// for its peer when Connector.AcceptTimeout is not positive.
const DefaultAcceptTimeout = 10 * time.Second

// routedRetryDelay spaces the retries of a refused cross-relay routed
// open while directory gossip propagates through the relay mesh.
const routedRetryDelay = 20 * time.Millisecond

// RetryRoutedDial opens a routed link via dial, retrying refusals and
// detachments until the timeout expires. On a relay mesh a refusal can
// mean "the directory gossip announcing the peer is still in flight"
// and a detachment "my relay attachment is being resumed", so both are
// worth a bounded wait; every other error is final. done, when non-nil,
// aborts the wait early (e.g. the owning node closing, or the
// establishment race being lost).
func RetryRoutedDial(dial func(peerID string, timeout time.Duration) (net.Conn, error), peerID string, timeout time.Duration, done <-chan struct{}) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	for {
		conn, err := dial(peerID, time.Until(deadline))
		if err == nil {
			return conn, nil
		}
		if !errors.Is(err, relay.ErrRefused) && !errors.Is(err, relay.ErrDetached) {
			return nil, err
		}
		if time.Until(deadline) < routedRetryDelay {
			return nil, err
		}
		select {
		case <-done: // nil done blocks here forever, i.e. never fires
			return nil, err
		case <-time.After(routedRetryDelay):
		}
	}
}

// Errors.
var (
	// ErrAborted is returned when the initiator gave the establishment
	// up.
	ErrAborted = errors.New("estab: peer aborted connection establishment")
	// ErrProtocol is returned on an unexpected brokering message.
	ErrProtocol = errors.New("estab: brokering protocol error")
	// ErrNoRelay is returned when the routed method is selected but no
	// relay client is configured.
	ErrNoRelay = errors.New("estab: routed method selected but no relay attached")
	// ErrNoProxy is returned when the proxy method is selected but no
	// SOCKS proxy is configured.
	ErrNoProxy = errors.New("estab: proxy method selected but no SOCKS proxy configured")
	// errRaceLost is returned inside a losing method attempt when the
	// race controller cancels it; it never escapes to callers.
	errRaceLost = errors.New("estab: establishment attempt canceled (lost the race)")
)

// Connector is the socket-factory side of one endpoint: it knows the
// endpoint's host, its optional relay attachment and its optional SOCKS
// proxy, and it establishes data links to peers by negotiating over a
// service link (the paper's brokered factory; its bootstrap factory is
// a plain Host.Dial to a public gateway).
type Connector struct {
	// Host is the endpoint's machine in the emulated internetwork.
	Host *emunet.Host
	// Relay is the endpoint's attachment to the routed-messages relay
	// (may be nil when no relay is deployed).
	Relay *relay.Client
	// ProxyAddr is the endpoint's SOCKS proxy, if any.
	ProxyAddr emunet.Endpoint
	// ProxyCreds are optional SOCKS credentials.
	ProxyCreds *socks.Credentials
	// SpliceTimeout bounds the initiator's simultaneous open (the
	// acceptor's waits like a listener); zero or negative: the default.
	SpliceTimeout time.Duration
	// AcceptTimeout bounds the waiting side of brokered establishments
	// (for the peer's connection, proxy CONNECT or routed open); zero (or
	// negative) selects DefaultAcceptTimeout, as for SpliceTimeout.
	AcceptTimeout time.Duration
	// RaceStagger is the delay between launching successive candidate
	// methods of a racing establishment: the preferred method gets a
	// head start of one stagger per precedence rank before the next
	// candidate is tried concurrently. Zero derives it from the service
	// link (one EstablishOpts.ServiceRTT, at least MinRaceStagger;
	// DefaultRaceStagger when nothing was measured); a negative value
	// launches all candidates at once (no head starts). A stagger longer
	// than every method timeout is the strict one-method-at-a-time
	// decision tree: the next candidate starts only once every launched
	// one has failed. Only the initiator's value matters.
	RaceStagger time.Duration
	// Cache, when non-nil, remembers the winning method per peer so a
	// reconnect can skip the race (see Cache). It is consulted and
	// updated only when EstablishOpts.PeerKey identifies the peer.
	Cache *Cache
	// AcceptRouted obtains the routed link the acceptor opened to the
	// initiator for the establishment conv (its Conversation's number),
	// which the routed method's initiator needs (the integration layer
	// multiplexes a single relay attachment between many concurrent
	// establishments, and skips links their acceptor abandoned). cancel,
	// when it fires, means the establishment raced and lost: the wait
	// must end promptly.
	AcceptRouted func(peerID string, conv uint64, timeout time.Duration, cancel <-chan struct{}) (net.Conn, error)
	// ForcedMethod, when non-zero, skips the decision tree and forces a
	// specific method; used by benchmarks and ablation experiments.
	ForcedMethod Method
	// Metrics, when non-nil, collects establishment outcomes, cache
	// effectiveness and latency on the initiator side (see Metrics).
	Metrics *Metrics
	// Trace, when non-nil, records establishment wins and failures as
	// trace-ring events (one per establishment, never per frame).
	Trace *obs.Trace
}

// Profile reports this endpoint's connectivity profile.
func (c *Connector) Profile() Profile {
	topo := c.Host.Topology()
	p := Profile{
		SiteName:    topo.SiteName,
		Firewalled:  topo.Firewalled,
		Strict:      topo.StrictFirewall,
		NAT:         topo.NAT,
		PrivateAddr: topo.PrivateAddr,
		Addr:        c.Host.Address(),
		PublicAddr:  topo.PublicAddr,
		HasProxy:    !c.ProxyAddr.IsZero(),
	}
	if c.Relay != nil {
		p.HasRelay = true
		p.RelayID = c.Relay.ID()
		p.HomeRelay = c.Relay.ServerID()
	}
	return p
}

func (c *Connector) spliceTimeout() time.Duration {
	if c.SpliceTimeout > 0 {
		return c.SpliceTimeout
	}
	return DefaultSpliceTimeout
}

// ResolvedAcceptTimeout is AcceptTimeout under its zero-value rule.
func (c *Connector) ResolvedAcceptTimeout() time.Duration {
	if c.AcceptTimeout > 0 {
		return c.AcceptTimeout
	}
	return DefaultAcceptTimeout
}

// --- brokered factory ---------------------------------------------------------------

// EstablishOpts carries per-peer context into EstablishInitiator.
type EstablishOpts struct {
	// PeerKey is a stable identifier for the peer endpoint (the
	// integration layer uses the peer's relay node ID). When non-empty,
	// the connectivity cache is consulted before racing and updated with
	// the winner afterwards.
	PeerKey string
	// ServiceRTT is a round trip over the service link as the caller just
	// measured it (the integration layer times its connect request and
	// the reply); zero when nothing was measured. While
	// Connector.RaceStagger is zero it is the race's head start per tier
	// (at least MinRaceStagger).
	ServiceRTT time.Duration
}

// runMethod runs one establishment method's conversation over b. cancel,
// when it fires, means the attempt lost the race and must wind down
// promptly.
func (c *Connector) runMethod(b methodConv, local, remote Profile, initiator bool, cancel <-chan struct{}) (net.Conn, error) {
	switch b.m {
	case ClientServer:
		return c.establishClientServer(b, local, remote, initiator, cancel)
	case Splicing:
		return c.establishSplicing(b, initiator, cancel)
	case Proxy:
		return c.establishProxy(b, local, remote, cancel)
	case Routed:
		return c.establishRouted(b, remote, initiator, cancel)
	default:
		return nil, ErrNoMethod
	}
}

// establishClientServer: the dialable side listens on a fresh port and
// advertises it; the other side dials. Which side listens is decided
// deterministically from the two profiles, so no extra negotiation is
// needed.
func (c *Connector) establishClientServer(b methodConv, local, remote Profile, initiator bool, cancel <-chan struct{}) (net.Conn, error) {
	// Prefer the acceptor as the listening side (matching the IPL's
	// receive-port-listens convention) but fall back to whichever
	// direction is dialable: the acceptor listens when the initiator can
	// dial it.
	localListens := canDialDirect(remote, local)
	if initiator {
		localListens = !canDialDirect(local, remote)
	}
	if localListens {
		return c.listenAndAccept(b, cancel)
	}

	// Dialing side: wait for the peer's listen announcement.
	ep, err := recvEndpoint(b, msgListen)
	if err != nil {
		return nil, err
	}
	conn, err := c.Host.Dial(ep)
	if err != nil {
		// Let the listening side give up instead of waiting out its
		// accept timeout.
		b.send(msgAbort, nil)
		return nil, err
	}
	return conn, nil
}

// establishSplicing: each side dials from its port for this conversation
// to the peer's prediction, both from the connect request and reply, so
// the acceptor's offer goes out right behind its reply, without a message.
func (c *Connector) establishSplicing(b methodConv, initiator bool, cancel <-chan struct{}) (net.Conn, error) {
	s, k := b.cv.m.splice, b.cv.id
	if k >= uint64(min(len(s.Ports), len(s.Peer))) {
		return nil, fmt.Errorf("%w: no splice endpoints for establishment %d", ErrProtocol, k)
	}
	timeout := c.spliceTimeout()
	if !initiator {
		timeout = c.ResolvedAcceptTimeout()
	}
	return c.Host.SpliceDialCancel(s.Ports[k], s.Peer[k], timeout, cancel)
}

// ReserveSplice reserves a splice port for each of a connect's n
// establishments and predicts its external endpoint.
func (c *Connector) ReserveSplice(n int) ([]int, []emunet.Endpoint) {
	ports, predicted := make([]int, n), make([]emunet.Endpoint, n)
	for i := range ports {
		ports[i] = c.Host.AllocatePort()
		predicted[i] = c.Host.PredictExternalEndpoint(ports[i])
	}
	return ports, predicted
}

// Splices reports whether splicing is a candidate for the two profiles,
// and so whether the connect reply carries splice endpoints.
func (c *Connector) Splices(initiator, acceptor Profile) bool {
	return slices.Contains(c.candidates(initiator, acceptor), Splicing)
}

// establishProxy: the side with a SOCKS proxy dials out through it; the
// reachable side listens and advertises its endpoint.
func (c *Connector) establishProxy(b methodConv, local, remote Profile, cancel <-chan struct{}) (net.Conn, error) {
	if local.HasProxy && remote.Reachable() {
		// Wait for the peer's listener endpoint, then CONNECT to it.
		ep, err := recvEndpoint(b, msgListen)
		if err != nil {
			return nil, err
		}
		if c.ProxyAddr.IsZero() {
			b.send(msgAbort, nil)
			return nil, ErrNoProxy
		}
		proxyConn, err := c.Host.Dial(c.ProxyAddr)
		if err != nil {
			b.send(msgAbort, nil)
			return nil, err
		}
		if err := socks.Connect(proxyConn, string(ep.Addr), ep.Port, c.ProxyCreds); err != nil {
			proxyConn.Close()
			b.send(msgAbort, nil)
			return nil, err
		}
		return proxyConn, nil
	}
	return c.listenAndAccept(b, cancel)
}

// appendEndpoint appends string addr ‖ uvarint port.
func appendEndpoint(b []byte, ep emunet.Endpoint) []byte {
	return wire.AppendUvarint(wire.AppendString(b, string(ep.Addr)), uint64(ep.Port))
}

// readEndpoint reads one endpoint; a port that is not one is ErrProtocol.
func readEndpoint(d *wire.Decoder) (emunet.Endpoint, error) {
	addr, port := d.String(), d.Uvarint()
	if d.Err() != nil || port > 65535 {
		return emunet.Endpoint{}, fmt.Errorf("%w: malformed endpoint", ErrProtocol)
	}
	return emunet.Endpoint{Addr: emunet.Address(addr), Port: int(port)}, nil
}

// AppendEndpoints appends a splice endpoint list: uvarint n ‖ n endpoints.
func AppendEndpoints(b []byte, eps []emunet.Endpoint) []byte {
	b = wire.AppendUvarint(b, uint64(len(eps)))
	for _, ep := range eps {
		b = appendEndpoint(b, ep)
	}
	return b
}

// ReadEndpoints reads a list of at most limit (nil when empty).
func ReadEndpoints(d *wire.Decoder, limit int) ([]emunet.Endpoint, error) {
	n := d.Uvarint()
	if d.Err() != nil || n > uint64(limit) {
		return nil, fmt.Errorf("%w: malformed splice endpoint list", ErrProtocol)
	}
	var eps []emunet.Endpoint
	for ; n > 0; n-- {
		ep, err := readEndpoint(d)
		if err != nil {
			return nil, err
		}
		eps = append(eps, ep)
	}
	return eps, nil
}

// recvEndpoint waits for the peer's announcement of the given type (the
// peer's abort cancels the attempt, which fails the wait). Any other
// message, a truncated body, trailing bytes or a port that is not one are
// ErrProtocol.
func recvEndpoint(b methodConv, want byte) (emunet.Endpoint, error) {
	t, body, err := b.recv()
	if err != nil {
		return emunet.Endpoint{}, err
	}
	if t != want {
		return emunet.Endpoint{}, fmt.Errorf("%w: expected message %d, got %d", ErrProtocol, want, t)
	}
	return decodeEndpoint(body)
}

func decodeEndpoint(body []byte) (emunet.Endpoint, error) {
	d := wire.NewDecoder(body)
	ep, err := readEndpoint(d)
	if err == nil && d.Remaining() != 0 {
		err = fmt.Errorf("%w: trailing bytes behind an endpoint", ErrProtocol)
	}
	return ep, err
}

// listenAndAccept is the listening half of a client/server or proxy
// establishment: listen on a fresh port, advertise it, wait for the peer.
func (c *Connector) listenAndAccept(b methodConv, cancel <-chan struct{}) (net.Conn, error) {
	l, err := c.Host.Listen(0)
	if err != nil {
		b.send(msgAbort, nil)
		return nil, err
	}
	defer l.Close()
	if err := b.send(msgListen, appendEndpoint(nil, emunet.Endpoint{Addr: c.Host.Address(), Port: l.Port()})); err != nil {
		return nil, err
	}
	return acceptWithTimeout(l, c.ResolvedAcceptTimeout(), cancel)
}

// establishRouted: the acceptor opens a routed data link for this
// establishment through the relay the moment it starts, right behind its
// connect reply, and the initiator takes that link when it launches
// routed. A failed open aborts the initiator's wait; a canceled
// (race-lost) one says nothing and is abandoned, so the initiator
// discards its half instead of keeping a half-open link.
func (c *Connector) establishRouted(b methodConv, remote Profile, initiator bool, cancel <-chan struct{}) (net.Conn, error) {
	if c.Relay == nil || (initiator && c.AcceptRouted == nil) {
		b.send(msgAbort, nil)
		return nil, ErrNoRelay
	}
	if initiator {
		return c.AcceptRouted(remote.RelayID, b.cv.id, c.ResolvedAcceptTimeout(), cancel)
	}
	conn, err := c.dialRoutedData(remote, b.cv.id, cancel)
	if err != nil {
		select {
		case <-cancel: // lost the race: the election already ended it
		default:
			b.send(msgAbort, nil)
		}
	}
	return conn, err
}

// dialRoutedData opens the acceptor's routed data link for establishment
// conv to the initiator. On one relay a refusal is authoritative; a
// detachment (our attachment may be resuming elsewhere) and a refusal
// across relays (the initiator's home changed since the service link's
// open taught it to our relay) are retried while the initiator waits.
func (c *Connector) dialRoutedData(remote Profile, conv uint64, cancel <-chan struct{}) (net.Conn, error) {
	dial := func(peerID string, timeout time.Duration) (net.Conn, error) {
		return c.Relay.DialPurpose(peerID, relay.PurposeData, conv, timeout, cancel)
	}
	if remote.HomeRelay != "" && remote.HomeRelay == c.Relay.ServerID() {
		conn, err := dial(remote.RelayID, c.ResolvedAcceptTimeout())
		if !errors.Is(err, relay.ErrDetached) {
			return conn, err
		}
	}
	return RetryRoutedDial(dial, remote.RelayID, c.ResolvedAcceptTimeout(), cancel)
}

// acceptWithTimeout waits for one connection on l or gives up — on
// timeout, or early when cancel (the lost-race signal) fires.
func acceptWithTimeout(l *emunet.Listener, timeout time.Duration, cancel <-chan struct{}) (net.Conn, error) {
	type result struct {
		c   net.Conn
		err error
	}
	ch := make(chan result, 1)
	go func() {
		c, err := l.Accept()
		ch <- result{c, err}
	}()
	settle := func(fallback error) (net.Conn, error) {
		l.Close()
		r := <-ch
		if r.err == nil {
			// A connection raced with the timeout/cancellation; hand it
			// up (a canceled caller discards it through the normal
			// loser-cleanup path).
			return r.c, nil
		}
		return nil, fallback
	}
	select {
	case r := <-ch:
		return r.c, r.err
	case <-cancel: // nil cancel never fires
		return settle(errRaceLost)
	case <-time.After(timeout):
		conn, err := settle(nil)
		if err == nil && conn != nil {
			return conn, nil
		}
		return nil, fmt.Errorf("estab: timed out waiting for peer connection")
	}
}
