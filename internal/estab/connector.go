package estab

import (
	"errors"
	"fmt"
	"net"
	"time"

	"netibis/internal/emunet"
	"netibis/internal/obs"
	"netibis/internal/relay"
	"netibis/internal/socks"
	"netibis/internal/wire"
)

// Brokering protocol message types, the type byte of a ServiceMux message
// (mux.go). No method speaks on the service link: every endpoint an
// establishment dials rides in the connect exchange (Endpoints), and the
// acceptor opens routed unasked. What is left is the abort, under a
// method the call-off of that attempt, under method 0 of the
// establishment, and the initiator's election (method 0 only).
const (
	msgAbort byte = iota + 1 // failed on my side (empty)
	msgElect                 // the race's winner, one method byte (MethodNone: nothing won, the establishment is over)
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
	// ForcedMethod, when non-zero, replaces the candidate ranking with
	// that one method and bypasses the cache; the package's tests set it
	// on both sides to run one method alone.
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

// runMethod runs one establishment method on conversation cv. cancel,
// when it fires, means the attempt lost the race and must wind down
// promptly.
func (c *Connector) runMethod(cv *Conversation, m Method, local, remote Profile, initiator bool, cancel <-chan struct{}) (net.Conn, error) {
	ini, acc := local, remote
	if !initiator {
		ini, acc = remote, local
	}
	switch m {
	case ClientServer:
		return c.establishDirect(cv, m, listens(m, ini, acc, initiator), c.Host.Dial, cancel)
	case Splicing:
		return c.establishSplicing(cv, initiator, cancel)
	case Proxy:
		return c.establishDirect(cv, m, listens(m, ini, acc, initiator), c.dialProxy, cancel)
	case Routed:
		return c.establishRouted(cv, remote, initiator, cancel)
	default:
		return nil, ErrNoMethod
	}
}

// listens reports whether the initiator's side (asInitiator) or the
// acceptor's listens in method m, by one rule both sides evaluate alike.
// In client/server the acceptor listens when the initiator can dial it
// (the IPL's receive-port-listens convention), in proxy when the
// initiator's proxy can reach it; otherwise the initiator listens, and
// Possible has made sure the acceptor can reach it. Cross-site, a side
// that listens is Reachable. No other method listens.
func listens(m Method, initiator, acceptor Profile, asInitiator bool) bool {
	switch m {
	case ClientServer:
		return canDialDirect(initiator, acceptor) != asInitiator
	case Proxy:
		return (initiator.HasProxy && acceptor.Reachable()) != asInitiator
	}
	return false
}

// establishDirect is client/server and proxy: the listening side accepts
// on the listener it reserved for this establishment, and the other
// dials that listener's endpoint, from the connect exchange, the moment
// it launches — no message. A failed dial aborts the peer's accept.
func (c *Connector) establishDirect(cv *Conversation, m Method, listening bool, dial func(emunet.Endpoint) (net.Conn, error), cancel <-chan struct{}) (net.Conn, error) {
	local, peer, k := cv.m.local, cv.m.peer, cv.id
	var conn net.Conn
	var err error
	switch {
	case listening && k < uint64(len(local.listeners)):
		return acceptWithTimeout(local.listeners[k], c.ResolvedAcceptTimeout(), cancel)
	case listening:
		err = fmt.Errorf("%w: no listener for establishment %d", ErrProtocol, k)
	case k < uint64(len(peer.Listen)):
		conn, err = dial(peer.Listen[k])
	default:
		err = fmt.Errorf("%w: no listen endpoint for establishment %d", ErrProtocol, k)
	}
	if err != nil {
		// Let the listening side give up instead of waiting out its
		// accept timeout.
		cv.send(m, msgAbort, nil)
	}
	return conn, err
}

// dialProxy connects to ep through this endpoint's SOCKS proxy.
func (c *Connector) dialProxy(ep emunet.Endpoint) (net.Conn, error) {
	if c.ProxyAddr.IsZero() {
		return nil, ErrNoProxy
	}
	conn, err := c.Host.Dial(c.ProxyAddr)
	if err != nil {
		return nil, err
	}
	if err := socks.Connect(conn, string(ep.Addr), ep.Port, c.ProxyCreds); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// establishSplicing: each side dials from its port for this conversation
// to the peer's prediction, both from the connect request and reply, so
// the acceptor's offer goes out right behind its reply, without a message.
func (c *Connector) establishSplicing(cv *Conversation, initiator bool, cancel <-chan struct{}) (net.Conn, error) {
	local, peer, k := cv.m.local, cv.m.peer, cv.id
	if k >= uint64(min(len(local.ports), len(peer.Splice))) {
		return nil, fmt.Errorf("%w: no splice endpoints for establishment %d", ErrProtocol, k)
	}
	timeout := c.spliceTimeout()
	if !initiator {
		timeout = c.ResolvedAcceptTimeout()
	}
	return c.Host.SpliceDialCancel(local.ports[k], peer.Splice[k], timeout, cancel)
}

// Endpoints is one side's endpoints for a connect's establishments, as
// the connect exchange carries them: establishment k splices from the
// port predicted as Splice[k] and listens at Listen[k]. A list is empty
// or holds one entry per establishment (Carries says which). The side
// that reserved them also holds the ports and listeners behind them; a
// peer's, decoded from the exchange, is the two lists alone.
type Endpoints struct {
	Splice, Listen []emunet.Endpoint
	ports          []int
	listeners      []*emunet.Listener
}

// Carries is the one rule for how many splice and listen endpoints a
// side's half of a connect exchange of n establishments holds: n or none.
// The request precedes the acceptor's profile (acceptor nil): splice
// always, listen when the initiator is Reachable, which cross-site it must
// be to listen. The reply: splice when splicing is a candidate of the two
// profiles, listen when the acceptor listens for a candidate.
func (c *Connector) Carries(n int, initiator Profile, acceptor *Profile) (splice, listen int) {
	if acceptor == nil {
		if initiator.Reachable() {
			return n, n
		}
		return n, 0
	}
	for _, m := range c.candidates(initiator, *acceptor) {
		if m == Splicing {
			splice = n
		}
		if listens(m, initiator, *acceptor, false) {
			listen = n
		}
	}
	return splice, listen
}

// Reserve reserves this side's endpoints, in the numbers Carries gives: a
// splice port each, with its predicted external endpoint, and a listener
// each. An establishment closes its listener when it ends, used or not.
func (c *Connector) Reserve(splice, listen int) (Endpoints, error) {
	var e Endpoints
	for range splice {
		port := c.Host.AllocatePort()
		e.ports = append(e.ports, port)
		e.Splice = append(e.Splice, c.Host.PredictExternalEndpoint(port))
	}
	for range listen {
		l, err := c.Host.Listen(0)
		if err != nil {
			e.Close()
			return Endpoints{}, err
		}
		e.listeners = append(e.listeners, l)
		e.Listen = append(e.Listen, emunet.Endpoint{Addr: c.Host.Address(), Port: l.Port()})
	}
	return e, nil
}

// Close closes the listeners behind Listen.
func (e Endpoints) Close() {
	for _, l := range e.listeners {
		l.Close()
	}
}

// AppendEndpoints appends e's two lists, splice then listen, each
// uvarint n ‖ n × (string addr ‖ uvarint port).
func AppendEndpoints(b []byte, e Endpoints) []byte {
	for _, list := range [][]emunet.Endpoint{e.Splice, e.Listen} {
		b = wire.AppendUvarint(b, uint64(len(list)))
		for _, ep := range list {
			b = wire.AppendUvarint(wire.AppendString(b, string(ep.Addr)), uint64(ep.Port))
		}
	}
	return b
}

// ReadEndpoints reads what AppendEndpoints wrote, each list at most limit
// long (nil when empty). A port that is not one is ErrProtocol.
func ReadEndpoints(d *wire.Decoder, limit int) (Endpoints, error) {
	var e Endpoints
	for _, list := range []*[]emunet.Endpoint{&e.Splice, &e.Listen} {
		n := d.Uvarint()
		if d.Err() != nil || n > uint64(limit) {
			return Endpoints{}, fmt.Errorf("%w: malformed endpoint list", ErrProtocol)
		}
		for ; n > 0; n-- {
			addr, port := d.String(), d.Uvarint()
			if d.Err() != nil || port > 65535 {
				return Endpoints{}, fmt.Errorf("%w: malformed endpoint", ErrProtocol)
			}
			*list = append(*list, emunet.Endpoint{Addr: emunet.Address(addr), Port: int(port)})
		}
	}
	return e, nil
}

// establishRouted: the acceptor opens a routed data link for this
// establishment through the relay the moment it starts, right behind its
// connect reply, and the initiator takes that link when it launches
// routed. A failed open aborts the initiator's wait; a canceled
// (race-lost) one says nothing and is abandoned, so the initiator
// discards its half instead of keeping a half-open link.
func (c *Connector) establishRouted(cv *Conversation, remote Profile, initiator bool, cancel <-chan struct{}) (net.Conn, error) {
	if c.Relay == nil || (initiator && c.AcceptRouted == nil) {
		cv.send(Routed, msgAbort, nil)
		return nil, ErrNoRelay
	}
	if initiator {
		return c.AcceptRouted(remote.RelayID, cv.id, c.ResolvedAcceptTimeout(), cancel)
	}
	conn, err := c.dialRoutedData(remote, cv.id, cancel)
	if err != nil {
		select {
		case <-cancel: // lost the race: the election already ended it
		default:
			cv.send(Routed, msgAbort, nil)
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
		return settle(errors.New("estab: timed out waiting for peer connection"))
	}
}
