// Package core is the NetIbis integration layer: the implementation of
// the Ibis Portability Layer that ties together connection establishment
// (package estab), link utilization driver stacks (package driver and
// the drivers beneath internal/drivers), the routed-messages relay, the
// SOCKS proxy client, the node identities and the Ibis Name Service.
//
// A process joins a pool by creating a Node. The node:
//
//   - bootstraps a connection to the Ibis Name Service and registers
//     itself,
//   - attaches to the routed-messages relay, which gives it a service
//     path to every other node regardless of firewalls and NAT
//     (paper Figure 7: "service links are routed through the relay"),
//   - creates send and receive ports on demand; connecting a send port
//     to a receive port negotiates a data link over the service link,
//     picking the best establishment method the topology allows (TCP
//     client/server, TCP splicing, SOCKS proxy or routed messages) and
//     then builds the configured driver stack (block aggregation,
//     parallel streams, compression, sealing) on top of it.
//
// Establishment and utilization remain orthogonal throughout: any driver
// stack runs over any establishment method, which is the paper's central
// claim.
package core

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netibis/internal/driver"
	_ "netibis/internal/drivers" // install the built-in link utilization drivers
	"netibis/internal/emunet"
	"netibis/internal/estab"
	"netibis/internal/identity"
	"netibis/internal/ipl"
	"netibis/internal/nameservice"
	"netibis/internal/obs"
	"netibis/internal/overlay"
	"netibis/internal/relay"
	"netibis/internal/socks"
	"netibis/internal/wire"
)

// Purpose header values stamped on relay-routed connections between
// nodes, so the receiving node's dispatcher knows what arrived: the flag
// of a wire.KindControl frame with an empty payload. Who it arrived from
// is the link's own Peer(), never something the sender writes.
const (
	purposeService byte = 1
	purposeData    byte = 2
)

// Service-link operation codes (frame flags on wire.KindControl frames).
const (
	opConnect    byte = 1
	opConnectOK  byte = 2
	opConnectErr byte = 3
	opPing       byte = 4
	opPong       byte = 5
)

// Registry key prefixes.
const (
	nodeKeyPrefix = "node/"
	portKeyPrefix = "port/"
)

// Errors.
var (
	// ErrClosed is returned by operations on a closed node.
	ErrClosed = errors.New("core: node closed")
	// ErrPeerUnavailable is returned when the peer node cannot be
	// reached over any service path.
	ErrPeerUnavailable = errors.New("core: peer unavailable")
	// ErrConnectRejected is returned when the peer refuses a data link
	// (unknown port, incompatible port type).
	ErrConnectRejected = errors.New("core: connection rejected by peer")
)

// Config describes one NetIbis instance.
type Config struct {
	// Name is the instance's unique name within the pool.
	Name string
	// Pool is the application run all collaborating instances join.
	Pool string
	// Host is the machine the instance runs on.
	Host *emunet.Host
	// Registry is the Ibis Name Service endpoint (on a publicly
	// reachable gateway).
	Registry emunet.Endpoint
	// Relay is the routed-messages relay endpoint (on a publicly
	// reachable gateway). When the registry advertises a federated
	// relay mesh (see package overlay) it serves as a fallback
	// candidate; it may be left zero in that case.
	Relay emunet.Endpoint
	// Relays, when non-empty, pins the instance to this candidate set
	// instead of discovering relays through the registry. The node
	// still picks the lowest-RTT member and still falls back to the
	// full discovered set when its relay fails.
	Relays []emunet.Endpoint
	// Proxy is an optional SOCKS proxy usable by this instance.
	Proxy emunet.Endpoint
	// ProxyCreds are optional SOCKS credentials.
	ProxyCreds *socks.Credentials
	// NodeIdentity is the node's Ed25519 mesh identity (package
	// identity), named after the node's relay ID ("pool/name"). With one
	// configured the node authenticates its relay attachments (including
	// re-attachments after failover), signs its registry record, can seal
	// routed links end to end and keys a "secure" stack layer that names
	// no key. Use identity.LoadOrGenerate for file persistence.
	NodeIdentity *identity.Identity
	// Trust is the set of trusted identities (deployment CA keys and/or
	// pinned keys). With one configured the node demands that relays
	// prove a trusted identity during attach, verifies signed registry
	// records on discovery, and verifies end-to-end link peers.
	Trust *identity.TrustStore
	// RequireSecureRouted makes the end-to-end seal mandatory on every
	// relay-routed link: an open answered without the secure capability
	// fails closed (identity.ErrDowngraded) instead of running in the
	// clear. Requires NodeIdentity and Trust.
	RequireSecureRouted bool
	// DefaultStack is the driver stack used by port types that do not
	// name one ("tcpblk" if empty).
	DefaultStack string
	// SpliceTimeout bounds a simultaneous open during establishment;
	// zero (or negative) means estab.DefaultSpliceTimeout. The
	// zero-value rule is the same as AcceptTimeout's.
	SpliceTimeout time.Duration
	// AcceptTimeout bounds the passive side of brokered establishments;
	// zero (or negative) means estab.DefaultAcceptTimeout, mirroring
	// SpliceTimeout.
	AcceptTimeout time.Duration
	// RaceStagger is the head start between candidate methods of a
	// racing establishment; zero means twice the service-link round trip
	// each connect measures (at least estab.MinRaceStagger), negative
	// launches all candidates at once.
	RaceStagger time.Duration
	// EstabCacheTTL is the lifetime of connectivity-cache entries
	// (which method last won the establishment race per peer); zero
	// means estab.DefaultCacheTTL.
	EstabCacheTTL time.Duration
	// RoutedWindowBytes is the receive window this node advertises on
	// relay-routed virtual links (credit-based flow control: a peer
	// sending to this node blocks once that many bytes are in flight
	// unread). Zero means relay.DefaultWindowBytes. Larger windows keep
	// fatter pipes busy; smaller ones bound the memory a slow consumer
	// can pin per link.
	RoutedWindowBytes int
	// Metrics, when non-nil, receives the node's metric families: the
	// estab family (race outcomes, cache effectiveness, establishment
	// latency), the node side of the flow family (credit stalls,
	// blocked-writer time) and the core family (relay detach/failover
	// events). See DESIGN.md, "Observability".
	Metrics *obs.Registry
	// Trace, when non-nil, records node lifecycle events (establishment
	// wins and failures, relay detachments and failovers) into the
	// bounded event ring. Never written on per-frame paths.
	Trace *obs.Trace
}

func (c Config) validate() error {
	if c.Name == "" {
		return errors.New("core: config needs a Name")
	}
	if c.Pool == "" {
		return errors.New("core: config needs a Pool")
	}
	if c.Host == nil {
		return errors.New("core: config needs a Host")
	}
	if c.Registry.IsZero() {
		return errors.New("core: config needs a Registry endpoint")
	}
	// A Relay endpoint is no longer mandatory: relays can be discovered
	// through the registry (overlay.RegistryPrefix records). Join fails
	// with ErrPeerUnavailable when no candidate relay is reachable.
	if c.NodeIdentity != nil && c.NodeIdentity.Name != c.Pool+"/"+c.Name {
		return fmt.Errorf("core: NodeIdentity is named %q, want the node's relay identity %q",
			c.NodeIdentity.Name, c.Pool+"/"+c.Name)
	}
	if c.RequireSecureRouted && (c.NodeIdentity == nil || c.Trust == nil) {
		return errors.New("core: RequireSecureRouted needs NodeIdentity and Trust")
	}
	return nil
}

// relayAuth builds the relay client's security configuration from the
// node config (nil when no identity material is configured).
func (c Config) relayAuth() *relay.AuthConfig {
	if c.NodeIdentity == nil && c.Trust == nil {
		return nil
	}
	return &relay.AuthConfig{
		Identity:   c.NodeIdentity,
		Trust:      c.Trust,
		RequireE2E: c.RequireSecureRouted,
	}
}

// Node is one NetIbis instance.
type Node struct {
	cfg       Config
	id        ipl.Identifier
	registry  *nameservice.Client
	relayCli  *relay.Client
	connector *estab.Connector

	mu           sync.Mutex
	relayEP      emunet.Endpoint // endpoint of the relay currently attached to
	detachTimes  []time.Time     // recent relay detachments (storm detection)
	serviceLinks map[string]*serviceLink
	recvPorts    map[string]*receivePort
	pendingData  map[string]chan net.Conn
	closed       bool
	done         chan struct{}

	// Failover counters (see MetricsInto): detaches counts relay
	// attachment losses, reattachResults the recovery outcomes
	// (index 0 = resumed on a surviving relay, 1 = attachment abandoned).
	detaches        atomic.Int64
	reattachResults [2]atomic.Int64

	wg sync.WaitGroup
}

// MetricsInto registers the core family: relay attachment losses and
// failover outcomes. Join calls it when Config.Metrics is set.
func (n *Node) MetricsInto(reg *obs.Registry) {
	reg.CounterFunc("netibis_core_relay_detach_total",
		"Relay attachment losses observed by this node.",
		func() float64 { return float64(n.detaches.Load()) })
	reg.CounterVec("netibis_core_reattach_total",
		"Failover outcomes: resumed on a surviving relay, or attachment abandoned.",
		func(emit obs.EmitFunc) {
			emit(obs.Labels("result", "ok"), float64(n.reattachResults[0].Load()))
			emit(obs.Labels("result", "abandoned"), float64(n.reattachResults[1].Load()))
		})
}

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

// Join creates a NetIbis instance: it contacts the registry, attaches to
// the relay and announces itself, after which peers can connect to its
// receive ports.
func Join(cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Bootstrap link to the registry: an ordinary outgoing dial to a
	// public gateway, which works from every topology.
	regConn, err := cfg.Host.Dial(cfg.Registry)
	if err != nil {
		return nil, fmt.Errorf("core: bootstrap to registry: %w", err)
	}
	registry := nameservice.NewClient(regConn)

	// Attach to a routed-messages relay under the node name; this is
	// the service path that works regardless of firewalls and NAT.
	// Candidates come from the pinned cfg.Relays set or from the
	// registry's overlay records (plus the static cfg.Relay fallback);
	// the node probes them all and attaches to the lowest-RTT one.
	cands := cfg.Relays
	if len(cands) == 0 {
		cands = append(discoverRelayEndpoints(registry, cfg.Trust), cfg.Relay)
	}
	relayCli, relayEP, err := attachBestRelay(cfg.Host, cfg.Pool+"/"+cfg.Name, cands, cfg.relayAuth())
	if err != nil {
		registry.Close()
		return nil, fmt.Errorf("core: attach to relay: %w", err)
	}

	n := &Node{
		cfg:          cfg,
		id:           ipl.Identifier{Name: cfg.Name, Pool: cfg.Pool},
		registry:     registry,
		relayCli:     relayCli,
		relayEP:      relayEP,
		serviceLinks: make(map[string]*serviceLink),
		recvPorts:    make(map[string]*receivePort),
		pendingData:  make(map[string]chan net.Conn),
		done:         make(chan struct{}),
	}
	// Arm transparent failover: when the relay connection dies the node
	// reattaches to a surviving relay of the mesh, keeping its virtual
	// links and node identity.
	relayCli.SetDetachHandler(n.onRelayDetach)
	relayCli.SetWindow(cfg.RoutedWindowBytes)
	n.connector = &estab.Connector{
		Host:          cfg.Host,
		Relay:         relayCli,
		ProxyAddr:     cfg.Proxy,
		ProxyCreds:    cfg.ProxyCreds,
		SpliceTimeout: cfg.SpliceTimeout,
		AcceptTimeout: cfg.AcceptTimeout,
		RaceStagger:   cfg.RaceStagger,
		Cache:         estab.NewCache(cfg.EstabCacheTTL),
		AcceptRouted:  n.acceptRoutedData,
		DialRouted:    n.dialRoutedData,
		Trace:         cfg.Trace,
	}
	if cfg.Metrics != nil {
		em := estab.NewMetrics()
		n.connector.Metrics = em
		em.MetricsInto(cfg.Metrics)
		relayCli.MetricsInto(cfg.Metrics)
		n.MetricsInto(cfg.Metrics)
	}

	// Register the instance so that peers (and monitoring tools) can
	// discover it. The record carries the node's relay identity.
	record := wire.AppendString(nil, n.relayID())
	if cfg.NodeIdentity != nil {
		// Signed: peers (and a trust-enforcing registry) can verify the
		// record really belongs to this node.
		record = identity.SealRecord(cfg.NodeIdentity, n.nodeKey(cfg.Name), record)
	}
	if err := registry.Register(n.nodeKey(cfg.Name), record); err != nil {
		n.Close()
		return nil, fmt.Errorf("core: register node: %w", err)
	}

	n.wg.Add(1)
	go n.dispatcher()
	return n, nil
}

// Identifier returns the node's location-independent Ibis identifier.
func (n *Node) Identifier() ipl.Identifier { return n.id }

// Registry exposes the node's name service client (for elections and
// application-level registrations).
func (n *Node) Registry() *nameservice.Client { return n.registry }

// Profile returns the node's connectivity profile, as used by the
// establishment decision tree.
func (n *Node) Profile() estab.Profile { return n.connector.Profile() }

// relayID is the node's identity at the relay.
func (n *Node) relayID() string { return n.cfg.Pool + "/" + n.cfg.Name }

// HomeRelay returns the mesh ID of the relay the node is currently
// attached to (empty for unnamed stand-alone relays).
func (n *Node) HomeRelay() string { return n.relayCli.ServerID() }

// RelayEndpoint returns the endpoint of the relay the node is currently
// attached to.
func (n *Node) RelayEndpoint() emunet.Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.relayEP
}

// --- relay discovery and failover ----------------------------------------------------

// rttBucket quantises probe round-trip times: relays whose RTTs fall in
// the same bucket are considered equally near, and the choice between
// them is spread pseudo-randomly by node name so a pool's nodes
// load-balance across the mesh instead of piling onto one member.
const rttBucket = 2 * time.Millisecond

// Reattach policy after a relay failure.
const (
	reattachAttempts = 5
	reattachDelay    = 100 * time.Millisecond
	// A healthy failover detaches once; detachStormLimit detaches within
	// detachStormWindow mean something is repeatedly killing our
	// attachment — most likely another live node joined under the same
	// identity and relays are applying latest-attachment-wins to the two
	// of us in turn. Give up instead of fighting forever.
	detachStormLimit  = 5
	detachStormWindow = 10 * time.Second
)

// discoverRelayEndpoints lists the relay mesh members registered in the
// name service. With a trust store, only records carrying a valid
// signature from the relay they advertise are accepted: a poisoned
// registry cannot redirect the node to an impostor relay (and even if
// it could, the attach handshake would unmask the impostor).
func discoverRelayEndpoints(registry *nameservice.Client, trust *identity.TrustStore) []emunet.Endpoint {
	recs, err := registry.List(overlay.RegistryPrefix)
	if err != nil {
		return nil
	}
	eps := make([]emunet.Endpoint, 0, len(recs))
	for _, rec := range recs {
		val := rec.Value
		if trust != nil {
			relayID := strings.TrimPrefix(rec.Key, overlay.RegistryPrefix)
			v, verr := identity.VerifyRecord(trust, relayID, rec.Key, rec.Value)
			if verr != nil {
				continue
			}
			val = v
		} else {
			val = identity.UnwrapRecord(val)
		}
		if ep, ok := emunet.ParseEndpoint(string(val)); ok {
			eps = append(eps, ep)
		}
	}
	return eps
}

// relayProbe is one probed candidate: an open, not yet attached
// connection plus its measured round-trip time.
type relayProbe struct {
	ep   emunet.Endpoint
	conn net.Conn
	rtt  time.Duration
}

// probeRelays dials every distinct candidate, measures the pre-attach
// round-trip time and returns the reachable ones ordered best-first
// (lowest RTT bucket, ties spread by a hash of the node ID). The caller
// owns the returned connections.
func probeRelays(host *emunet.Host, nodeID string, cands []emunet.Endpoint) []relayProbe {
	seen := make(map[emunet.Endpoint]bool)
	var probes []relayProbe
	for _, ep := range cands {
		if ep.IsZero() || seen[ep] {
			continue
		}
		seen[ep] = true
		conn, err := host.Dial(ep)
		if err != nil {
			continue // unreachable or dead relay: skip
		}
		rtt, err := relay.ProbeRTT(conn)
		if err != nil {
			conn.Close()
			continue
		}
		probes = append(probes, relayProbe{ep: ep, conn: conn, rtt: rtt})
	}
	spread := func(ep emunet.Endpoint) uint32 {
		h := fnv.New32a()
		h.Write([]byte(nodeID))
		h.Write([]byte{'|'})
		h.Write([]byte(ep.String()))
		return h.Sum32()
	}
	sort.Slice(probes, func(i, j int) bool {
		bi, bj := probes[i].rtt/rttBucket, probes[j].rtt/rttBucket
		if bi != bj {
			return bi < bj
		}
		return spread(probes[i].ep) < spread(probes[j].ep)
	})
	return probes
}

// attachBestRelay probes the candidates and attaches to the nearest
// relay that accepts the node (running the authentication handshake
// when auth is configured).
func attachBestRelay(host *emunet.Host, nodeID string, cands []emunet.Endpoint, auth *relay.AuthConfig) (*relay.Client, emunet.Endpoint, error) {
	probes := probeRelays(host, nodeID, cands)
	if len(probes) == 0 {
		return nil, emunet.Endpoint{}, ErrPeerUnavailable
	}
	var firstErr error
	for i, p := range probes {
		cli, err := relay.AttachAuth(p.conn, nodeID, auth) // closes p.conn on error
		if err == nil {
			for _, rest := range probes[i+1:] {
				rest.conn.Close()
			}
			return cli, p.ep, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, emunet.Endpoint{}, firstErr
}

// reattachCandidates is the search set after a relay failure: the full
// union of pinned, static and discovered relays (the failed relay's
// record may still linger in the registry — probing skips dead ones).
func (n *Node) reattachCandidates() []emunet.Endpoint {
	cands := append([]emunet.Endpoint(nil), n.cfg.Relays...)
	cands = append(cands, n.cfg.Relay)
	return append(cands, discoverRelayEndpoints(n.registry, n.cfg.Trust)...)
}

// onRelayDetach runs when the relay connection dies: the node probes the
// surviving relays and resumes its attachment — node identity and open
// routed links included — on the nearest one. Frames sent while detached
// are lost, as they would be on a real TCP failure; once the mesh's
// directory gossip announces the new home relay, traffic flows again.
func (n *Node) onRelayDetach(err error) {
	n.detaches.Add(1)
	n.cfg.Trace.Eventf("core", "node %s lost its relay attachment: %v", n.relayID(), err)
	n.mu.Lock()
	now := time.Now()
	keep := n.detachTimes[:0]
	for _, t := range n.detachTimes {
		if now.Sub(t) < detachStormWindow {
			keep = append(keep, t)
		}
	}
	n.detachTimes = append(keep, now)
	storm := len(n.detachTimes) > detachStormLimit
	n.mu.Unlock()
	if storm {
		n.reattachResults[1].Add(1)
		n.cfg.Trace.Eventf("core", "node %s abandoning attachment: detach storm", n.relayID())
		n.relayCli.Abandon(fmt.Errorf("core: attachment repeatedly revoked (duplicate node identity %q in the pool?): %w", n.relayID(), err))
		return
	}
	for attempt := 0; ; attempt++ {
		n.mu.Lock()
		closed := n.closed
		n.mu.Unlock()
		if closed {
			return
		}
		probes := probeRelays(n.cfg.Host, n.relayID(), n.reattachCandidates())
		for i, p := range probes {
			if rerr := n.relayCli.Resume(p.conn); rerr == nil {
				for _, rest := range probes[i+1:] {
					rest.conn.Close()
				}
				n.mu.Lock()
				n.relayEP = p.ep
				n.mu.Unlock()
				n.reattachResults[0].Add(1)
				n.cfg.Trace.Eventf("core", "node %s resumed on relay at %s (attempt %d)",
					n.relayID(), p.ep, attempt+1)
				// Routed frames in flight across the failure are lost,
				// and a service link is a stateful conversation: a lost
				// brokering or mux-barrier frame would wedge it (and its
				// peer's serve loop) forever. Data links recover by
				// design; service links are cheap — drop them and let
				// the next Connect rebuild over the fresh attachment.
				n.dropAllServiceLinks()
				return
			}
		}
		if attempt+1 >= reattachAttempts {
			break
		}
		select {
		case <-n.done:
			return
		case <-time.After(reattachDelay):
		}
	}
	// No relay left: give up and fail the attachment for good.
	n.reattachResults[1].Add(1)
	n.cfg.Trace.Eventf("core", "node %s abandoning attachment: no relay reachable", n.relayID())
	n.relayCli.Abandon(fmt.Errorf("core: relay failover failed: %w", err))
}

func (n *Node) nodeKey(name string) string {
	return n.cfg.Pool + "/" + nodeKeyPrefix + name
}

func (n *Node) portKey(port string) string {
	return n.cfg.Pool + "/" + portKeyPrefix + port
}

// WaitForNode blocks until the named instance has joined the pool.
func (n *Node) WaitForNode(name string, timeout time.Duration) error {
	_, err := n.registry.Lookup(n.nodeKey(name), timeout)
	return err
}

// Close tears the node down: ports are closed, the relay attachment and
// registry connection are released.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.done)
	ports := make([]*receivePort, 0, len(n.recvPorts))
	for _, rp := range n.recvPorts {
		ports = append(ports, rp)
	}
	links := make([]*serviceLink, 0, len(n.serviceLinks))
	for _, sl := range n.serviceLinks {
		links = append(links, sl)
	}
	n.mu.Unlock()

	for _, rp := range ports {
		rp.Close()
	}
	for _, sl := range links {
		sl.conn.Close()
	}
	n.registry.Unregister(n.nodeKey(n.cfg.Name))
	n.relayCli.Close()
	n.registry.Close()
	n.wg.Wait()
	return nil
}

// --- dispatcher: incoming routed connections ------------------------------------------

// dispatcher accepts relay-routed connections from peers and hands them
// to the right consumer: service links get a handler goroutine, routed
// data links are delivered to the establishment waiting for them.
func (n *Node) dispatcher() {
	defer n.wg.Done()
	for {
		conn, err := n.relayCli.Accept()
		if err != nil {
			return
		}
		n.wg.Add(1)
		go func(conn net.Conn) {
			defer n.wg.Done()
			n.dispatch(conn)
		}(conn)
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

// dispatch reads the purpose header of one incoming routed connection:
// a flag and nothing else. The consumer is keyed by the link's Peer().
func (n *Node) dispatch(conn net.Conn) {
	f, err := wire.NewReader(conn).ReadFrame()
	peer := linkPeer(conn)
	if err != nil || f.Kind != wire.KindControl || len(f.Payload) != 0 || peer == "" {
		conn.Close()
		return
	}
	switch f.Flags {
	case purposeService:
		n.serveServiceLink(conn)
	case purposeData:
		n.deliverRoutedData(peer, conn)
	default:
		conn.Close()
	}
}

// pendingDataChan returns (creating if needed) the hand-off channel for
// routed data links from the given peer.
func (n *Node) pendingDataChan(peer string) chan net.Conn {
	n.mu.Lock()
	defer n.mu.Unlock()
	ch, ok := n.pendingData[peer]
	if !ok {
		ch = make(chan net.Conn, 8)
		n.pendingData[peer] = ch
	}
	return ch
}

func (n *Node) deliverRoutedData(peer string, conn net.Conn) {
	select {
	case n.pendingDataChan(peer) <- conn:
	default:
		// Nobody is waiting and the buffer is full: drop the link.
		conn.Close()
	}
}

// acceptRoutedData is the estab.Connector hook used on the accepting
// side of a routed data-link establishment. Links whose initiator lost
// an establishment race arrive abandoned (see relay.KindAbandon); they
// are discarded here rather than handed to an establishment, so a lost
// race never leaves a half-open accept behind. cancel fires when this
// establishment itself lost its race.
func (n *Node) acceptRoutedData(peerID string, timeout time.Duration, cancel <-chan struct{}) (net.Conn, error) {
	deadline := time.After(timeout)
	for {
		select {
		case conn := <-n.pendingDataChan(peerID):
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

// dialRoutedData is the estab.Connector hook used on the initiating side
// of a routed data-link establishment: it opens the relay link and
// stamps it with the data purpose header. A canceled (race-lost) dial is
// abandoned inside the relay client, which tells the far side to discard
// its half of the link.
func (n *Node) dialRoutedData(peerID string, timeout time.Duration, cancel <-chan struct{}) (net.Conn, error) {
	conn, err := n.relayCli.DialCancel(peerID, timeout, cancel)
	if err != nil {
		return nil, err
	}
	w := wire.NewWriter(conn)
	if err := w.WriteFrame(wire.KindControl, purposeData, nil); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
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
	w := wire.NewWriter(conn)
	if err := w.WriteFrame(wire.KindControl, purposeService, nil); err != nil {
		conn.Close()
		return nil, err
	}
	sl := &serviceLink{peer: linkPeer(conn), conn: conn, r: wire.NewReader(conn), w: w}

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

// dialRouted opens a routed link to a peer node, retrying refusals and
// detachments (the mesh's gossip window, or our own attachment being
// resumed after a failover) until the accept timeout expires. That would
// make dialing a node that never joined slow, and the registry knows at
// once whether the peer exists: a refusal asks it, and is final for a
// peer it does not know. Nothing in the record is used — the dial targets
// the peer ID, whose attachment the relay authenticated — so a dial that
// succeeds never asks.
func (n *Node) dialRouted(peerName, peerID string) (net.Conn, error) {
	dial := func(peerID string, timeout time.Duration) (net.Conn, error) {
		conn, err := n.relayCli.Dial(peerID, timeout)
		if errors.Is(err, relay.ErrRefused) {
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
// anything else is done with the request; profile is what the acceptor
// ranks the candidates of every establishment of this connect with. The
// port type crosses as a digest: the acceptor only tests it for equality
// with its own port's, and a stack string may hold a psk= passphrase.
type connectRequest struct {
	portName   string
	typeDigest [sha256.Size]byte
	sender     ipl.Identifier
	profile    estab.Profile
}

// portTypeDigest is SHA-256 over string name ‖ string stack.
func portTypeDigest(pt ipl.PortType) [sha256.Size]byte {
	return sha256.Sum256(wire.AppendString(wire.AppendString(nil, pt.Name), pt.Stack))
}

func encodeConnectRequest(req connectRequest) []byte {
	var b []byte
	b = wire.AppendString(b, req.portName)
	b = wire.AppendBytes(b, req.typeDigest[:])
	b = wire.AppendString(b, req.sender.Name)
	b = wire.AppendString(b, req.sender.Pool)
	return wire.AppendBytes(b, req.profile.Encode())
}

func decodeConnectRequest(p []byte) (connectRequest, error) {
	d := wire.NewDecoder(p)
	var req connectRequest
	req.portName = d.String()
	digest := d.Bytes()
	req.sender.Name = d.String()
	req.sender.Pool = d.String()
	profile := d.Bytes()
	if d.Err() != nil || d.Remaining() != 0 || len(digest) != len(req.typeDigest) {
		return connectRequest{}, errors.New("core: corrupt connect request")
	}
	copy(req.typeDigest[:], digest)
	var err error
	req.profile, err = estab.DecodeProfile(profile)
	return req, err
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
	if err := w.WriteFrame(wire.KindControl, opConnectOK, n.connector.Profile().Encode()); err != nil {
		return err
	}

	// Build the input side of the driver stack; every Accept call runs
	// one brokered establishment over a mux conversation of this service
	// link, mirroring (and overlapping with) the Dial calls the
	// initiator makes concurrently on its side. Each starts every
	// candidate's half at once, so what the acceptor has to say first
	// (its listening endpoint) follows the reply above back to back.
	mux := estab.NewServiceMux(conn)
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
