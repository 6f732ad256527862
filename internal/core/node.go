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
	"errors"
	"fmt"
	"sync"
	"time"

	_ "netibis/internal/drivers" // install the built-in link utilization drivers
	"netibis/internal/emunet"
	"netibis/internal/estab"
	"netibis/internal/identity"
	"netibis/internal/ipl"
	"netibis/internal/nameservice"
	"netibis/internal/obs"
	"netibis/internal/relay"
	"netibis/internal/socks"
	"netibis/internal/wire"
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
	// Relays, when non-empty, pins the instance to this candidate set
	// of routed-messages relays instead of discovering the mesh through
	// the registry (see package overlay). The node still picks the
	// lowest-RTT member and still falls back to the full discovered set
	// when its relay fails.
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
	att       *Attachment
	relayCli  *relay.Client // att.Client()
	connector *estab.Connector

	mu           sync.Mutex
	serviceLinks map[string]*serviceLink
	recvPorts    map[string]*receivePort
	pendingData  map[string]*routedWaiters
	closed       bool
	done         chan struct{}

	wg sync.WaitGroup
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

	n := &Node{
		cfg:          cfg,
		id:           ipl.Identifier{Name: cfg.Name, Pool: cfg.Pool},
		registry:     registry,
		serviceLinks: make(map[string]*serviceLink),
		recvPorts:    make(map[string]*receivePort),
		pendingData:  make(map[string]*routedWaiters),
		done:         make(chan struct{}),
	}
	// Attach to a routed-messages relay under the node name; this is
	// the service path that works regardless of firewalls and NAT. When
	// the relay dies the attachment resumes on a surviving one, keeping
	// the node's identity and virtual links.
	n.att = &Attachment{
		Host:     cfg.Host,
		NodeID:   n.relayID(),
		Pinned:   cfg.Relays,
		Discover: DiscoverRelays(registry, cfg.Trust),
		Auth:     cfg.relayAuth(),
		Trace:    cfg.Trace,
		// Routed frames in flight across the failure are lost, and a
		// service link is a stateful conversation: a lost brokering or
		// mux-barrier frame would wedge it (and its peer's serve loop)
		// forever. Data links recover by design; service links are
		// cheap — drop them and let the next Connect rebuild over the
		// fresh attachment.
		OnResume: func(time.Duration) { n.dropAllServiceLinks() },
	}
	if err := n.att.Attach(); err != nil {
		registry.Close()
		return nil, fmt.Errorf("core: attach to relay: %w", err)
	}
	relayCli := n.att.Client()
	n.relayCli = relayCli
	relayCli.SetWindow(cfg.RoutedWindowBytes)
	n.connector = &estab.Connector{
		Host:          cfg.Host,
		Relay:         relayCli,
		ProxyAddr:     cfg.Proxy,
		ProxyCreds:    cfg.ProxyCreds,
		SpliceTimeout: cfg.SpliceTimeout,
		AcceptTimeout: cfg.AcceptTimeout,
		Cache:         estab.NewCache(estab.DefaultCacheTTL),
		AcceptRouted:  n.acceptRoutedData,
		Trace:         cfg.Trace,
	}
	if cfg.Metrics != nil {
		em := estab.NewMetrics()
		n.connector.Metrics = em
		em.MetricsInto(cfg.Metrics)
		relayCli.MetricsInto(cfg.Metrics)
		n.att.MetricsInto(cfg.Metrics)
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
func (n *Node) RelayEndpoint() emunet.Endpoint { return n.att.Endpoint() }

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
	n.att.Close()
	n.registry.Close()
	n.wg.Wait()
	return nil
}
