package emunet

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Fabric is an emulated internetwork: a set of sites containing hosts,
// connected by WAN links. A Fabric is safe for concurrent use.
type Fabric struct {
	mu        sync.Mutex
	sites     map[string]*Site
	hosts     map[Address]*Host
	links     map[linkKey]LinkParams
	pacers    map[linkKey][2]*pacer          // created once per site pair, [0] carries a to b of the key
	conns     map[linkKey]map[*Conn]struct{} // live cross-site conns, for partition severing
	defLink   LinkParams
	timeScale float64
	sockBuf   int
	rng       *rand.Rand
	seed      int64
	closed    bool

	splices map[string]*spliceOffer // keyed by actual-local + target endpoints

	nextPublic  int
	nextSiteNet int
}

type linkKey struct{ a, b string }

func orderedLinkKey(a, b string) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// Option configures a Fabric.
type Option func(*Fabric)

// WithTimeScale sets the ratio between emulated time and wall-clock time
// used by the data plane. 0 (the default) turns the link law off
// entirely — connections are in-memory pipes — so tests run as fast as
// possible. 1.0 emulates the configured latencies and capacities in
// real time; 0.01 runs a 30 ms RTT link with 0.3 ms of real delay.
func WithTimeScale(scale float64) Option {
	return func(f *Fabric) { f.timeScale = scale }
}

// WithDefaultLink sets the link parameters used between sites that have
// no explicit link configured.
func WithDefaultLink(p LinkParams) Option {
	return func(f *Fabric) { f.defLink = p }
}

// WithSocketBuffer sets the socket buffer of each connection direction
// (DefaultSocketBuffer when unset): the bound on the peer's unread
// backlog and, on a shaped link, on a connection's window. Writers
// block once it is reached, so a small buffer makes a stalled reader
// (SetReadStall) backpressure its sender after realistically few bytes
// — the slow-consumer scenarios of the flow-control tests shrink it to
// make a stalled destination socket bite quickly — and 64 KiB gives a
// shaped connection the window of a TCP without window scaling.
func WithSocketBuffer(bytes int) Option {
	return func(f *Fabric) { f.sockBuf = bytes }
}

// WithSeed fixes the random seed used for NAT port assignment and loss,
// making topologies deterministic for tests.
func WithSeed(seed int64) Option {
	return func(f *Fabric) {
		f.rng = rand.New(rand.NewSource(seed))
		f.seed = seed
	}
}

// NewFabric creates an empty emulated internetwork.
func NewFabric(opts ...Option) *Fabric {
	f := &Fabric{
		sites:   make(map[string]*Site),
		hosts:   make(map[Address]*Host),
		links:   make(map[linkKey]LinkParams),
		pacers:  make(map[linkKey][2]*pacer),
		conns:   make(map[linkKey]map[*Conn]struct{}),
		defLink: LinkParams{CapacityBps: 1.25e6, RTT: 30 * time.Millisecond, LossRate: 0.0001},
		rng:     rand.New(rand.NewSource(1)),
		seed:    1,
	}
	for _, o := range opts {
		o(f)
	}
	return f
}

// SiteConfig describes a site to be added to the fabric.
type SiteConfig struct {
	// Firewall is the site's filtering policy.
	Firewall FirewallPolicy
	// NAT is the site's address translation mode. Sites with NAT give
	// their hosts private addresses hidden behind the site's public
	// gateway address.
	NAT NATMode
	// PrivateAddresses forces private (non-routable) host addresses
	// even without NAT, modelling the "non-routed private networks"
	// the paper mentions; such hosts can only reach the outside through
	// a proxy or relay.
	PrivateAddresses bool
	// AllowedEgress lists destination addresses reachable through a
	// Strict firewall (typically the site's SOCKS proxy or a relay).
	AllowedEgress []Address
	// SpliceHostile marks an asymmetrically filtering firewall:
	// ordinary outgoing connections work, but the firewall does not
	// treat an outgoing SYN as establishing state that would admit the
	// peer's simultaneous SYN, so TCP splicing silently times out. Such
	// firewalls are indistinguishable from splice-friendly ones in the
	// connectivity profile (outbound probing looks identical), which is
	// exactly why the establishment layer must be prepared for a
	// preferred method that hangs rather than fails fast.
	SpliceHostile bool
}

// Site is a collection of hosts sharing a firewall and NAT device.
type Site struct {
	fabric *Fabric
	name   string
	cfg    SiteConfig
	public Address // the site's externally visible gateway address

	mu        sync.Mutex
	hosts     []*Host
	openPorts map[int]Endpoint // explicit port forwarding: external port -> internal endpoint
	fw        *firewallState
	nat       *natState
	nextHost  int
}

// AddSite adds a site with the given name and configuration. Site names
// must be unique within the fabric.
func (f *Fabric) AddSite(name string, cfg SiteConfig) *Site {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.sites[name]; ok {
		panic(fmt.Sprintf("emunet: duplicate site %q", name))
	}
	f.nextPublic++
	f.nextSiteNet++
	s := &Site{
		fabric:    f,
		name:      name,
		cfg:       cfg,
		public:    Address(fmt.Sprintf("198.51.%d.1", f.nextPublic)),
		openPorts: make(map[int]Endpoint),
		fw:        newFirewallState(),
		nat:       newNATState(f.rng, cfg.NAT),
	}
	f.sites[name] = s
	return s
}

// Site returns the site with the given name, or nil.
func (f *Fabric) Site(name string) *Site {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sites[name]
}

// Sites returns the names of all sites in the fabric.
func (f *Fabric) Sites() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	names := make([]string, 0, len(f.sites))
	for n := range f.sites {
		names = append(names, n)
	}
	// Sorted, so scenario code iterating the fabric's sites behaves the
	// same on every run of a seed.
	sort.Strings(names)
	return names
}

// SetLink configures the WAN link parameters between two sites. The
// link changes under the connections already crossing it: their next
// bytes see the new capacity, delay, jitter and loss rate, and they go
// on sharing the link with connections opened afterwards.
// Setting Down severs every live connection currently crossing the
// site pair and makes new dials over it fail with ErrPartitioned until
// the link is configured up again (see also Partition and Heal).
func (f *Fabric) SetLink(siteA, siteB string, p LinkParams) {
	f.mu.Lock()
	k := orderedLinkKey(siteA, siteB)
	f.links[k] = p
	if pcs, ok := f.pacers[k]; ok {
		pcs[0].setParams(p)
		pcs[1].setParams(p)
	}
	var sever []*Conn
	if p.Down {
		for c := range f.conns[k] {
			sever = append(sever, c) //nolint:netibis-determinism // severed set is pointer-keyed; every conn is closed and close order is unobservable to the scenario
		}
	}
	f.mu.Unlock()
	// Close outside the fabric lock: Close re-enters untrackConn.
	for _, c := range sever {
		c.Close()
	}
}

// Partition takes the WAN link between two sites down, preserving its
// other parameters: existing connections across the pair are severed
// and new dials fail with ErrPartitioned until Heal.
func (f *Fabric) Partition(siteA, siteB string) {
	p := f.Link(siteA, siteB)
	p.Down = true
	f.SetLink(siteA, siteB, p)
}

// Heal brings a partitioned link back up, preserving its other
// parameters. Connections severed while the link was down stay dead;
// new dials succeed again.
func (f *Fabric) Heal(siteA, siteB string) {
	p := f.Link(siteA, siteB)
	p.Down = false
	f.SetLink(siteA, siteB, p)
}

// linkDown reports whether the link between two sites is partitioned.
func (f *Fabric) linkDown(siteA, siteB string) bool {
	if siteA == siteB {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	p, ok := f.links[orderedLinkKey(siteA, siteB)]
	return ok && p.Down
}

// trackConnPair registers both ends of a cross-site connection so a
// later partition of that site pair can sever them.
func (f *Fabric) trackConnPair(siteA, siteB string, a, b *Conn) {
	k := orderedLinkKey(siteA, siteB)
	a.fabric, a.pair = f, k
	b.fabric, b.pair = f, k
	f.mu.Lock()
	m := f.conns[k]
	if m == nil {
		m = make(map[*Conn]struct{})
		f.conns[k] = m
	}
	m[a] = struct{}{}
	m[b] = struct{}{}
	f.mu.Unlock()
}

// untrackConn removes a closed connection end from the severing index.
func (f *Fabric) untrackConn(k linkKey, c *Conn) {
	f.mu.Lock()
	if m := f.conns[k]; m != nil {
		delete(m, c)
		if len(m) == 0 {
			delete(f.conns, k)
		}
	}
	f.mu.Unlock()
}

// Link returns the link parameters between two sites (or the default).
// Intra-site traffic uses DefaultLAN.
func (f *Fabric) Link(siteA, siteB string) LinkParams {
	if siteA == siteB {
		return DefaultLAN
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if p, ok := f.links[orderedLinkKey(siteA, siteB)]; ok {
		return p
	}
	return f.defLink
}

// pacersFor returns the two directions of the path between two sites,
// the one siteA sends on first, creating the pair on first use. Every
// connection between the two sites shares them.
func (f *Fabric) pacersFor(siteA, siteB string) (out, back *pacer) {
	k := orderedLinkKey(siteA, siteB)
	if siteA == siteB {
		k = linkKey{siteA, siteA + "/lan"}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	pcs, ok := f.pacers[k]
	if !ok {
		// Read under the lock SetLink holds, or a SetLink between the
		// read and the insert would be lost on this pair for good.
		p, configured := f.links[k]
		switch {
		case siteA == siteB:
			p = DefaultLAN
		case !configured:
			p = f.defLink
		}
		// Each direction's jitter and loss streams are seeded from the
		// fabric seed and the link identity, so impaired runs replay
		// identically for a given -seed regardless of creation order.
		seed := f.seed ^ linkSeed(k)
		pcs = [2]*pacer{newPacer(p, f.timeScale, seed), newPacer(p, f.timeScale, seed+2)}
		f.pacers[k] = pcs
	}
	if siteA == k.a {
		return pcs[0], pcs[1]
	}
	return pcs[1], pcs[0]
}

// linkSeed derives a stable per-link seed component from the link key
// (FNV-1a over both site names).
func linkSeed(k linkKey) int64 {
	h := uint64(14695981039346656037)
	for _, s := range [2]string{k.a, k.b} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	return int64(h)
}

// Close shuts the fabric down; all hosts and connections become
// unusable. Cross-site connections are severed as by a partition: what
// they have in flight is dropped.
func (f *Fabric) Close() {
	f.mu.Lock()
	addrs := make([]string, 0, len(f.hosts))
	for a := range f.hosts {
		addrs = append(addrs, string(a))
	}
	sort.Strings(addrs) // deterministic teardown order
	hosts := make([]*Host, 0, len(addrs))
	for _, a := range addrs {
		hosts = append(hosts, f.hosts[Address(a)])
	}
	var sever []*Conn
	for _, conns := range f.conns {
		for c := range conns { //nolint:netibis-determinism // every conn is closed and close order is unobservable to the scenario
			sever = append(sever, c) //nolint:netibis-determinism // as above
		}
	}
	f.closed = true
	f.mu.Unlock()
	for _, h := range hosts {
		h.Close()
	}
	// Close outside the fabric lock: Close re-enters untrackConn.
	for _, c := range sever {
		c.Close()
	}
}

// Name returns the site's name.
func (s *Site) Name() string { return s.name }

// PublicAddress returns the site's externally visible gateway address.
func (s *Site) PublicAddress() Address { return s.public }

// Config returns the site's configuration.
func (s *Site) Config() SiteConfig { return s.cfg }

// Hosts returns all hosts added to the site.
func (s *Site) Hosts() []*Host {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Host(nil), s.hosts...)
}

// OpenPort configures explicit port forwarding: incoming connections to
// the site's public address at extPort are forwarded to the internal
// endpoint. This models the manual "selectively open some TCP ports"
// practice the paper argues against; it exists so tests can contrast the
// approaches.
func (s *Site) OpenPort(extPort int, internal Endpoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.openPorts[extPort] = internal
}

// AllowEgress adds an address to the set reachable through a Strict
// firewall.
func (s *Site) AllowEgress(addr Address) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.AllowedEgress = append(s.cfg.AllowedEgress, addr)
}

// hostsArePrivate reports whether this site's hosts carry non-routable
// addresses.
func (s *Site) hostsArePrivate() bool {
	return s.cfg.NAT != NoNAT || s.cfg.PrivateAddresses
}

// AddHost adds a host to the site. Host addresses are assigned
// automatically: public sites hand out routable addresses, NAT'ed or
// private sites hand out 10.x addresses.
func (s *Site) AddHost(name string) *Host {
	s.mu.Lock()
	s.nextHost++
	var addr Address
	if s.hostsArePrivate() {
		addr = Address(fmt.Sprintf("10.%d.0.%d", siteNumber(s), s.nextHost))
	} else {
		addr = Address(fmt.Sprintf("198.51.%d.%d", siteNumber(s), s.nextHost+1))
	}
	h := &Host{
		site:      s,
		fabric:    s.fabric,
		name:      name,
		addr:      addr,
		listeners: make(map[int]*Listener),
		nextPort:  10000,
	}
	s.hosts = append(s.hosts, h)
	s.mu.Unlock()

	s.fabric.mu.Lock()
	s.fabric.hosts[addr] = h
	s.fabric.mu.Unlock()
	return h
}

// siteNumber derives a stable small integer from the site's public
// address (which embeds the allocation counter).
func siteNumber(s *Site) int {
	var n int
	fmt.Sscanf(string(s.public), "198.51.%d.1", &n)
	return n
}

// canEgress reports whether a host in this site may open an outgoing
// connection to the given destination address.
func (s *Site) canEgress(dst Address) error {
	if s.cfg.Firewall != Strict {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.cfg.AllowedEgress {
		if a == dst {
			return nil
		}
	}
	return ErrEgressDenied
}

// allowInbound decides whether an unsolicited incoming connection request
// (a SYN that is not part of an already recorded outgoing flow) to the
// given internal endpoint is admitted by the site's firewall.
func (s *Site) allowInbound(from Endpoint, to Endpoint) bool {
	switch s.cfg.Firewall {
	case Open:
		return true
	default:
		// Stateful and Strict: only flows previously initiated from the
		// inside, or explicitly opened ports, are admitted.
		if s.fw.established(to, from) {
			return true
		}
		s.mu.Lock()
		_, open := s.openPorts[to.Port]
		s.mu.Unlock()
		return open
	}
}

// forwardedEndpoint resolves an explicitly opened external port to its
// configured internal endpoint, if any.
func (s *Site) forwardedEndpoint(extPort int) (Endpoint, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ep, ok := s.openPorts[extPort]
	return ep, ok
}

// --- firewall state ---------------------------------------------------------

// flowKey identifies a bidirectional flow by its two endpoints as seen on
// the external side of the site.
type flowKey struct {
	local, remote Endpoint
}

// firewallState records the flows initiated from inside a site, so that
// return traffic (and the peer's SYN during TCP splicing) is admitted.
type firewallState struct {
	mu    sync.Mutex
	flows map[flowKey]time.Time
}

func newFirewallState() *firewallState {
	return &firewallState{flows: make(map[flowKey]time.Time)}
}

// recordOutgoing notes that an internal endpoint sent a connection
// request to a remote endpoint. local must be the externally visible
// (post-NAT) endpoint.
func (fw *firewallState) recordOutgoing(local, remote Endpoint) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	fw.flows[flowKey{local, remote}] = time.Now() //nolint:netibis-determinism // firewall flow timestamps are bookkeeping; reachability is set-membership
}

// established reports whether an incoming packet addressed to local from
// remote belongs to a flow previously initiated from the inside.
func (fw *firewallState) established(local, remote Endpoint) bool {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	_, ok := fw.flows[flowKey{local, remote}]
	return ok
}

// flowCount returns the number of recorded flows (for tests).
func (fw *firewallState) flowCount() int {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return len(fw.flows)
}

// --- NAT state ---------------------------------------------------------------

// natMapping records the translation of one internal endpoint.
type natMapping struct {
	external int
}

// natState models the site's NAT device. CompliantNAT is
// endpoint-independent and port-preserving where possible, so its
// mappings are predictable; BrokenNAT picks a fresh random external port
// for every new destination, which is what defeats TCP splicing in the
// paper's experiments. PortRestrictedNAT is endpoint-independent like
// CompliantNAT but shifts every mapping into a disjoint port range, so
// the host's port-preserving prediction is always wrong — splicing is
// attempted (the profile looks fine) and then deterministically fails.
type natState struct {
	mu       sync.Mutex
	mode     NATMode
	rng      *rand.Rand
	mappings map[Endpoint]natMapping // internal endpoint -> external port (compliant)
	perDest  map[string]int          // internal+dest -> external port (broken)
	reverse  map[int]Endpoint        // external port -> internal endpoint
	used     map[int]bool            // external ports in use
}

func newNATState(rng *rand.Rand, mode NATMode) *natState {
	return &natState{
		mode:     mode,
		rng:      rng,
		mappings: make(map[Endpoint]natMapping),
		perDest:  make(map[string]int),
		reverse:  make(map[int]Endpoint),
		used:     make(map[int]bool),
	}
}

// translate maps an internal source endpoint to the external port used
// for traffic towards dst, creating a mapping if needed.
func (n *natState) translate(internal Endpoint, dst Endpoint) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch n.mode {
	case NoNAT:
		return internal.Port
	case CompliantNAT:
		if m, ok := n.mappings[internal]; ok {
			return m.external
		}
		ext := internal.Port
		for n.used[ext] {
			ext++
		}
		n.mappings[internal] = natMapping{external: ext}
		n.reverse[ext] = internal
		n.used[ext] = true
		return ext
	case PortRestrictedNAT:
		// Endpoint-independent, so the mapping is reused across
		// destinations, but shifted out of the internal port range: the
		// host's port-preserving prediction never matches.
		if m, ok := n.mappings[internal]; ok {
			return m.external
		}
		ext := internal.Port + portRestrictedShift
		for n.used[ext] {
			ext++
		}
		n.mappings[internal] = natMapping{external: ext}
		n.reverse[ext] = internal
		n.used[ext] = true
		return ext
	default: // BrokenNAT
		key := internal.String() + "->" + dst.String()
		if ext, ok := n.perDest[key]; ok {
			return ext
		}
		ext := 20000 + n.rng.Intn(40000)
		for n.used[ext] {
			ext = 20000 + n.rng.Intn(40000)
		}
		n.perDest[key] = ext
		n.reverse[ext] = internal
		n.used[ext] = true
		return ext
	}
}

// predict returns the external port an internal endpoint would expect to
// be mapped to, as advertised during splice brokering. A compliant NAT
// is endpoint-independent: the probe that learns the port creates the
// mapping, so the prediction is the mapping, and no other flow of the
// site can take the port before the splice uses it. For a broken NAT the
// prediction does not match reality.
func (n *natState) predict(internal Endpoint) int {
	switch n.mode {
	case NoNAT, CompliantNAT:
		return n.translate(internal, Endpoint{})
	default:
		// Broken and port-restricted NATs also advertise the
		// port-preserving prediction; the actual mapping will differ,
		// which is exactly the failure mode observed in the paper.
		return internal.Port
	}
}

// portRestrictedShift is the offset a PortRestrictedNAT applies to every
// mapping, guaranteeing the port-preserving prediction misses.
const portRestrictedShift = 5000

// lookup resolves an external port back to the internal endpoint, for
// inbound traffic on an established mapping.
func (n *natState) lookup(extPort int) (Endpoint, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ep, ok := n.reverse[extPort]
	return ep, ok
}
