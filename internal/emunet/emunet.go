package emunet

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Network is the net.Addr network name used by emulated endpoints.
const Network = "emu"

// Address is an emulated IP address, e.g. "198.51.100.7" (public) or
// "10.3.0.2" (private). Addresses are plain strings; emunet assigns them
// but callers may also construct them directly.
type Address string

// IsPrivate reports whether the address lies in the emulated private
// (RFC 1918 style) range used by NAT'ed sites.
func (a Address) IsPrivate() bool {
	return len(a) >= 3 && a[:3] == "10."
}

// Endpoint identifies a transport endpoint in the emulated internet.
type Endpoint struct {
	Addr Address
	Port int
}

// Network implements net.Addr.
func (e Endpoint) Network() string { return Network }

// String implements net.Addr.
func (e Endpoint) String() string { return fmt.Sprintf("%s:%d", e.Addr, e.Port) }

// IsZero reports whether the endpoint is unset.
func (e Endpoint) IsZero() bool { return e.Addr == "" && e.Port == 0 }

// ParseEndpoint parses the "addr:port" form produced by Endpoint.String,
// used e.g. by overlay relay advertisements in the name service.
func ParseEndpoint(s string) (Endpoint, bool) {
	i := strings.LastIndexByte(s, ':')
	if i <= 0 {
		return Endpoint{}, false
	}
	port, err := strconv.Atoi(s[i+1:])
	if err != nil || port <= 0 {
		return Endpoint{}, false
	}
	return Endpoint{Addr: Address(s[:i]), Port: port}, true
}

// FirewallPolicy describes a site's ingress/egress filtering behaviour.
type FirewallPolicy int

const (
	// Open sites do not filter traffic at all (e.g. a university cluster
	// directly on the public Internet, as some DAS-2 sites were).
	Open FirewallPolicy = iota
	// Stateful firewalls allow all outgoing connections and allow
	// incoming packets only on flows previously initiated from inside
	// (or on explicitly opened ports). This is the common case the
	// paper targets with TCP splicing.
	Stateful
	// Strict firewalls additionally forbid direct outgoing connections;
	// only egress to an explicitly allowed set of gateway/proxy
	// addresses is permitted. The paper calls this a "severe firewall
	// (e.g., one which even forbids outgoing connections except through
	// a well-controlled proxy)".
	Strict
)

// String implements fmt.Stringer.
func (p FirewallPolicy) String() string {
	switch p {
	case Open:
		return "open"
	case Stateful:
		return "stateful"
	case Strict:
		return "strict"
	default:
		return fmt.Sprintf("FirewallPolicy(%d)", int(p))
	}
}

// NATMode describes a site's network address translation behaviour.
type NATMode int

const (
	// NoNAT means hosts in the site have routable addresses.
	NoNAT NATMode = iota
	// CompliantNAT is an endpoint-independent, port-preserving NAT:
	// the external mapping of (private address, private port) is
	// predictable, so TCP splicing across it works once the peers have
	// exchanged their predicted external endpoints.
	CompliantNAT
	// BrokenNAT models the non-standards-compliant NAT implementations
	// the paper encountered: the external port chosen for a mapping is
	// unpredictable (and differs per destination), so TCP splicing
	// fails and a SOCKS proxy must be used instead.
	BrokenNAT
	// PortRestrictedNAT models a NAT that is endpoint-independent (one
	// mapping per internal endpoint, so it looks well behaved from the
	// inside) but not port preserving: the external port differs from
	// the internal one in a way the host cannot predict. Unlike
	// BrokenNAT, whose misbehaviour is advertised in the connectivity
	// profile, a port-restricted NAT looks spliceable during brokering —
	// the splice is attempted in good faith and then times out. It
	// exists to give the racing establishment layer a realistic
	// preferred-method-that-loses scenario.
	PortRestrictedNAT
)

// String implements fmt.Stringer.
func (m NATMode) String() string {
	switch m {
	case NoNAT:
		return "none"
	case CompliantNAT:
		return "compliant"
	case BrokenNAT:
		return "broken"
	case PortRestrictedNAT:
		return "port-restricted"
	default:
		return fmt.Sprintf("NATMode(%d)", int(m))
	}
}

// LinkParams describes the performance characteristics of a WAN link
// between two sites (or of the default inter-site path).
type LinkParams struct {
	// CapacityBps is the link capacity in bytes per second.
	CapacityBps float64
	// RTT is the round-trip time of the link.
	RTT time.Duration
	// LossRate is the probability that a segment is lost. The data
	// plane delivers reliably, as TCP does: a loss costs the segment
	// and what is behind it on its connection one RTT and halves the
	// connection's congestion window (see the package comment). It is
	// also what the throughput model in package simtcp reads. Ignored
	// at time scale 0.
	LossRate float64
	// Jitter is the maximum additional random one-way delay on top of
	// RTT/2. The jitter of each run of at most two segments is drawn
	// uniformly from [0, Jitter) by a per-direction seeded generator,
	// so runs are replayable; a connection's bytes still arrive in
	// order. Like RTT, jitter is scaled by the fabric time scale and
	// ignored entirely at time scale 0.
	Jitter time.Duration
	// Down marks the link as partitioned: new cross-site connections
	// over it fail with ErrPartitioned and existing connections are
	// severed when the link goes down (SetLink with Down set, or
	// Fabric.Partition). Healing the link (Down=false, or Fabric.Heal)
	// admits new connections; severed ones stay dead, as after a real
	// outage.
	Down bool
}

// DefaultLAN are the parameters used for intra-site traffic and as the
// fallback for unspecified inter-site links: a 100 Mbit/s Ethernet with
// a 0.2 ms round-trip, matching the LAN the paper quotes in Section 4.1.
var DefaultLAN = LinkParams{
	CapacityBps: 12.5e6,
	RTT:         200 * time.Microsecond,
	LossRate:    0,
}

// Errors returned by dial and listen operations.
var (
	// ErrBlocked indicates a firewall dropped the connection request.
	ErrBlocked = errors.New("emunet: connection blocked by firewall")
	// ErrUnreachable indicates the destination address is not routable
	// from the source (e.g. a private address in another site).
	ErrUnreachable = errors.New("emunet: destination unreachable")
	// ErrConnRefused indicates no listener is bound at the destination.
	ErrConnRefused = errors.New("emunet: connection refused")
	// ErrPortInUse indicates the local port is already bound.
	ErrPortInUse = errors.New("emunet: port already in use")
	// ErrSpliceTimeout indicates simultaneous open did not complete in
	// time (typically because a NAT mangled the predicted endpoint).
	ErrSpliceTimeout = errors.New("emunet: TCP splice timed out")
	// ErrSpliceCanceled indicates the caller withdrew a simultaneous
	// open before it completed (e.g. another establishment method won a
	// race against it).
	ErrSpliceCanceled = errors.New("emunet: TCP splice canceled")
	// ErrClosed indicates the host, listener or fabric has been closed.
	ErrClosed = errors.New("emunet: closed")
	// ErrEgressDenied indicates a strict firewall refused an outgoing
	// connection to a non-whitelisted destination.
	ErrEgressDenied = errors.New("emunet: outgoing connection denied by strict firewall")
	// ErrPartitioned indicates the WAN link between the two sites is
	// down (LinkParams.Down): the destination exists but no path to it
	// is currently available.
	ErrPartitioned = errors.New("emunet: link partitioned")
)

// Topology summarises the connectivity situation of a host, as needed by
// the connection establishment decision tree (paper Figure 4).
type Topology struct {
	// SiteName is the name of the host's site.
	SiteName string
	// Firewalled is true when incoming connections from other sites are
	// filtered (Stateful or Strict policy).
	Firewalled bool
	// StrictFirewall is true when even outgoing connections are
	// restricted to the allowed egress list.
	StrictFirewall bool
	// NAT reports the site's NAT mode.
	NAT NATMode
	// PrivateAddr is true when the host's own address is not routable
	// from other sites.
	PrivateAddr bool
	// PublicAddr is the address under which the host (or its site
	// gateway) can be reached from the outside, if any.
	PublicAddr Address
	// AllowedEgress lists the gateway/proxy addresses reachable despite
	// a strict firewall.
	AllowedEgress []Address
}

// Reachable reports whether a peer on another site could, in principle,
// open a direct client/server TCP connection to this host without any
// explicit firewall holes.
func (t Topology) Reachable() bool {
	return !t.Firewalled && t.NAT == NoNAT && !t.PrivateAddr
}
