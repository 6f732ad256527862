package estab

import (
	"errors"
	"fmt"

	"netibis/internal/emunet"
	"netibis/internal/wire"
)

// Method identifies one connection establishment method.
type Method int

const (
	// MethodNone is the zero value: no method selected.
	MethodNone Method = iota
	// ClientServer is the ordinary TCP handshake (Section 3.1): one side
	// listens, the other connects.
	ClientServer
	// Splicing is TCP simultaneous open (Section 3.2): both sides
	// connect to each other at the same time, which stateful firewalls
	// on both sides interpret as outgoing connections.
	Splicing
	// Proxy establishes the connection through a SOCKS proxy on a
	// gateway machine (Section 3.3), used when splicing is impossible
	// (strict firewalls, broken NAT).
	Proxy
	// Routed uses the relay-based routed messages method (Section 3.3):
	// all traffic crosses an application-level relay on a public
	// gateway. The only method that works in every topology, and the
	// only one that needs no pre-existing peer connection, but also the
	// slowest; used for bootstrap and service links.
	Routed
)

var methodNames = [...]string{"none", "client/server", "tcp-splicing", "tcp-proxy", "routed-messages"}

// String implements fmt.Stringer.
func (m Method) String() string {
	if m >= 0 && int(m) < len(methodNames) {
		return methodNames[m]
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// NATSupport grades how well a method copes with network address
// translation, using the paper's terminology from Table 1.
type NATSupport int

const (
	// NATNo means the method does not work through NAT.
	NATNo NATSupport = iota
	// NATClientOnly means only the connecting (client) side may be
	// behind NAT.
	NATClientOnly
	// NATPartial means the method works only with well-behaved
	// (predictable, endpoint-independent) NAT implementations.
	NATPartial
	// NATYes means the method works behind any NAT.
	NATYes
)

var natSupportNames = [...]string{"no", "client", "partial", "yes"}

// String implements fmt.Stringer.
func (n NATSupport) String() string {
	if n >= 0 && int(n) < len(natSupportNames) {
		return natSupportNames[n]
	}
	return fmt.Sprintf("NATSupport(%d)", int(n))
}

// Properties is one row of the paper's Table 1.
type Properties struct {
	// CrossesFirewalls: can a connection be established between sites
	// whose firewalls block incoming connection requests?
	CrossesFirewalls bool
	// NAT grades NAT support.
	NAT NATSupport
	// Bootstrap: usable without any pre-existing connection between the
	// hosts (no negotiation possible).
	Bootstrap bool
	// NativeTCP: the resulting link is a native TCP connection that can
	// be composed with all link utilization methods.
	NativeTCP bool
	// Relayed: data crosses an intermediate relay, which adds latency
	// and makes the relay a shared bottleneck.
	Relayed bool
	// NeedsBrokering: both endpoints must negotiate over an existing
	// (service) connection before this method can run.
	NeedsBrokering bool
}

// Table1 is the paper's Table 1: the property matrix of all four
// connection establishment methods.
var Table1 = map[Method]Properties{
	ClientServer: {
		CrossesFirewalls: false,
		NAT:              NATClientOnly,
		Bootstrap:        true,
		NativeTCP:        true,
		Relayed:          false,
		NeedsBrokering:   false,
	},
	Splicing: {
		CrossesFirewalls: true,
		NAT:              NATPartial,
		Bootstrap:        false,
		NativeTCP:        true,
		Relayed:          false,
		NeedsBrokering:   true,
	},
	Proxy: {
		CrossesFirewalls: true,
		NAT:              NATYes,
		Bootstrap:        false,
		NativeTCP:        true,
		Relayed:          true,
		NeedsBrokering:   true,
	},
	Routed: {
		CrossesFirewalls: true,
		NAT:              NATYes,
		Bootstrap:        true,
		NativeTCP:        false,
		Relayed:          true,
		NeedsBrokering:   false,
	},
}

// PropertiesOf returns the Table 1 row for a method.
func PropertiesOf(m Method) Properties { return Table1[m] }

// Precedence is the paper's preference order (Section 3.4): native TCP
// beats relayed transport, direct beats proxied, and methods that need
// no brokering beat those that do.
var Precedence = []Method{ClientServer, Splicing, Proxy, Routed}

// Profile summarises one endpoint's connectivity situation, as exchanged
// during brokering. It is the estab-level view of emunet.Topology plus
// the resources (relay attachment, SOCKS proxy) the endpoint can use.
type Profile struct {
	// SiteName names the endpoint's site; endpoints in the same site
	// can always connect directly.
	SiteName string
	// Firewalled is true when unsolicited inbound connections are
	// dropped.
	Firewalled bool
	// Strict is true when even outbound connections are restricted to a
	// whitelist (so neither direct dialing nor splicing is possible).
	Strict bool
	// NAT is the site's NAT behaviour.
	NAT emunet.NATMode
	// PrivateAddr is true when the endpoint's own address is not
	// routable from other sites.
	PrivateAddr bool
	// Addr is the endpoint's own address.
	Addr emunet.Address
	// PublicAddr is the address under which the endpoint (or its
	// gateway) appears externally.
	PublicAddr emunet.Address
	// HasProxy is true when a SOCKS proxy is configured for this
	// endpoint.
	HasProxy bool
	// HasRelay is true when the endpoint holds a connection to the
	// routed-messages relay.
	HasRelay bool
	// RelayID is the endpoint's node identity at the relay.
	RelayID string
	// HomeRelay names the relay-mesh member the endpoint is attached to
	// (empty for unnamed single relays). When the two endpoints report
	// different home relays, a routed link crosses the overlay mesh:
	// the initiator's relay forwards the frames to the acceptor's home
	// relay, so the method works unchanged — but the directory gossip
	// announcing a freshly attached node may still be in flight, which
	// is why the routed method retries refused cross-relay opens
	// briefly. When the homes match, a refusal is authoritative and
	// establishRouted fails the open immediately.
	HomeRelay string
}

// Reachable reports whether a peer in another site can open a direct
// client/server connection to this endpoint.
func (p Profile) Reachable() bool {
	return !p.Firewalled && p.NAT == emunet.NoNAT && !p.PrivateAddr
}

// Spliceable reports whether this endpoint can take part in TCP
// splicing: it must be able to send outgoing connection requests
// directly (no strict firewall), must have a routable external
// appearance, and its NAT (if any) must produce predictable mappings.
func (p Profile) Spliceable() bool {
	if p.Strict {
		return false
	}
	if p.NAT == emunet.BrokenNAT {
		return false
	}
	if p.PrivateAddr && p.NAT == emunet.NoNAT {
		// Private address without NAT: packets cannot come back.
		return false
	}
	return true
}

// Encode serialises the profile for the brokering protocol.
func (p Profile) Encode() []byte {
	var b []byte
	b = wire.AppendString(b, p.SiteName)
	flags := byte(0)
	if p.Firewalled {
		flags |= 1
	}
	if p.Strict {
		flags |= 2
	}
	if p.PrivateAddr {
		flags |= 4
	}
	if p.HasProxy {
		flags |= 8
	}
	if p.HasRelay {
		flags |= 16
	}
	b = append(b, flags, byte(p.NAT))
	b = wire.AppendString(b, string(p.Addr))
	b = wire.AppendString(b, string(p.PublicAddr))
	b = wire.AppendString(b, p.RelayID)
	b = wire.AppendString(b, p.HomeRelay)
	return b
}

// DecodeProfile parses a profile encoded with Encode.
func DecodeProfile(b []byte) (Profile, error) {
	d := wire.NewDecoder(b)
	var p Profile
	p.SiteName = d.String()
	flags := d.Byte()
	nat := d.Byte()
	p.Firewalled = flags&1 != 0
	p.Strict = flags&2 != 0
	p.PrivateAddr = flags&4 != 0
	p.HasProxy = flags&8 != 0
	p.HasRelay = flags&16 != 0
	p.NAT = emunet.NATMode(nat)
	p.Addr = emunet.Address(d.String())
	p.PublicAddr = emunet.Address(d.String())
	p.RelayID = d.String()
	p.HomeRelay = d.String()
	if d.Err() != nil || d.Remaining() != 0 {
		return Profile{}, errors.New("estab: corrupt profile")
	}
	return p, nil
}

// --- decision tree ----------------------------------------------------------------

// ErrNoMethod is returned when no establishment method can connect the
// two endpoints (e.g. neither has a relay and both are unreachable).
var ErrNoMethod = errors.New("estab: no connection establishment method possible")

// canDialDirect reports whether `from` can open an ordinary outgoing TCP
// connection straight to `to`.
func canDialDirect(from, to Profile) bool {
	if from.SiteName != "" && from.SiteName == to.SiteName {
		return true // LAN traffic bypasses the site firewall
	}
	if from.Strict {
		return false
	}
	return to.Reachable()
}

// Possible reports whether a method can connect the two endpoints. The
// initiator is the side that asked for the connection; for symmetric
// methods the distinction is irrelevant.
func Possible(m Method, initiator, acceptor Profile, bootstrap bool) bool {
	switch m {
	case ClientServer:
		return canDialDirect(initiator, acceptor) || (!bootstrap && canDialDirect(acceptor, initiator))
	case Splicing:
		if bootstrap {
			return false // needs brokering
		}
		if initiator.SiteName != "" && initiator.SiteName == acceptor.SiteName {
			return true
		}
		return initiator.Spliceable() && acceptor.Spliceable()
	case Proxy:
		if bootstrap {
			return false // needs brokering
		}
		return (initiator.HasProxy && acceptor.Reachable()) ||
			(acceptor.HasProxy && initiator.Reachable())
	case Routed:
		return initiator.HasRelay && acceptor.HasRelay
	default:
		return false
	}
}

// Decide is the paper's decision tree (Figure 4): the first method of
// the precedence list that can connect the two endpoints, which is the
// head of RankCandidates.
func Decide(initiator, acceptor Profile, bootstrap bool) (Method, error) {
	if ranked := RankCandidates(initiator, acceptor, bootstrap); len(ranked) > 0 {
		return ranked[0], nil
	}
	return MethodNone, ErrNoMethod
}

// RankCandidates returns every method that can connect the two
// endpoints, in precedence order; the racing establishment (race.go)
// uses the whole list as its staggered launch plan.
func RankCandidates(initiator, acceptor Profile, bootstrap bool) []Method {
	var out []Method
	for _, m := range Precedence {
		if bootstrap && !Table1[m].Bootstrap {
			continue
		}
		if Possible(m, initiator, acceptor, bootstrap) {
			out = append(out, m)
		}
	}
	return out
}
