// Package relay implements the "routed messages" connection method of
// the paper (Section 3.3, Figure 3).
//
// A relay runs on a gateway machine that every node can reach with an
// ordinary outgoing connection — even nodes behind firewalls, NAT or
// SOCKS proxies. Each node keeps a single persistent connection to the
// relay. On top of that connection the relay offers virtual links: a
// node asks the relay to open a link to another node (identified by a
// location-independent node ID), the relay forwards the request over
// the target's persistent connection, and from then on relays data
// frames in both directions.
//
// Routed links have modest performance (every byte crosses the relay,
// which adds a receive/forward hop and makes the relay a shared
// bottleneck), so NetIbis uses them for bootstrap and service links and
// for data only as a last resort — exactly as the paper prescribes.
//
// A single relay is also a single point of failure and a shared
// bottleneck. Package overlay federates several relay Servers into a
// mesh: a Server exposes a Forwarder hook that is consulted for frames
// addressed to nodes not attached locally, and an Inject entry point
// through which the mesh delivers frames that arrived from peer relays.
// The Client correspondingly supports Resume, which re-attaches the same
// node identity over a fresh connection to a (possibly different) relay
// while keeping the established virtual links alive: routing is purely
// by node ID, so links survive a relay failover as long as both
// endpoints stay attached somewhere in the mesh.
//
// Beyond open/data/shut, virtual links support an abandon handshake
// (KindAbandon, Client.DialCancel, the Abort method on routed conns) for
// the racing establishment of package estab: a link opened for an
// establishment that lost the race is discarded outright — the far side
// marks it Abandoned and its consumers skip it — rather than half-closed
// like a used connection. The frame format is documented in DESIGN.md.
//
// Virtual links are flow controlled (KindCredit): each side advertises
// a receive window at open time, a sender blocks once the peer's window
// is exhausted (routed conns honour real read/write deadlines), and the
// reader grants drained bytes back in credit frames — so a fast sender
// over a slow or stalled reader holds bounded memory end to end. Inside
// the Server, frames towards each attached node cross a bounded,
// source-fair egress scheduler (Egress) drained by a per-node writer
// goroutine: one stalled destination connection backpressures only the
// links feeding it, never unrelated traffic through the relay. See
// DESIGN.md, "Flow control on routed links".
//
// Virtual links can be secured end to end (package identity): with a
// trust store a Server demands an authenticated attach — identity's
// handshake, proving possession of an Ed25519 key bound to the claimed
// node ID, with typed refusals — and clients given an identity and a
// trust store via
// AttachAuth run an identity-signed X25519 exchange in the open/open-OK
// bodies of every link, or fail it, and seal every data frame with
// per-direction AEAD subkeys before it enters the relay path. Relays forward such frames as ciphertext through the
// unchanged cut-through/egress/credit machinery; only the routing
// header and control kinds stay cleartext. See DESIGN.md, "Identity and
// end-to-end security".
package relay
