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
// # Frames
//
// A node attaches with KindAttach, whose payload is its identity.Hello
// and opens identity's handshake; KindAttachOK (empty) says the node is
// routable. Every routed frame's payload is the routed header and a
// body (string and bytes are uvarint-length-prefixed):
//
//	routed header   string dst ‖ uvarint channel
//	open, open-OK   string from ‖ uvarint window ‖ bytes blob [‖ byte purpose [‖ uvarint k]]
//	open failure    empty
//	data            string from ‖ uvarint role ‖ bytes payload
//	credit          string from ‖ uvarint role ‖ uvarint bytes
//	shut, abandon   string from ‖ uvarint role
//
// In an open or open-OK, window is the sender's receive window and blob
// its end-to-end offer (an open) or answer (an open-OK), empty when the
// sender does not seal. purpose ends an open only: PurposeService alone,
// or PurposeData and the establishment k of the accepting node's connect
// the link is for; the accepted link reports both (Purpose). An open
// without them is untagged. decodeOpenBody says what is malformed. Who a
// link is from is its Peer().
//
// A routed open that loses an establishment race (package estab) is the
// one loser whose cleanup needs a message, for the far side has accepted
// the link or is about to. KindAbandon has KindShut's body and discards
// the link outright instead of half-closing it: the receiving client
// removes it, marks it Abandoned, fails its pending reads with
// ErrAbandoned and a pending dial of the same channel like a refusal (an
// abandon can cross an open-OK). The dialer sends it from DialPurpose
// (the open pending, canceled or timed out) or from Abort on the routed
// conn (the open completed), and consumers holding the conn in an accept
// backlog skip it.
//
// # Flow control
//
// Virtual links are flow controlled (KindCredit), unconditionally: an
// open or open-OK whose window is missing or zero is malformed — the
// acceptor refuses the open, the dialer fails the dial with
// identity.ErrMalformed and abandons the far half — so no peer opts out
// of bounded memory. A sender consumes window for every data byte and
// blocks once the peer's window is exhausted, honouring the write
// deadline and re-checking closure at every frame boundary; the reader
// grants drained bytes back in batches of half a window. Once the peer
// has shut the link no credit will come, so a writer parked at the window
// is released and later writes go into the void. A receiver queues at
// most twice its window (a failover's over-grant looks the same) and
// fails the link with ErrWindowExceeded past it.
//
// Inside the Server, frames towards each attached node cross a bounded,
// source-fair egress scheduler (Egress) drained by a per-node writer
// goroutine: one stalled destination connection backpressures only the
// links feeding it, never unrelated traffic through the relay. See
// DESIGN.md, "Flow control on routed links".
//
// Virtual links can be secured end to end (package identity): with a
// trust store a Server demands identity's authenticated attach, and
// clients given an identity and a trust store (AttachAuth) seal every
// link with identity's link key agreement or fail it. Relays forward
// sealed frames through the same cut-through, egress and credit
// machinery; only the routing header and the frame kinds stay
// cleartext. See DESIGN.md, "Identity and end-to-end security".
package relay
