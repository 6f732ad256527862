// Package overlay federates routed-messages relays (package relay) into
// a mesh, removing the single relay's bottleneck and single point of
// failure on the way to wide-area scale. The paper (Section 3.3)
// deploys a single relay per grid; the mesh is this reproduction's
// extension of that design towards production scale.
//
// Every relay of the mesh:
//
//   - registers itself in the Ibis Name Service under the well-known
//     prefix RegistryPrefix, so nodes and other relays discover the
//     full relay set from the registry alone;
//   - dials the other relays to form peer links (the relay with the
//     lexicographically smaller ID initiates, so exactly one link per
//     pair emerges without extra negotiation);
//   - gossips a versioned attachment directory — node ID → home relay —
//     over those links: a full snapshot when a peer link comes up,
//     deltas whenever a node attaches or detaches locally;
//   - forwards routed frames addressed to nodes attached elsewhere to
//     the destination's home relay, where they are injected into the
//     node's ordinary relay connection.
//
// Forwarding loops are impossible by construction: a frame is forwarded
// at most DefaultMaxHops times, never back over the link it arrived on, and
// never to the relay itself. When a forwarded frame reaches a relay
// that no longer hosts the destination (a stale route), the relay NACKs
// back to the origin, which repairs its directory and — for link-open
// frames — fails the open so the dialing node sees an ordinary refusal
// instead of a hang.
//
// The mesh forwards the relay node protocol opaquely by frame kind,
// which is how the abandon frames of lost establishment races (see
// relay.KindAbandon and package estab's racing) cross relay boundaries
// without the overlay knowing about them.
//
// # Peer-link frames
//
// One listener serves nodes and peer relays: the relay server hands the
// overlay every connection whose first frame is not a node attach
// (relay.Server.SetConnHandler). The peer-link kinds, disjoint from the
// node protocol:
//
//	peer hello  the dialer's identity.Hello, opening identity's handshake
//	gossip      uvarint n ‖ n × (string node ‖ string home ‖ uvarint version ‖ byte present)
//	forward     string origin ‖ string firstHop ‖ string srcNode ‖ uvarint hops ‖ byte kind ‖ bytes routed
//	nack        string origin ‖ string dst ‖ string srcNode ‖ uvarint channel ‖ byte kind
//
// A gossip frame is a snapshot when a peer link comes up and a delta on
// every local attach or detach; directory.merge has the rules. firstHop
// is the relay the origin chose, so a frame that loops home repairs
// exactly that route, and a NACK goes back over the link its frame
// arrived on, so the repair walks the reverse path.
//
// With identities configured (Config.Identity/Trust, package identity)
// the mesh is closed to strangers: peer links are mutually
// authenticated before any gossip or forwarded frame is exchanged, the
// relay's registry record is signed so discovery cannot be redirected
// by a registry poisoner, and a trust-enforcing mesh skips unsigned or
// mis-signed records entirely (ListRelays). See DESIGN.md, "Identity and
// end-to-end security".
package overlay
