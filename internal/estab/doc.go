// Package estab implements NetIbis connection establishment: the four
// methods of paper Section 3 (client/server TCP, TCP splicing, TCP
// proxies, routed messages), the property matrix of Table 1, the
// decision tree of Figure 4, and the bootstrap and brokered socket
// factories of Section 5.2 that put them to work.
//
// Establishment is strictly separated from link utilization: the
// factories produce plain net.Conn links; the driver stacks of package
// driver consume them. This separation is the paper's central design
// point, because it is what makes compression, parallel streams and
// encryption composable with whichever establishment method the
// topology requires.
//
// On top of the decision tree the package adds two latency mechanisms
// the paper's analysis motivates but does not implement:
//
//   - Racing establishment (race.go): instead of committing to the
//     single method the profiles predict, the ranked candidate list is
//     launched with staggered head starts, the first success wins, and
//     the losers are canceled and cleaned up on both sides. This bounds
//     the setup cost of a pair whose preferred method hangs — an
//     asymmetric splice-hostile firewall, an unpredictable NAT — to one
//     stagger tier (one service-link round trip, as measured by the
//     caller) instead of a full method timeout. Both sides derive the
//     candidates from the two profiles and take every endpoint from the
//     connect exchange, so an establishment costs its method's own
//     handshake and one election.
//   - A per-pair connectivity cache (cache.go): the winning method is
//     remembered with a TTL, so a reconnect launches the winner alone;
//     a failure invalidates the entry and launches the rest of the
//     ranking in the same conversation.
//
// Both run on one conversation layer (mux.go): a ServiceMux owns the
// service link for the length of a connect, gives every establishment a
// Conversation, and routes each brokering message — an abort or the
// election — to the establishment it belongs to.
//
// The brokering wire protocol, the race and the cache
// semantics are specified in DESIGN.md ("Racing establishment and the
// connectivity cache"); connect latency per method, cold and cached, is
// measured by the connect_matrix workload of ./benchmark.
//
// Establishment composes with the security layer transparently: the
// routed method's dials and accepts go through the relay client, so on
// nodes configured with identities (core.Config.NodeIdentity/Trust)
// the racing candidates' routed links come up authenticated and sealed
// end to end with no changes here — a routed candidate that fails its
// key exchange simply loses the race like any other failed method.
package estab
