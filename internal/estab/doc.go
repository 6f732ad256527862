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
// On top of the decision tree the package adds what the paper's
// analysis motivates but does not implement: the ranked candidates race
// with staggered head starts and the first success wins (race.go), so a
// pair whose preferred method hangs — a splice-hostile firewall, an
// unpredictable NAT — pays one head start instead of a method timeout;
// and a per-pair cache remembers the winner, so a reconnect launches it
// alone (cache.go). Both run on one conversation layer, the ServiceMux
// (mux.go), which owns the service link for the length of a connect.
//
// # The protocol
//
// A connect crosses the service link between the two nodes as
//
//	initiator                                        acceptor
//	   | -- connect request [profile, endpoints] --------> |  core, once per connect
//	   | <------------------- connect-OK [profile, endpoints] |
//	   |        then, per establishment (conversation):      |
//	   | <~~ dial, to a listener of the other ~~~~~~~~~~~~~> |  client/server, proxy
//	   | <~~ routed open [k], via the relay ~~~~~~~~~~~~~~~~ |  right behind the reply
//	   | <~~ simultaneous open, both ways ~~~~~~~~~~~~~~~~~> |  splicing
//	   | <== [m] abort ====================================> |  a failed attempt
//	   | -- elect [m] -------------------------------------> |  the winner, or MethodNone
//	   |        and once every establishment returned:       |
//	   | -- done ------------------------------------------> |  one marker per side
//	   | <------------------------------------------ done -- |
//
// The request and its reply are package core's; they carry each side's
// Profile (Encode) and Endpoints (AppendEndpoints). The candidates are
// a pure function of the two profiles and every endpoint a method dials
// rides in the exchange, so no method speaks on the service link: a
// cold connect puts the request, the reply and the election on it, then
// the two done markers, whatever method wins (core
// TestConnectFrameCount). Each part is specified where it is
// implemented: the candidates and their order in method.go
// (RankCandidates, Decide); which endpoints each side reserves and
// which side listens in connector.go (Carries, Reserve); head starts,
// the election and cancellation in race.go; the conversation frames,
// their one shape and the done-marker barrier in mux.go (ServiceMux);
// reconnects in cache.go (Cache). Connect latency per method, cold and
// cached, is measured by the connect_matrix workload of ./benchmark.
//
// The routed method dials and accepts through the relay client, so
// between nodes with identities (core.Config.NodeIdentity/Trust) its
// links come up authenticated and sealed end to end; one that fails its
// key exchange loses the race like any other failed method.
package estab
