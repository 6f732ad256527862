// Package emunet provides an in-process emulated wide-area internetwork
// — the testbed substitute for the real multi-site European grid of the
// paper's evaluation (Section 4, Section 6).
//
// The HPDC 2004 NetIbis paper evaluates its integrated WAN communication
// system on a real testbed: multiple sites, most protected by stateful
// firewalls, some using NAT and private (RFC 1918) addresses, connected
// by wide-area links of limited capacity and high latency. Such an
// environment cannot be reproduced inside a single test process, so
// emunet substitutes it: it models sites, hosts, public and private
// address spaces, stateful firewalls, NAT devices (standards compliant,
// deliberately broken, and port-restricted, as encountered by the
// paper's authors), and WAN links with configurable capacity, round-trip
// time, jitter and loss rate.
//
// Everything above this package — connection establishment methods,
// relays, SOCKS proxies, driver stacks — exercises its real code path:
// data genuinely flows through net.Conn implementations, connection
// requests genuinely traverse firewall and NAT state machines, and
// simultaneous-open (TCP splicing) genuinely requires both endpoints to
// issue their connection requests and both firewalls to have recorded
// the outgoing flow.
//
// Two scenario knobs exist specifically because their failure mode is
// invisible to profile-based method selection (which is what motivates
// the racing establishment of package estab): SiteConfig.SpliceHostile
// models an asymmetric firewall that permits outgoing connections but
// silently drops simultaneous-open SYNs, and PortRestrictedNAT models a
// NAT whose mappings are endpoint-independent yet never match the
// port-preserving prediction. Both make a splice that looks fine during
// brokering hang until its timeout — or until the caller cancels it via
// Host.SpliceDialCancel.
//
// # The link law
//
// A fabric with a time scale (WithTimeScale > 0) carries bytes the way
// the paper's links carried TCP; every duration below is multiplied by
// the scale.
//
// Each direction of each site pair is one pacer, shared by every
// connection crossing it that way: the link's capacity as a queue.
// Bytes are reserved on it in the order writers ask, at most a quantum
// (two segments) at a time, each reservation starting when the link is
// next free and lasting bytes/CapacityBps. A reservation becomes
// readable at the far end RTT/2 after it has left the link, plus a
// jitter drawn from the direction's seeded generator; a connection
// clamps its delivery times monotone, because a byte stream never
// reorders. Its acknowledgement is back a further RTT/2 later. The two
// directions are two queues: a bulk transfer one way does not delay
// what comes back.
//
// Conn.Write copies into the connection's send buffer and returns; it
// blocks only while the bytes written and not yet acknowledged fill the
// window, min(congestion window, socket buffer). Latency lands on the
// bytes, never on the caller, and a connection bound by its window runs
// at window/RTT. Bytes whose delivery waits on a full receive buffer —
// a reader stalled with SetReadStall, or just slow — are not
// acknowledged, so the writer feels the reader. A Write blocked on the
// window honours SetWriteDeadline and SetDeadline: ErrTimeout, with the
// count of bytes it had buffered.
//
// The congestion window is TCP Reno's, per connection and direction
// (renoStep): it starts at ten segments, grows by what is acknowledged
// in slow start and by a segment per window after, and is halved when a
// loss is acknowledged. Loss is one Bernoulli draw of LossRate per
// segment of bytes crossing a direction, from the direction's second
// seeded generator, so the lost segments are a function of the seed and
// the byte count. A lost segment is delivered one RTT late (the
// retransmission) and so is everything behind it on its connection.
// There is no retransmission timeout and no selective acknowledgement;
// a link with LossRate 0 never shrinks a window.
//
// Close is a FIN behind the data: what the closing end has written is
// still delivered at the link's pace and then the peer reads io.EOF;
// what the peer had in flight the other way is dropped. A sever —
// SetLink with Down, Partition, Fabric.Close — drops what is in flight
// both ways at once and fails both ends. One goroutine per connection
// direction delivers bytes when they are due, one wake-up per batch of
// due bytes; it exists only while bytes are undelivered, and ends in
// both cases.
//
// SetLink on a live link changes the pair's two pacers in place, so
// connections already open see the new parameters from their next
// reservation and go on sharing the link with later ones.
//
// At time scale 0, the default, none of this exists: a direction is an
// in-memory pipe bounded by the socket buffer, Write blocks only on a
// reader that has stopped reading, write deadlines are accepted and not
// enforced, and no goroutine or clock is involved. The CPU-bound tests
// and benchmarks run there.
//
// # What the link law leaves out
//
// A connection comes up without crossing its link: Host.Dial
// (completeDial) and a matched simultaneous open (registerSplice) hand
// back a connected pair at once, so a SYN and its SYN-ACK take no time.
// A cold direct or spliced connect above this package therefore reads
// the one service-link round trip of its brokering and nothing more,
// and no emulated handshake ever runs against the race's head start
// (estab's raceStagger, one measured service-link round trip). That
// rule holds on a real link because a direct or spliced handshake
// crosses a path no longer than the relay's; the emulator does not
// test it. Modelling the handshake would move every connect time.
package emunet
