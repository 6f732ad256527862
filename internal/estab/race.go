package estab

// Racing connection establishment (happy-eyeballs style).
//
// The paper's decision tree picks the single best method that the two
// profiles say *should* work and commits to it. When the prediction is
// wrong in a way only observable at connect time — an asymmetric
// firewall that silently drops simultaneous-open SYNs, a NAT whose
// mappings defy prediction — the pair pays the full timeout of the
// preferred method on every connect before falling back. Racing turns
// the ranked candidate list into staggered concurrent attempts: the best
// method gets a head start of one stagger per precedence rank, the first
// attempt to produce a connection wins, and the losers are canceled and
// cleaned up (listener closed, splice offer withdrawn, routed open
// abandoned so the far side discards its half).
//
// Protocol. Every message is a ServiceMux message on the establishment's
// Conversation (mux.go) — method 0 for the initiator's election, the
// racing method for the rest. Both sides hold each other's profile, the
// method the initiator announced it launches first (its cached winner,
// or none) and each other's splice endpoints, handed to them by the
// caller, and the candidates are RankCandidates of the two profiles (or
// the forced method): a pure function, so no message announces them and
// an establishment is one race, request-free:
//
//	initiator                                acceptor
//	   | <=> [m] msgListen/msgAbort <========> |   per-method conversations
//	   | <~~ routed open, through the relay ~~~~ |   at once, or on the cue msgRouted
//	   | <~~ simultaneous open, both ways ~~~~~> |   no message at all
//	   | -- msgElect [m] ----------------------> |   winner (MethodNone: nothing won)
//
// The acceptor starts its half of every candidate the moment it is
// called and acts first where the method lets it: it announces its
// listening endpoint, sends its splice request, and opens routed when
// routed is the initiator's first launch (routedLeads); otherwise that
// waits for the initiator's cue, "open it to me". The cost is the halves
// of candidates the initiator never launches — a listener, a splice
// request, cached reconnects included — which the election cancels like
// any loser. The initiator decides which candidates
// run and when, and it alone elects: methods complete at slightly
// different instants on the two sides, so letting each side pick its own
// first finisher could select different winners. An election outside the
// candidates is ErrProtocol; two sides whose candidates differ end with a
// typed error each (the one with none returns ErrNoMethod at once, its
// done marker — ServiceMux.Finish — ends the other's waits).
//
// The per-pair connectivity Cache decides the launch order on reconnect:
// the remembered winner runs first and alone, and only its failure
// (which invalidates the entry) launches the rest of the ranking, in the
// same conversation. See cache.go.

import (
	"fmt"
	"net"
	"slices"
	"strings"
	"time"
)

// DefaultRaceStagger is the head start each candidate method gets over
// the next one in precedence order when Connector.RaceStagger is zero and
// the caller measured no service-link round trip (a measured one is the
// head start itself). It is of the order of a WAN round trip: long
// enough that a healthy preferred method wins before the next candidate
// spends any resources, short enough that a hanging preferred method
// costs one tier instead of a multi-second timeout.
const DefaultRaceStagger = 150 * time.Millisecond

// MinRaceStagger floors a head start derived from a measured round trip:
// RFC 8305's minimum connection-attempt delay.
const MinRaceStagger = 10 * time.Millisecond

// raceStagger resolves the head start per tier. Both sides' splice
// endpoints ride in the connect request and its reply, and the
// acceptor's half of every candidate goes out right behind the reply, so
// a healthy method needs at most one crossing of the service link and
// its own handshake, whose path is no longer than the relay's: the round
// trip the caller just measured lets it finish before the next one
// starts (RFC 8305 §5 sizes its attempt delay the same way).
func (c *Connector) raceStagger(serviceRTT time.Duration) time.Duration {
	switch {
	case c.RaceStagger > 0:
		return c.RaceStagger
	case c.RaceStagger < 0:
		return 0
	case serviceRTT <= 0:
		return DefaultRaceStagger
	default:
		return max(serviceRTT, MinRaceStagger)
	}
}

// candidates is the ranking both sides derive from the two profiles (or
// the one method both were forced to).
func (c *Connector) candidates(initiator, acceptor Profile) []Method {
	if c.ForcedMethod != MethodNone {
		return []Method{c.ForcedMethod}
	}
	return RankCandidates(initiator, acceptor, false)
}

// routedLeads reports whether the initiator launches routed first: the
// announced method when it is a candidate, the ranking's head otherwise.
func routedLeads(candidates []Method, announced Method) bool {
	if !slices.Contains(candidates, announced) {
		announced = candidates[0]
	}
	return announced == Routed
}

// methodConv is what a single method attempt talks through: its sends
// are tagged with the method, its receives take from the method's queue.
type methodConv struct {
	cv *Conversation
	m  Method
}

func (mc methodConv) send(t byte, body []byte) error { return mc.cv.send(mc.m, t, body) }

func (mc methodConv) recv() (byte, []byte, error) {
	msg, err := mc.cv.recv(mc.m)
	return msg.t, msg.body, err
}

// convResult is the outcome of one racing method attempt.
type convResult struct {
	m    Method
	conn net.Conn
	err  error
}

// discardLoserConn disposes of a connection established by a losing
// method attempt. Routed links are abandoned (the far side must discard
// its half, not treat it as half-open); everything else is closed.
func discardLoserConn(conn net.Conn) {
	if conn == nil {
		return
	}
	type aborter interface{ Abort() error }
	if a, ok := conn.(aborter); ok {
		a.Abort()
		return
	}
	conn.Close()
}

// launchAttempt starts one method conversation in its own goroutine
// with its own cancellation channel, registered on the conversation so
// both the race and the mux reader (peer aborts) can fire it
// — already closed when the peer aborted the method before its launch.
func (c *Connector) launchAttempt(cv *Conversation, m Method, local, remote Profile, initiator bool, results chan<- convResult) {
	cancel := make(chan struct{})
	cv.m.smu.Lock()
	if cv.canceled[m] {
		close(cancel)
	} else {
		cv.attempts[m] = cancel
	}
	cv.m.smu.Unlock()
	go func() {
		conn, err := c.runMethod(methodConv{cv, m}, local, remote, initiator, cancel)
		results <- convResult{m: m, conn: conn, err: err}
	}()
}

// race launches the methods of order — one per stagger tier; when the
// first is the cache's remembered winner, that one alone until it fails —
// and elects the first success. It returns the winner (no connection when
// nothing won) and what each failed attempt said.
func (c *Connector) race(cv *Conversation, order []Method, cachedFirst bool, stagger time.Duration, local, remote Profile) (winner convResult, failures []string) {
	results := make(chan convResult, len(order))
	started, finished := 0, 0
	var staggerC <-chan time.Time // nil, which never fires: the next launch waits for a failure
	launchNext := func() {
		c.launchAttempt(cv, order[started], local, remote, true, results)
		started++
		staggerC = nil
		if started < len(order) && !(cachedFirst && started == 1) {
			staggerC = time.After(stagger)
		}
	}
	for winner.conn == nil && finished < len(order) {
		if finished == started {
			// Every launched attempt already failed: no point honouring
			// the remaining head start — nor the rest of the ranking, once
			// the conversation itself has ended.
			if cv.ended() != nil {
				break
			}
			launchNext()
			continue
		}
		select {
		case r := <-results:
			finished++
			if r.err == nil {
				winner = r
			} else {
				failures = append(failures, fmt.Sprintf("%s: %v", r.m, r.err))
			}
		case <-staggerC:
			launchNext()
		}
	}

	// Cancel everything still in flight, announce the verdict (which also
	// calls off the acceptor's halves of what was never launched), then
	// wait for the stragglers so nothing outlives the race.
	for _, m := range order[:started] {
		if m != winner.m {
			cv.cancelAttempt(m)
		}
	}
	cv.send(MethodNone, msgElect, []byte{byte(winner.m)})
	for ; finished < started; finished++ {
		if r := <-results; r.err == nil {
			// A loser that completed despite the cancellation (or a
			// second success when the election had already happened).
			discardLoserConn(r.conn)
		}
	}
	return winner, failures
}

// EstablishInitiator negotiates and establishes a data link with the
// peer at the other end of the service link. The initiator is the side
// that wants the new link (in IPL terms: the send port connecting to a
// receive port). remote is the peer's connectivity profile: whoever asks
// for a link is already talking to the peer, so the two profiles travel
// in that conversation (core's connect request and its reply), once, and
// not again per establishment. It runs the one race of the conversation —
// the cached winner first and alone when the connectivity cache has a
// fresh one that the profiles still allow, staggered tiers otherwise and
// after the cached winner failed — and returns the established link and
// the method used.
func (c *Connector) EstablishInitiator(cv *Conversation, remote Profile, opts EstablishOpts) (net.Conn, Method, error) {
	cv.asInitiator()
	local := c.Profile()
	start := time.Now()
	c.Metrics.raceStarted()
	order := c.candidates(local, remote)
	if len(order) == 0 {
		c.Metrics.failed()
		return nil, MethodNone, ErrNoMethod
	}
	cv.routedLeads = routedLeads(order, opts.First)

	useCache := c.Cache != nil && opts.PeerKey != "" && c.ForcedMethod == MethodNone
	cached := MethodNone
	if useCache {
		if m, ok := c.Cache.Lookup(opts.PeerKey); ok && slices.Contains(order, m) {
			cached = m
		} else if leader, wait := c.Cache.beginRace(opts.PeerKey); !leader {
			// Another establishment to the same peer is already racing
			// (a parallel-streams stack brokers several links at once);
			// ride on its result instead of racing redundantly. The wait
			// is bounded: if the leader cannot make progress (e.g. a
			// foreign driver stack that accepts its sub-streams
			// sequentially, so the leader's conversation is not being
			// served yet), fall back to racing independently rather
			// than deadlocking on it.
			select {
			case <-wait:
				if m, ok := c.Cache.Lookup(opts.PeerKey); ok && slices.Contains(order, m) {
					cached = m
				}
			case <-time.After(c.ResolvedAcceptTimeout()):
			}
		} else {
			defer c.Cache.endRace(opts.PeerKey)
		}
		c.Metrics.cacheConsulted(cached != MethodNone)
	}
	if cached != MethodNone {
		order = append([]Method{cached}, slices.DeleteFunc(order, func(m Method) bool { return m == cached })...)
	}

	winner, failures := c.race(cv, order, cached != MethodNone, c.raceStagger(opts.ServiceRTT), local, remote)
	if winner.conn == nil {
		c.Metrics.failed()
		if ended := cv.ended(); ended != nil {
			return nil, MethodNone, ended
		}
	}
	if cached != MethodNone && winner.m != cached {
		// The remembered winner stopped working: the race went on to the
		// rest of the ranking, and the entry goes.
		c.Cache.Invalidate(opts.PeerKey)
		c.Metrics.cacheInvalidated()
		c.Trace.Eventf("estab", "cached method %s to %s failed; raced the rest", cached, traceKey(opts.PeerKey))
	}
	if winner.conn == nil {
		err := fmt.Errorf("estab: all establishment attempts failed [%s]", strings.Join(failures, "; "))
		c.Trace.Eventf("estab", "establishment to %s failed: %v", traceKey(opts.PeerKey), err)
		return nil, MethodNone, err
	}
	if useCache {
		c.Cache.Store(opts.PeerKey, winner.m)
	}
	c.Metrics.won(winner.m, winner.m == cached, time.Since(start))
	c.Trace.Eventf("estab", "established to %s via %s (cached=%v)", traceKey(opts.PeerKey), winner.m, winner.m == cached)
	return winner.conn, winner.m, nil
}

// EstablishAcceptor is the passive counterpart of EstablishInitiator; it
// must be called on the peer for every EstablishInitiator call, with the
// initiator's profile and EstablishOpts.First. Every candidate's half
// starts immediately (each speaks first where its method lets it, then
// mostly blocks until the initiator's tier does), the initiator's
// election picks the survivor, everything else is canceled and
// discarded. A nil error comes with a connection.
func (c *Connector) EstablishAcceptor(cv *Conversation, remote Profile, first Method) (net.Conn, Method, error) {
	local := c.Profile()
	candidates := c.candidates(remote, local)
	if len(candidates) == 0 {
		return nil, MethodNone, ErrNoMethod
	}
	cv.routedLeads = routedLeads(candidates, first)
	results := make(chan convResult, len(candidates))
	for _, m := range candidates {
		c.launchAttempt(cv, m, local, remote, false, results)
	}

	elected, err := cv.waitElect(candidates)
	for _, m := range candidates {
		if err != nil || m != elected {
			cv.cancelAttempt(m)
		}
	}
	var won convResult
	for range candidates {
		r := <-results
		if err == nil && r.m == elected {
			won = r
		} else if r.err == nil {
			discardLoserConn(r.conn)
		}
	}
	if err != nil {
		return nil, MethodNone, err
	}
	return won.conn, elected, won.err
}

// waitElect blocks until the initiator's verdict arrives: the election of
// one of the candidates, or the end of the establishment — the election
// of MethodNone, or the abort.
func (cv *Conversation) waitElect(candidates []Method) (Method, error) {
	msg, err := cv.recv(MethodNone)
	switch {
	case err != nil:
		return MethodNone, err
	case msg.t == msgAbort || (len(msg.body) == 1 && Method(msg.body[0]) == MethodNone):
		return MethodNone, ErrAborted
	case len(msg.body) != 1 || !slices.Contains(candidates, Method(msg.body[0])):
		return MethodNone, fmt.Errorf("%w: election %v names no candidate of %v", ErrProtocol, msg.body, candidates)
	}
	return Method(msg.body[0]), nil
}
