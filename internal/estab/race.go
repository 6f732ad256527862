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
// method gets a head start of one RaceStagger per precedence rank, the
// first attempt to produce a connection wins, and the losers are
// canceled and cleaned up (listener closed, splice offer withdrawn,
// routed open abandoned so the far side discards its half).
//
// Protocol. Every message is a ServiceMux message on the establishment's
// Conversation (mux.go) — method 0 for the initiator's control messages,
// the racing method for the rest; both sides already hold each other's
// profile, handed to EstablishInitiator/EstablishAcceptor by the caller:
//
//	initiator                                acceptor
//	   | -- msgPlan [m1 m2 ...] ----------------> |   ordered candidates
//	   | <=> [m] msgListen/msgSplice/... <======> |   per-method conversations
//	   | -- msgElect [m] ----------------------> |   winner (MethodNone: round failed)
//
// The initiator owns the election: methods complete at slightly
// different instants on the two sides, so letting each side pick its own
// first finisher could select different winners. After a failed round
// the initiator either sends a new msgPlan (the cached-method round
// falling back to a full race) or msgAbort (giving up). A round has no
// end marker of its own: a method runs in at most one round of a
// conversation, so a message that arrives after its round is filed under
// a method nobody reads again, and the connect's one done marker
// (ServiceMux.Finish) is what drains the link.
//
// The per-pair connectivity Cache short-circuits the whole dance on
// reconnect: a hit makes round one a single-candidate "race" of the
// remembered winner, and only a failure of that method falls back to the
// full candidate list (invalidating the entry). See cache.go.

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"time"
)

// DefaultRaceStagger is the head start each candidate method gets over
// the next one in precedence order when Connector.RaceStagger is zero.
// It is deliberately of the order of a WAN round trip: long enough that
// a healthy preferred method wins before the next candidate spends any
// resources, short enough that a hanging preferred method costs one tier
// instead of a multi-second timeout.
const DefaultRaceStagger = 150 * time.Millisecond

// errRoundFailed propagates "this round produced no winner" from the
// acceptor's round runner to its outer loop, which then waits for the
// initiator's next plan (or its abort).
var errRoundFailed = errors.New("estab: race round failed")

func (c *Connector) raceStagger() time.Duration {
	switch {
	case c.RaceStagger > 0:
		return c.RaceStagger
	case c.RaceStagger < 0:
		return 0
	default:
		return DefaultRaceStagger
	}
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
// both the round controller and the mux reader (peer aborts) can fire it
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

// runRoundInitiator races the plan's methods with staggered starts and
// elects the first success. It returns the winning connection, or an
// error aggregating every attempt's failure.
func (c *Connector) runRoundInitiator(cv *Conversation, plan []Method, local, remote Profile) (net.Conn, Method, error) {
	stagger := c.raceStagger()
	results := make(chan convResult, len(plan))
	started, finished := 0, 0
	var staggerC <-chan time.Time // nil, which never fires, once the whole plan is launched
	launchNext := func() {
		c.launchAttempt(cv, plan[started], local, remote, true, results)
		started++
		staggerC = nil
		if started < len(plan) {
			staggerC = time.After(stagger)
		}
	}
	launchNext()
	for stagger <= 0 && started < len(plan) {
		launchNext()
	}

	var winner convResult
	var failures []string
	for winner.conn == nil && finished < len(plan) {
		if finished == started {
			// Every launched attempt already failed: no point honouring
			// the remaining head start.
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

	// Cancel everything still in flight, announce the verdict, then wait
	// for the stragglers so nothing outlives the round.
	for i := 0; i < started; i++ {
		if winner.conn == nil || plan[i] != winner.m {
			cv.cancelAttempt(plan[i])
		}
	}
	cv.send(MethodNone, msgElect, []byte{byte(winner.m)})
	for finished < started {
		r := <-results
		finished++
		if r.err == nil {
			// A loser that completed despite the cancellation (or a
			// second success when the election had already happened).
			discardLoserConn(r.conn)
		}
	}
	if winner.conn == nil {
		return nil, MethodNone, fmt.Errorf("estab: all establishment attempts failed [%s]", strings.Join(failures, "; "))
	}
	return winner.conn, winner.m, nil
}

// runRoundAcceptor runs the acceptor's side of one round: every
// candidate conversation starts immediately (each mostly blocks until
// the initiator's staggered tier speaks), the initiator's election picks
// the survivor, everything else is canceled and discarded.
func (c *Connector) runRoundAcceptor(cv *Conversation, plan []Method, local, remote Profile) (net.Conn, Method, error) {
	results := make(chan convResult, len(plan))
	for _, m := range plan {
		c.launchAttempt(cv, m, local, remote, false, results)
	}

	elected, electErr := cv.waitElect(plan)
	for _, m := range plan {
		if electErr != nil || m != elected {
			cv.cancelAttempt(m)
		}
	}
	var won convResult
	for range plan {
		r := <-results
		if electErr == nil && r.m == elected {
			won = r
		} else if r.err == nil {
			discardLoserConn(r.conn)
		}
	}
	if electErr != nil {
		return nil, MethodNone, electErr
	}
	if elected == MethodNone {
		return nil, MethodNone, errRoundFailed
	}
	if won.err != nil {
		return nil, elected, won.err
	}
	return won.conn, elected, nil
}

// EstablishInitiator negotiates and establishes a data link with the
// peer at the other end of the service link. The initiator is the side
// that wants the new link (in IPL terms: the send port connecting to a
// receive port). remote is the peer's connectivity profile: whoever asks
// for a link is already talking to the peer, so the two profiles travel
// in that conversation (core's connect request and its reply), once, and
// not again per establishment. It drives the rounds — a single-candidate
// cached round when the connectivity cache has a fresh winner that the
// profiles still allow, the full staggered race otherwise, and the
// cached→full fallback in between — and returns the established link and
// the method used.
func (c *Connector) EstablishInitiator(cv *Conversation, remote Profile, opts EstablishOpts) (net.Conn, Method, error) {
	cv.asInitiator()
	local := c.Profile()
	start := time.Now()
	c.Metrics.raceStarted()
	candidates := RankCandidates(local, remote, false)
	if c.ForcedMethod != MethodNone {
		candidates = []Method{c.ForcedMethod}
	}
	if len(candidates) == 0 {
		c.Metrics.failed()
		// The plan is initiator-authoritative: tell the acceptor
		// explicitly.
		cv.send(MethodNone, msgPlan, nil)
		return nil, MethodNone, ErrNoMethod
	}

	useCache := c.Cache != nil && opts.PeerKey != "" && c.ForcedMethod == MethodNone
	plan := candidates
	cachedRound := false
	if useCache {
		if m, ok := c.Cache.Lookup(opts.PeerKey); ok && slices.Contains(candidates, m) {
			c.Metrics.cacheConsulted(true)
			plan = []Method{m}
			cachedRound = true
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
				if m, ok := c.Cache.Lookup(opts.PeerKey); ok && slices.Contains(candidates, m) {
					plan = []Method{m}
					cachedRound = true
				}
			case <-time.After(c.ResolvedAcceptTimeout()):
			}
			c.Metrics.cacheConsulted(cachedRound)
		} else {
			c.Metrics.cacheConsulted(false)
			defer c.Cache.endRace(opts.PeerKey)
		}
	}

	for {
		if err := cv.send(MethodNone, msgPlan, encodePlan(plan)); err != nil {
			return nil, MethodNone, err
		}
		conn, m, err := c.runRoundInitiator(cv, plan, local, remote)
		if err == nil {
			if useCache {
				c.Cache.Store(opts.PeerKey, m)
			}
			c.Metrics.won(m, cachedRound, time.Since(start))
			c.Trace.Eventf("estab", "established to %s via %s (cached=%v)",
				traceKey(opts.PeerKey), m, cachedRound)
			return conn, m, nil
		}
		if ended := cv.ended(); ended != nil {
			c.Metrics.failed()
			return nil, MethodNone, ended
		}
		if cachedRound {
			// The remembered winner stopped working: forget it and fall
			// back to the full race (minus the method that just failed).
			c.Cache.Invalidate(opts.PeerKey)
			c.Metrics.cacheInvalidated()
			c.Trace.Eventf("estab", "cached method %s to %s failed; falling back to full race",
				plan[0], traceKey(opts.PeerKey))
			failed := plan[0]
			plan = slices.DeleteFunc(slices.Clone(candidates), func(m Method) bool { return m == failed })
			cachedRound = false
			if len(plan) > 0 {
				continue
			}
		}
		c.Metrics.failed()
		c.Trace.Eventf("estab", "establishment to %s failed: %v", traceKey(opts.PeerKey), err)
		cv.send(MethodNone, msgAbort, nil)
		return nil, MethodNone, err
	}
}

// EstablishAcceptor is the passive counterpart of EstablishInitiator; it
// must be called on the peer for every EstablishInitiator call, with the
// initiator's profile. It follows the initiator's plans until a round
// elects a winner or the initiator gives up. A nil error comes with a
// connection.
func (c *Connector) EstablishAcceptor(cv *Conversation, remote Profile) (net.Conn, Method, error) {
	local := c.Profile()
	var ran [Routed + 1]bool // the methods this conversation's plans have named
	for {
		body, err := cv.control(msgPlan)
		if err != nil {
			return nil, MethodNone, err
		}
		plan, err := decodePlan(body, &ran)
		if err != nil {
			return nil, MethodNone, err
		}
		conn, m, err := c.runRoundAcceptor(cv, plan, local, remote)
		if !errors.Is(err, errRoundFailed) {
			return conn, m, err
		}
		// The initiator sends a new plan or gives up.
	}
}

// control takes the initiator's next control message, which is of the
// wanted type or the abort that ends the establishment.
func (cv *Conversation) control(want byte) ([]byte, error) {
	msg, err := cv.recv(MethodNone)
	switch {
	case err != nil:
		return nil, err
	case msg.t == msgAbort:
		return nil, ErrAborted
	case msg.t != want:
		return nil, fmt.Errorf("%w: expected control message %d, got %d", ErrProtocol, want, msg.t)
	}
	return msg.body, nil
}

// waitElect blocks until the initiator's election arrives: one method of
// the round's plan, or MethodNone for a round without a winner.
func (cv *Conversation) waitElect(plan []Method) (Method, error) {
	body, err := cv.control(msgElect)
	if err != nil {
		return MethodNone, err
	}
	if len(body) != 1 || (Method(body[0]) != MethodNone && !slices.Contains(plan, Method(body[0]))) {
		return MethodNone, fmt.Errorf("%w: election %v names no method of the plan %v", ErrProtocol, body, plan)
	}
	return Method(body[0]), nil
}

// encodePlan serialises an ordered candidate list (one method byte per
// entry).
func encodePlan(plan []Method) []byte {
	out := make([]byte, len(plan))
	for i, m := range plan {
		out[i] = byte(m)
	}
	return out
}

// decodePlan parses a plan message. ran holds the methods earlier plans
// of the conversation named, and gains this plan's: a method is planned
// at most once per conversation, which is what lets a late message of a
// finished round be told from the next round's by its method alone. An
// empty plan is the initiator's ErrNoMethod, and only as the first.
func decodePlan(body []byte, ran *[Routed + 1]bool) ([]Method, error) {
	if len(body) == 0 {
		if *ran == ([Routed + 1]bool{}) {
			return nil, ErrNoMethod
		}
		return nil, fmt.Errorf("%w: empty race plan after a round", ErrProtocol)
	}
	plan := make([]Method, 0, len(body))
	for _, bm := range body {
		m := Method(bm)
		if m <= MethodNone || m > Routed {
			return nil, fmt.Errorf("%w: unknown method %d in race plan", ErrProtocol, bm)
		}
		if ran[m] {
			return nil, fmt.Errorf("%w: race plan names %v a second time", ErrProtocol, m)
		}
		ran[m] = true
		plan = append(plan, m)
	}
	return plan, nil
}
