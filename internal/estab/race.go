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
// Protocol (all messages ride in wire.KindHandshake frames on the
// service-link stream; both sides already hold each other's profile,
// handed to EstablishInitiator/EstablishAcceptor by the caller):
//
//	initiator                                acceptor
//	   | -- msgPlan [m1 m2 ...] ----------------> |   ordered candidates
//	   | <=> msgRace [m, inner, body...] <=====> |   per-method conversations
//	   | -- msgElect [m] ----------------------> |   winner (MethodNone: round failed)
//	   | -- msgRaceDone -----------------------> |
//	   | <----------------------- msgRaceDone -- |
//
// The initiator owns the election: methods complete at slightly
// different instants on the two sides, so letting each side pick its own
// first finisher could select different winners. After a failed round
// the initiator either sends a new msgPlan (the cached-method round
// falling back to a full race) or msgAbort (giving up). The msgRaceDone
// barrier guarantees that when a round ends, no frame of it is still in
// flight — each side keeps reading until the peer's done marker, so a
// synchronous service link is always drained.
//
// The per-pair connectivity Cache short-circuits the whole dance on
// reconnect: a hit makes round one a single-candidate "race" of the
// remembered winner, and only a failure of that method falls back to the
// full candidate list (invalidating the entry). See cache.go.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
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

// raceMsg is one tagged message delivered to a method conversation.
type raceMsg struct {
	t    byte
	body []byte
}

// raceSession demultiplexes the race-control protocol: per-method
// message queues, the election, and the round-done barrier. One session
// spans all rounds of an establishment; startRound resets the per-round
// state and spawns the round's reader.
type raceSession struct {
	b *broker

	mu       sync.Mutex
	cond     *sync.Cond
	queues   map[Method][]raceMsg
	canceled map[Method]bool
	attempts map[Method]chan struct{} // per-attempt cancel channels, close-once
	elected  Method
	hasElect bool
	peerDone bool
	err      error

	roundDone chan struct{}
}

func newRaceSession(b *broker) *raceSession {
	rs := &raceSession{b: b}
	rs.cond = sync.NewCond(&rs.mu)
	return rs
}

// startRound resets the round state and spawns the reader that routes
// incoming frames until the peer's done marker.
func (rs *raceSession) startRound() {
	rs.mu.Lock()
	rs.queues = make(map[Method][]raceMsg)
	rs.canceled = make(map[Method]bool)
	rs.attempts = make(map[Method]chan struct{})
	rs.hasElect = false
	rs.peerDone = false
	rs.mu.Unlock()
	rs.roundDone = make(chan struct{})
	go rs.readRound()
}

// readRound routes incoming race frames to their consumers. It exits on
// the peer's round-done marker — everything the peer will ever send for
// this round precedes it — or on a connection failure.
func (rs *raceSession) readRound() {
	defer close(rs.roundDone)
	for {
		t, body, err := rs.b.recv()
		if err != nil {
			rs.fail(err)
			return
		}
		switch t {
		case msgRace:
			if len(body) < 2 {
				continue
			}
			m := Method(body[0])
			if body[1] == msgAbort {
				// The peer's side of this method failed. Cancel the
				// local attempt outright rather than queueing the abort:
				// cancellation reaches an attempt blocked in a listener
				// accept (which never calls recv), so the round is not
				// stalled for the full accept timeout.
				rs.cancelAttempt(m)
				continue
			}
			rs.mu.Lock()
			rs.queues[m] = append(rs.queues[m], raceMsg{t: body[1], body: body[2:]})
			rs.cond.Broadcast()
			rs.mu.Unlock()
		case msgElect:
			if len(body) < 1 {
				continue
			}
			rs.mu.Lock()
			rs.elected = Method(body[0])
			rs.hasElect = true
			rs.cond.Broadcast()
			rs.mu.Unlock()
		case msgRaceDone:
			rs.mu.Lock()
			rs.peerDone = true
			rs.cond.Broadcast()
			rs.mu.Unlock()
			return
		case msgAbort:
			rs.fail(ErrAborted)
			return
		default:
			// Stray message (e.g. a frame of a conversation the peer
			// started before processing our abort): ignore.
		}
	}
}

func (rs *raceSession) fail(err error) {
	rs.mu.Lock()
	if rs.err == nil {
		rs.err = err
	}
	rs.cond.Broadcast()
	rs.mu.Unlock()
}

// finishRound completes the round barrier: announce that all local
// conversations have settled, then wait until the peer has announced the
// same (the reader exits on it).
func (rs *raceSession) finishRound() error {
	rs.b.send(msgRaceDone, nil)
	<-rs.roundDone
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.err != nil && rs.err != ErrAborted {
		return rs.err
	}
	return nil
}

// cancelAttempt cancels one method's attempt: the canceled flag wakes a
// recv blocked on the method's queue, and closing the attempt's cancel
// channel (exactly once, guarded by the session lock) wakes its
// blocking primitives — listener accepts, splice offers, routed dials.
// Safe to call for methods that were never launched this round.
func (rs *raceSession) cancelAttempt(m Method) {
	rs.mu.Lock()
	rs.canceled[m] = true
	if ch, ok := rs.attempts[m]; ok {
		delete(rs.attempts, m)
		close(ch)
	}
	rs.cond.Broadcast()
	rs.mu.Unlock()
}

// waitElect blocks until the initiator's election arrives (or the
// session fails).
func (rs *raceSession) waitElect() (Method, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for {
		if rs.hasElect {
			return rs.elected, nil
		}
		if rs.err != nil {
			return MethodNone, rs.err
		}
		if rs.peerDone {
			return MethodNone, fmt.Errorf("%w: round ended without election", ErrProtocol)
		}
		rs.cond.Wait()
	}
}

// methodBroker is what a single method conversation runs against: sends
// are tagged with the method, receives consume the method's queue.
type methodBroker struct {
	rs     *raceSession
	m      Method
	cancel <-chan struct{}
}

func (mb *methodBroker) send(t byte, body []byte) error {
	payload := make([]byte, 0, len(body)+2)
	payload = append(payload, byte(mb.m), t)
	payload = append(payload, body...)
	return mb.rs.b.send(msgRace, payload)
}

func (mb *methodBroker) recv() (byte, []byte, error) {
	rs := mb.rs
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for {
		if q := rs.queues[mb.m]; len(q) > 0 {
			msg := q[0]
			rs.queues[mb.m] = q[1:]
			return msg.t, msg.body, nil
		}
		if rs.err != nil {
			return 0, nil, rs.err
		}
		if rs.canceled[mb.m] {
			return 0, nil, errRaceLost
		}
		if rs.peerDone {
			// The peer settled all its conversations; nothing more will
			// arrive for this one.
			return 0, nil, ErrEstablishmentEnded
		}
		rs.cond.Wait()
	}
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
// with its own cancellation channel, registered on the session so both
// the round controller and the reader (peer aborts) can fire it.
func (c *Connector) launchAttempt(rs *raceSession, m Method, local, remote Profile, initiator bool, results chan<- convResult) {
	cancel := make(chan struct{})
	rs.mu.Lock()
	if rs.canceled[m] {
		// The peer aborted this method before we launched it.
		close(cancel)
	} else {
		rs.attempts[m] = cancel
	}
	rs.mu.Unlock()
	mb := &methodBroker{rs: rs, m: m, cancel: cancel}
	go func() {
		conn, err := c.runMethod(mb, m, local, remote, initiator, cancel)
		results <- convResult{m: m, conn: conn, err: err}
	}()
}

// runRoundInitiator races the plan's methods with staggered starts and
// elects the first success. It returns the winning connection, or an
// error aggregating every attempt's failure.
func (c *Connector) runRoundInitiator(rs *raceSession, plan []Method, local, remote Profile) (net.Conn, Method, error) {
	rs.startRound()
	stagger := c.raceStagger()
	results := make(chan convResult, len(plan))

	launch := func(i int) {
		c.launchAttempt(rs, plan[i], local, remote, true, results)
	}

	started, finished := 0, 0
	var winner convResult
	var failures []string
	if stagger <= 0 {
		for started < len(plan) {
			launch(started)
			started++
		}
	} else {
		launch(0)
		started = 1
	}

	var staggerC <-chan time.Time
	if started < len(plan) {
		staggerC = time.After(stagger)
	}
	for winner.conn == nil && finished < len(plan) {
		if started < len(plan) && finished == started {
			// Every launched attempt already failed: no point honouring
			// the remaining head start.
			launch(started)
			started++
			staggerC = nil
			if started < len(plan) {
				staggerC = time.After(stagger)
			}
			continue
		}
		if staggerC != nil {
			select {
			case r := <-results:
				finished++
				if r.err == nil {
					winner = r
				} else {
					failures = append(failures, fmt.Sprintf("%s: %v", r.m, r.err))
				}
			case <-staggerC:
				launch(started)
				started++
				staggerC = nil
				if started < len(plan) {
					staggerC = time.After(stagger)
				}
			}
			continue
		}
		r := <-results
		finished++
		if r.err == nil {
			winner = r
		} else {
			failures = append(failures, fmt.Sprintf("%s: %v", r.m, r.err))
		}
	}

	// Cancel everything still in flight, announce the verdict, then wait
	// for the stragglers so nothing outlives the round.
	for i := 0; i < started; i++ {
		if winner.conn == nil || plan[i] != winner.m {
			rs.cancelAttempt(plan[i])
		}
	}
	rs.b.send(msgElect, []byte{byte(winner.m)})
	for finished < started {
		r := <-results
		finished++
		if r.err == nil {
			// A loser that completed despite the cancellation (or a
			// second success when the election had already happened).
			discardLoserConn(r.conn)
		}
	}
	if err := rs.finishRound(); err != nil {
		if winner.conn != nil {
			discardLoserConn(winner.conn)
		}
		return nil, MethodNone, err
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
func (c *Connector) runRoundAcceptor(rs *raceSession, plan []Method, local, remote Profile) (net.Conn, Method, error) {
	rs.startRound()
	results := make(chan convResult, len(plan))
	for _, m := range plan {
		c.launchAttempt(rs, m, local, remote, false, results)
	}

	elected, electErr := rs.waitElect()
	for _, m := range plan {
		if electErr != nil || m != elected {
			rs.cancelAttempt(m)
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
	if err := rs.finishRound(); err != nil {
		if won.conn != nil {
			discardLoserConn(won.conn)
		}
		return nil, MethodNone, err
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
func (c *Connector) EstablishInitiator(service io.ReadWriter, remote Profile, opts EstablishOpts) (net.Conn, Method, error) {
	rs, local := newRaceSession(newBroker(service)), c.Profile()
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
		rs.b.send(msgPlan, nil)
		return nil, MethodNone, ErrNoMethod
	}

	useCache := c.Cache != nil && opts.PeerKey != "" && c.ForcedMethod == MethodNone
	plan := candidates
	cachedRound := false
	if useCache {
		if m, ok := c.Cache.Lookup(opts.PeerKey); ok && methodIn(m, candidates) {
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
				if m, ok := c.Cache.Lookup(opts.PeerKey); ok && methodIn(m, candidates) {
					plan = []Method{m}
					cachedRound = true
				}
			case <-time.After(c.acceptTimeout()):
			}
			c.Metrics.cacheConsulted(cachedRound)
		} else {
			c.Metrics.cacheConsulted(false)
			defer c.Cache.endRace(opts.PeerKey)
		}
	}

	for {
		if err := rs.b.send(msgPlan, encodePlan(plan)); err != nil {
			return nil, MethodNone, err
		}
		conn, m, err := c.runRoundInitiator(rs, plan, local, remote)
		if err == nil {
			if useCache {
				c.Cache.Store(opts.PeerKey, m)
			}
			c.Metrics.won(m, cachedRound, time.Since(start))
			c.Trace.Eventf("estab", "established to %s via %s (cached=%v)",
				traceKey(opts.PeerKey), m, cachedRound)
			return conn, m, nil
		}
		if errors.Is(err, ErrEstablishmentEnded) || rs.sessionErr() != nil {
			c.Metrics.failed()
			return nil, MethodNone, err
		}
		if cachedRound {
			// The remembered winner stopped working: forget it and fall
			// back to the full race (minus the method that just failed).
			c.Cache.Invalidate(opts.PeerKey)
			c.Metrics.cacheInvalidated()
			c.Trace.Eventf("estab", "cached method %s to %s failed; falling back to full race",
				plan[0], traceKey(opts.PeerKey))
			plan = methodsWithout(candidates, plan[0])
			cachedRound = false
			if len(plan) > 0 {
				continue
			}
		}
		c.Metrics.failed()
		c.Trace.Eventf("estab", "establishment to %s failed: %v", traceKey(opts.PeerKey), err)
		rs.b.send(msgAbort, nil)
		return nil, MethodNone, err
	}
}

// EstablishAcceptor is the passive counterpart of EstablishInitiator; it
// must be called on the peer for every EstablishInitiator call, with the
// initiator's profile. It follows the initiator's plans until a round
// elects a winner or the initiator gives up.
func (c *Connector) EstablishAcceptor(service io.ReadWriter, remote Profile) (net.Conn, Method, error) {
	rs, local := newRaceSession(newBroker(service)), c.Profile()
	for {
		t, body, err := rs.b.recv()
		if err != nil {
			return nil, MethodNone, err
		}
		switch t {
		case msgAbort:
			return nil, MethodNone, ErrAborted
		case msgPlan:
			plan, perr := decodePlan(body)
			if perr != nil {
				return nil, MethodNone, perr
			}
			if len(plan) == 0 {
				return nil, MethodNone, ErrNoMethod
			}
			conn, m, rerr := c.runRoundAcceptor(rs, plan, local, remote)
			if errors.Is(rerr, errRoundFailed) {
				continue // the initiator sends a new plan or gives up
			}
			return conn, m, rerr
		default:
			// Stray frame between rounds; ignore.
		}
	}
}

// sessionErr reports a connection-level failure observed by the round
// reader.
func (rs *raceSession) sessionErr() error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.err
}

func methodIn(m Method, set []Method) bool {
	for _, x := range set {
		if x == m {
			return true
		}
	}
	return false
}

func methodsWithout(set []Method, drop Method) []Method {
	out := make([]Method, 0, len(set))
	for _, m := range set {
		if m != drop {
			out = append(out, m)
		}
	}
	return out
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

// decodePlan parses a plan message, rejecting unknown methods so a
// protocol skew fails loudly instead of racing garbage.
func decodePlan(body []byte) ([]Method, error) {
	plan := make([]Method, 0, len(body))
	for _, bm := range body {
		m := Method(bm)
		if m <= MethodNone || m > Routed {
			return nil, fmt.Errorf("%w: unknown method %d in race plan", ErrProtocol, bm)
		}
		plan = append(plan, m)
	}
	return plan, nil
}
