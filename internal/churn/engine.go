package churn

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"netibis/internal/churn/invariant"
	"netibis/internal/core"
	"netibis/internal/emunet"
	"netibis/internal/estab"
	"netibis/internal/identity"
	"netibis/internal/obs"
	"netibis/internal/relay"
	"netibis/internal/testutil"
	"netibis/internal/workload"
)

// Options configures one engine run.
type Options struct {
	// Schedule is the scenario to execute (required).
	Schedule *Schedule
	// TimeScale compresses emulated link time (see emunet.WithTimeScale);
	// 0 removes shaping delays entirely, which is what churn runs want —
	// chaos timing comes from the schedule, not from link latency.
	TimeScale float64
	// Log receives the live invariant event/violation trail (nil
	// discards it).
	Log io.Writer
	// Bounds caps process heap and per-mesh relay egress backlog;
	// zero fields get defaults (2 GiB heap, 4096 backlog frames).
	Bounds invariant.Bounds
	// Grace bounds post-schedule stream drain and final convergence
	// (default 20s real time).
	Grace time.Duration
}

// Result is the measured outcome of a run: the scenario's benchmark
// numbers plus every invariant violation the checkers caught.
type Result struct {
	Seed     int64  `json:"seed"`
	SimNodes int    `json:"sim_nodes"`
	Relays   int    `json:"relays"`
	Secure   bool   `json:"secure"`
	Schedule string `json:"schedule"`

	// Attach storm: simulated arrivals multiplexed over the pool.
	Attaches       int64   `json:"attaches"`
	AttachFailures int64   `json:"attach_failures"`
	AttachPerSec   float64 `json:"attach_per_sec"`
	AttachP50Ms    float64 `json:"attach_p50_ms"`
	AttachP99Ms    float64 `json:"attach_p99_ms"`

	// Probe pair: routed open latency under churn.
	Opens        int64   `json:"opens"`
	OpenFailures int64   `json:"open_failures"`
	OpenP50Ms    float64 `json:"open_p50_ms"`
	OpenP99Ms    float64 `json:"open_p99_ms"`

	// Directory convergence: time for every live relay's view to match
	// the live attachment set after a storm drains / a partition heals /
	// a crashed relay rejoins.
	StormConvergeMs []float64 `json:"storm_converge_ms"`
	HealConvergeMs  []float64 `json:"heal_converge_ms"`
	FinalConvergeMs float64   `json:"final_converge_ms"`

	// Client failover across relay crashes, as the stream/probe
	// attachments (core.Attachment, the failover every node runs) report
	// it: netibis_core_reattach_total{result="ok"} and the
	// detach-to-resume durations.
	Recoveries   int     `json:"recoveries"`
	RecoverP50Ms float64 `json:"recover_p50_ms"`
	RecoverMaxMs float64 `json:"recover_max_ms"`

	// Invariant-checked streams.
	StreamRecords uint64 `json:"stream_records"`
	StreamBytes   uint64 `json:"stream_bytes"`
	StreamResent  uint64 `json:"stream_resent"`
	StreamDupes   uint64 `json:"stream_dupes"`
	StreamResets  uint64 `json:"stream_resets"`

	// Resource ceilings observed by the monitor.
	PeakHeapBytes     uint64  `json:"peak_heap_bytes"`
	PeakBacklogFrames float64 `json:"peak_backlog_frames"`

	Violations []invariant.Violation `json:"violations"`
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// latHist is a concurrency-safe latency sample sink; percentiles are
// computed once at the end of the run.
type latHist struct {
	mu      sync.Mutex
	samples []float64 // milliseconds
}

func (h *latHist) add(d time.Duration) {
	h.mu.Lock()
	h.samples = append(h.samples, float64(d)/float64(time.Millisecond))
	h.mu.Unlock()
}

func (h *latHist) percentile(p float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	s := append([]float64(nil), h.samples...)
	sort.Float64s(s)
	i := int(p * float64(len(s)-1))
	return s[i]
}

// liveSet tracks which simulated nodes are attached where: the ground
// truth the relays' gossiped directories must converge to.
type liveSet struct {
	mu sync.Mutex
	m  map[string]string // node ID -> relay name
}

func newLiveSet() *liveSet { return &liveSet{m: make(map[string]string)} }

func (l *liveSet) set(id, relayName string) {
	l.mu.Lock()
	l.m[id] = relayName
	l.mu.Unlock()
}

func (l *liveSet) remove(id string) {
	l.mu.Lock()
	delete(l.m, id)
	l.mu.Unlock()
}

func (l *liveSet) snapshot() map[string]string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]string, len(l.m))
	for k, v := range l.m {
		out[k] = v
	}
	return out
}

// engine is the live state of one run.
type engine struct {
	opts  Options
	sched *Schedule
	rec   *invariant.Recorder
	rng   *rand.Rand

	fab *emunet.Fabric
	dep *core.Deployment

	// relayEps are snapshotted at startup: endpoints survive restarts
	// (same host, same port), so hot paths read them without locking.
	relayEps []emunet.Endpoint

	// mu guards the mutable relay state: down flags, the per-relay
	// metrics registries (recreated on restart), and dep.Relays swaps.
	mu   sync.Mutex
	down []bool
	regs []*obs.Registry

	// issueMu guards the live CA pointer, swapped by rotate events.
	issueMu sync.Mutex
	issueCA *identity.Authority

	nodeHosts []*emunet.Host

	live       *liveSet
	attachLat  *latHist
	openLat    *latHist
	recoverLat *latHist

	countMu        sync.Mutex
	attaches       int64
	attachFailures int64
	opens          int64
	openFailures   int64
	stormWindow    time.Duration
	peakHeap       uint64
	peakBacklog    float64

	stormConvergeMu sync.Mutex
	stormConverge   []float64
	healConverge    []float64

	slots []*poolSlot
	// clients are the stream and probe attachments, clientRegs their
	// core metric families (netibis_core_reattach_total).
	clients    []*core.Attachment
	clientRegs []*obs.Registry

	stopCh   chan struct{}
	stopOnce sync.Once

	wg sync.WaitGroup // probes + stream loops + monitor
}

// poolSlot is one bounded real attachment the storm multiplexes
// simulated arrivals over.
type poolSlot struct {
	mu  sync.Mutex
	cli *relay.Client
	id  string
	gen int // incremented per replacement; stale detach callbacks no-op
}

const (
	defaultMaxHeapBytes     = 2 << 30
	defaultMaxBacklogFrames = 4096
	monitorInterval         = 50 * time.Millisecond
	convergePoll            = 10 * time.Millisecond
	convergeTimeout         = 15 * time.Second
)

// Run executes the schedule and returns the measured result. The error
// return is for setup failures only; invariant violations land in
// Result.Violations.
func Run(opts Options) (*Result, error) {
	sched := opts.Schedule
	if sched == nil {
		return nil, fmt.Errorf("churn: no schedule")
	}
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	if opts.Grace <= 0 {
		opts.Grace = 20 * time.Second
	}
	if opts.Bounds.MaxHeapBytes == 0 {
		opts.Bounds.MaxHeapBytes = defaultMaxHeapBytes
	}
	if opts.Bounds.MaxBacklogFrames == 0 {
		opts.Bounds.MaxBacklogFrames = defaultMaxBacklogFrames
	}

	runtime.GC()
	baseline := runtime.NumGoroutine()

	e := &engine{
		opts:       opts,
		sched:      sched,
		rec:        invariant.NewRecorder(opts.Log),
		rng:        rand.New(rand.NewSource(sched.Seed)),
		live:       newLiveSet(),
		attachLat:  &latHist{},
		openLat:    &latHist{},
		recoverLat: &latHist{},
		stopCh:     make(chan struct{}),
	}

	if err := e.setup(); err != nil {
		return nil, err
	}
	e.rec.Eventf("world up: %d relays (secure=%v), pool %d, %d streams", sched.Relays, sched.Secure, sched.Pool, sched.Streams)

	e.wg.Add(1)
	go e.monitor()

	senders, receivers := e.startStreams()
	e.startProbes()

	e.runSchedule()
	e.drainStreams(senders, receivers)

	finalConverge, _ := e.awaitConvergence("final", convergeTimeout)

	e.stop()
	e.teardown()
	e.checkLeaks(baseline)

	res := e.buildResult(senders, receivers)
	res.FinalConvergeMs = float64(finalConverge) / float64(time.Millisecond)
	return res, nil
}

// setup builds the fabric, the spread relay mesh and the node-side
// hosts.
func (e *engine) setup() error {
	s := e.sched
	e.fab = emunet.NewFabric(emunet.WithSeed(s.Seed), emunet.WithTimeScale(e.opts.TimeScale))

	var ca *identity.Authority
	if s.Secure {
		var err error
		if ca, err = identity.NewAuthority(); err != nil {
			e.fab.Close()
			return fmt.Errorf("churn: authority: %w", err)
		}
	}
	dep, err := core.NewSpreadFederatedDeployment(e.fab, s.Relays, ca)
	if err != nil {
		e.fab.Close()
		return fmt.Errorf("churn: deployment: %w", err)
	}
	e.dep = dep
	e.issueCA = ca

	e.relayEps = make([]emunet.Endpoint, s.Relays)
	e.down = make([]bool, s.Relays)
	e.regs = make([]*obs.Registry, s.Relays)
	for i, ri := range dep.Relays {
		e.relayEps[i] = ri.Endpoint()
		reg := obs.NewRegistry()
		ri.Server.MetricsInto(reg)
		e.regs[i] = reg
	}

	// Node-side sites: a few stateful-firewall sites so attach traffic
	// crosses realistic site boundaries without per-node site overhead.
	nSites := 4
	if s.Relays < nSites {
		nSites = s.Relays
	}
	for j := 0; j < nSites; j++ {
		site := e.fab.AddSite(fmt.Sprintf("churn-nodes-%d", j), emunet.SiteConfig{Firewall: emunet.Stateful})
		e.nodeHosts = append(e.nodeHosts, site.AddHost(fmt.Sprintf("churn-host-%d", j)))
	}

	e.slots = make([]*poolSlot, s.Pool)
	for i := range e.slots {
		e.slots[i] = &poolSlot{}
	}
	return nil
}

func (e *engine) stop() { e.stopOnce.Do(func() { close(e.stopCh) }) }
func (e *engine) stopped() bool {
	select {
	case <-e.stopCh:
		return true
	default:
		return false
	}
}

// auth is the relay client security configuration of node id: on a
// secure mesh an identity minted by the engine's current CA (swapped
// live by rotate events), nil otherwise.
func (e *engine) auth(id string) (*relay.AuthConfig, error) {
	if !e.sched.Secure {
		return nil, nil
	}
	e.issueMu.Lock()
	ca := e.issueCA
	e.issueMu.Unlock()
	ident, err := ca.Issue(id)
	if err != nil {
		return nil, err
	}
	return &relay.AuthConfig{Identity: ident, Trust: e.dep.Trust}, nil
}

// attachClient dials relay relayIdx from host and attaches as id,
// authenticated when the mesh is secure.
func (e *engine) attachClient(host *emunet.Host, id string, relayIdx int) (*relay.Client, error) {
	auth, err := e.auth(id)
	if err != nil {
		return nil, err
	}
	conn, err := host.Dial(e.relayEps[relayIdx])
	if err != nil {
		return nil, err
	}
	return relay.AttachAuth(conn, id, auth) // closes conn on error
}

// liveRelay returns the first relay at or after pref that is not
// currently down. It places the storm's arrivals, which never fail over;
// nothing that does is told which relays are up.
func (e *engine) liveRelay(pref int) (int, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for k := range e.down {
		if i := (pref + k) % len(e.down); !e.down[i] {
			return i, true
		}
	}
	return 0, false
}

// allRelays lists the deployment's relay endpoints, dead ones included.
func (e *engine) allRelays() []emunet.Endpoint { return e.relayEps }

// --- stream and probe attachments -----------------------------------------------

// attach joins the mesh as id the way a node does: a core.Attachment,
// pinned to relay pref so the layout is the scenario's, that on a relay
// crash probes the deployment's relays and resumes on the nearest
// survivor. The recovery times and the live set come from its resume
// callback.
func (e *engine) attach(id string, host *emunet.Host, pref int) (*core.Attachment, error) {
	att := &core.Attachment{Host: host, NodeID: id, Pinned: []emunet.Endpoint{e.relayEps[pref]}, Discover: e.allRelays}
	att.OnResume = func(took time.Duration) {
		e.recoverLat.add(took)
		home := att.Client().ServerID()
		e.live.set(id, home)
		e.rec.Eventf("client %s resumed on %s after %v", id, home, took.Round(time.Millisecond))
	}
	var err error
	if att.Auth, err = e.auth(id); err == nil {
		err = att.Attach()
	}
	if err != nil {
		return nil, fmt.Errorf("churn: attach %s: %w", id, err)
	}
	e.live.set(id, att.Client().ServerID())
	reg := obs.NewRegistry()
	att.MetricsInto(reg)
	e.clients = append(e.clients, att)
	e.clientRegs = append(e.clientRegs, reg)
	return att, nil
}

// scrape renders and parses one registry, as a poller would.
func scrape(reg *obs.Registry) (*obs.Scrape, error) {
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		return nil, err
	}
	return obs.ParseText(strings.NewReader(sb.String()))
}

// --- invariant-checked streams --------------------------------------------------

type streamPair struct {
	cfg invariant.StreamConfig
	snd *invariant.Sender
	rcv *invariant.Receiver
	tx  *core.Attachment
	rx  *core.Attachment
}

// startStreams launches the sequence-checked routed streams: sender i
// homed on relay i%R, receiver on relay (i+1)%R, so streams cross
// relay-to-relay WAN links and feel partitions, crashes and impairments.
func (e *engine) startStreams() ([]*invariant.Sender, []*streamPair) {
	s := e.sched
	var senders []*invariant.Sender
	var pairs []*streamPair

	// Pace streams to span most of the scenario so chaos events land on
	// live in-flight traffic, not on already-drained streams.
	pace := time.Duration(0)
	if s.Records > 0 {
		pace = time.Duration(float64(s.End) * 0.8 / float64(s.Records))
	}

	for i := 0; i < s.Streams; i++ {
		txID := fmt.Sprintf("churn/tx-%d", i)
		rxID := fmt.Sprintf("churn/rx-%d", i)
		host := e.nodeHosts[i%len(e.nodeHosts)]
		tx, err := e.attach(txID, host, i%s.Relays)
		if err != nil {
			e.rec.Violatef("stream-incomplete", "stream %d: sender attach: %v", i, err)
			continue
		}
		rx, err := e.attach(rxID, host, (i+1)%s.Relays)
		if err != nil {
			e.rec.Violatef("stream-incomplete", "stream %d: receiver attach: %v", i, err)
			continue
		}

		streamSeed := s.Seed
		streamID := uint64(i)
		cfg := invariant.StreamConfig{
			ID:          streamID,
			Seed:        streamSeed,
			RecordBytes: s.RecordBytes,
			Records:     uint64(s.Records),
			AckEvery:    16,
			AckTimeout:  2 * time.Second,
			Pace:        pace,
			PayloadFor: func(seq uint64) []byte {
				// Grid-shaped payloads from the workload generator,
				// deterministic per (seed, stream, seq).
				return workload.Generate(workload.Grid, s.RecordBytes, streamSeed^int64(streamID)<<20^int64(seq))
			},
		}
		p := &streamPair{cfg: cfg, snd: invariant.NewSender(cfg), rcv: invariant.NewReceiver(cfg, e.rec), tx: tx, rx: rx}
		senders = append(senders, p.snd)
		pairs = append(pairs, p)

		// Receiver: accept loop; every accepted conn is one sender
		// incarnation. Accept blocks across detach/resume and returns
		// an error only when the client closes for good.
		e.wg.Add(1)
		go func(p *streamPair) {
			defer e.wg.Done()
			for {
				conn, err := p.rx.Client().Accept()
				if err != nil {
					return
				}
				e.wg.Add(1)
				go func(c net.Conn) {
					defer e.wg.Done()
					p.rcv.Run(c)
				}(conn)
			}
		}(p)

		// Sender: dial-run-repeat until all records are acked. Routed
		// dials retry through refusals and detach windows; each Run
		// incarnation rewinds to the acked frontier.
		e.wg.Add(1)
		go func(p *streamPair, rxID string) {
			defer e.wg.Done()
			for !p.snd.Done() && !e.stopped() {
				conn, err := estab.RetryRoutedDial(p.tx.Client().Dial, rxID, 4*time.Second, e.stopCh)
				if err != nil {
					select {
					case <-e.stopCh:
						return
					case <-time.After(50 * time.Millisecond):
					}
					continue
				}
				p.snd.Run(conn)
			}
		}(p, rxID)
	}
	return senders, pairs
}

// drainStreams waits for every sender to finish within the grace
// budget; an unfinished stream is lost bytes — a violation.
func (e *engine) drainStreams(senders []*invariant.Sender, pairs []*streamPair) {
	deadline := time.After(e.opts.Grace)
	for i, snd := range senders {
		select {
		case <-snd.DoneCh():
		case <-deadline:
			p := pairs[i]
			e.rec.Violatef("stream-incomplete", "stream %d: acked %d/%d, verified %d after %v grace",
				i, snd.Acked(), p.cfg.Records, p.rcv.Verified(), e.opts.Grace)
		}
	}
	// Let final acks and receiver drains land before teardown.
	time.Sleep(50 * time.Millisecond)
}

// --- probes ----------------------------------------------------------------------

// startProbes runs a dialer/acceptor pair measuring routed open latency
// continuously through the chaos.
func (e *engine) startProbes() {
	if e.sched.Relays < 1 {
		return
	}
	host := e.nodeHosts[0]
	pb, err := e.attach("churn/probe-b", host, e.sched.Relays-1)
	if err != nil {
		e.rec.Eventf("probe acceptor attach failed: %v", err)
		return
	}
	pa, err := e.attach("churn/probe-a", host, 0)
	if err != nil {
		e.rec.Eventf("probe dialer attach failed: %v", err)
		return
	}

	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			conn, err := pb.Client().Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()

	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for !e.stopped() {
			t0 := time.Now() //nolint:netibis-determinism // open-latency stopwatch; never feeds scenario decisions
			conn, err := pa.Client().DialCancel("churn/probe-b", 2*time.Second, e.stopCh)
			e.countMu.Lock()
			if err != nil {
				e.openFailures++
			} else {
				e.opens++
			}
			e.countMu.Unlock()
			if err == nil {
				e.openLat.add(time.Since(t0)) //nolint:netibis-determinism // open-latency stopwatch; never feeds scenario decisions
				conn.Close()
			}
			select {
			case <-e.stopCh:
				return
			case <-time.After(25 * time.Millisecond):
			}
		}
	}()
}

// --- attach storm ----------------------------------------------------------------

// runStorm multiplexes ev.Nodes simulated arrivals over the bounded
// pool, pacing them along the event's arrival curve. Each arrival
// replaces its slot's previous attachment (the previous simulated node
// departs). Returns once every dispatched arrival completed.
func (e *engine) runStorm(ev Event) {
	offsets := ev.ArrivalOffsets(e.rng)
	e.rec.Eventf("storm: %d arrivals over %v (%s) across pool %d", len(offsets), ev.Over, ev.Curve, len(e.slots))
	start := time.Now() //nolint:netibis-determinism // storm pacing baseline; arrival offsets come from the seeded rng

	type arrival struct{ n int }
	chans := make([]chan arrival, len(e.slots))
	var wg sync.WaitGroup
	for i := range chans {
		chans[i] = make(chan arrival, 1)
		wg.Add(1)
		go func(slotIdx int, ch chan arrival) {
			defer wg.Done()
			for a := range ch {
				e.attachSim(slotIdx, a.n)
			}
		}(i, chans[i])
	}

	for n, off := range offsets {
		if e.stopped() {
			break
		}
		if d := time.Until(start.Add(off)); d > 0 { //nolint:netibis-determinism // paces seeded arrival offsets against the wall clock
			select {
			case <-e.stopCh:
			case <-time.After(d):
			}
		}
		chans[n%len(chans)] <- arrival{n: n}
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()

	window := time.Since(start) //nolint:netibis-determinism // storm-window measurement; never feeds scenario decisions
	e.countMu.Lock()
	e.stormWindow += window
	e.countMu.Unlock()

	if d, ok := e.awaitConvergence("storm", convergeTimeout); ok {
		e.stormConvergeMu.Lock()
		e.stormConverge = append(e.stormConverge, float64(d)/float64(time.Millisecond))
		e.stormConvergeMu.Unlock()
	}
}

// attachSim replaces slot slotIdx's attachment with simulated node n.
func (e *engine) attachSim(slotIdx, n int) {
	s := e.slots[slotIdx]
	s.mu.Lock()
	if s.cli != nil {
		e.live.remove(s.id)
		s.cli.Close()
		s.cli = nil
	}
	s.gen++
	gen := s.gen
	s.mu.Unlock()

	id := fmt.Sprintf("churn/n-%d", n)
	host := e.nodeHosts[slotIdx%len(e.nodeHosts)]
	relayIdx, ok := e.liveRelay(n % e.sched.Relays)
	if !ok {
		e.countMu.Lock()
		e.attachFailures++
		e.countMu.Unlock()
		return
	}

	t0 := time.Now() //nolint:netibis-determinism // attach-latency stopwatch; never feeds scenario decisions
	cli, err := e.attachClient(host, id, relayIdx)
	if err != nil {
		e.countMu.Lock()
		e.attachFailures++
		e.countMu.Unlock()
		return
	}
	e.attachLat.add(time.Since(t0)) //nolint:netibis-determinism // attach-latency stopwatch; never feeds scenario decisions
	e.countMu.Lock()
	e.attaches++
	e.countMu.Unlock()

	cli.SetDetachHandler(func(error) {
		// A crashed relay detaches pool nodes; they simply depart (the
		// next arrival re-populates the slot). Stale generations no-op.
		s.mu.Lock()
		if s.gen == gen && s.cli == cli {
			s.cli = nil
			e.live.remove(id)
		}
		s.mu.Unlock()
		cli.Close()
	})
	s.mu.Lock()
	if s.gen != gen {
		// A later arrival raced us; this node departs immediately.
		s.mu.Unlock()
		cli.Close()
		return
	}
	s.cli = cli
	s.id = id
	s.mu.Unlock()
	e.live.set(id, cli.ServerID())
}

// --- convergence -----------------------------------------------------------------

// directoryViews snapshots every live relay's directory.
func (e *engine) directoryViews() map[string][]invariant.DirEntry {
	e.mu.Lock()
	defer e.mu.Unlock()
	views := make(map[string][]invariant.DirEntry)
	for i, ri := range e.dep.Relays {
		if e.down[i] {
			continue
		}
		var es []invariant.DirEntry
		for _, de := range ri.Overlay.Directory() {
			es = append(es, invariant.DirEntry{Node: de.Node, Home: de.Home, Present: de.Present})
		}
		views[ri.Name] = es
	}
	return views
}

// awaitConvergence polls until every live relay's directory matches the
// live attachment set (both sampled together each round), or flags a
// convergence violation at the deadline.
func (e *engine) awaitConvergence(label string, timeout time.Duration) (time.Duration, bool) {
	t0 := time.Now() //nolint:netibis-determinism // convergence stopwatch and timeout; verdicts come from invariant checks
	deadline := t0.Add(timeout)
	var lastWhy string
	for {
		if e.stopped() && label != "final" {
			return time.Since(t0), false //nolint:netibis-determinism // wall-clock duration of an aborted wait, reported only
		}
		views := e.directoryViews()
		expected := e.live.snapshot()
		ok, why := invariant.ConvergedTo(views, expected)
		if ok {
			d := time.Since(t0) //nolint:netibis-determinism // convergence-latency measurement; never feeds scenario decisions
			e.rec.Eventf("converged (%s) in %v: %d nodes across %d views", label, d.Round(time.Millisecond), len(expected), len(views))
			return d, true
		}
		lastWhy = why
		if time.Now().After(deadline) { //nolint:netibis-determinism // wall-clock timeout check; the violation verdict is the invariant's
			e.rec.Violatef("convergence", "%s: directories did not converge within %v: %s", label, timeout, lastWhy)
			return time.Since(t0), false //nolint:netibis-determinism // wall-clock duration reported alongside the violation
		}
		time.Sleep(convergePoll)
	}
}

// --- chaos events ----------------------------------------------------------------

// runSchedule fires the event list at its offsets. Storm events run
// concurrently with everything else; partitions/crashes/impairments run
// on their own timers too, so overlapping chaos is expressible.
func (e *engine) runSchedule() {
	start := time.Now() //nolint:netibis-determinism // schedule pacing baseline; event offsets come from the scenario
	var wg sync.WaitGroup
	for _, ev := range e.sched.Events {
		if d := time.Until(start.Add(ev.At)); d > 0 { //nolint:netibis-determinism // paces scenario-defined event offsets against the wall clock
			select {
			case <-e.stopCh:
			case <-time.After(d):
			}
		}
		if e.stopped() {
			break
		}
		ev := ev
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch ev.Kind {
			case EvStorm:
				e.runStorm(ev)
			case EvPartition:
				e.runPartition(ev)
			case EvCrash:
				e.runCrash(ev)
			case EvRotate:
				e.runRotate()
			case EvImpair:
				e.runImpair(ev)
			}
		}()
	}
	wg.Wait()
	// Hold the world until the scheduled end so short event lists still
	// exercise the full window.
	if d := time.Until(start.Add(e.sched.End)); d > 0 { //nolint:netibis-determinism // holds the run open to the scenario-defined end time
		select {
		case <-e.stopCh:
		case <-time.After(d):
		}
	}
}

func (e *engine) runPartition(ev Event) {
	a, b := core.RelaySiteName(ev.A), core.RelaySiteName(ev.B)
	e.rec.Eventf("partition: %s <-> %s for %v", a, b, ev.For)
	e.fab.Partition(a, b)
	select {
	case <-e.stopCh:
	case <-time.After(ev.For):
	}
	e.fab.Heal(a, b)
	e.rec.Eventf("healed: %s <-> %s", a, b)
	if d, ok := e.awaitConvergence("heal", convergeTimeout); ok {
		e.stormConvergeMu.Lock()
		e.healConverge = append(e.healConverge, float64(d)/float64(time.Millisecond))
		e.stormConvergeMu.Unlock()
	}
}

func (e *engine) runCrash(ev Event) {
	e.mu.Lock()
	ri := e.dep.Relays[ev.Relay]
	e.down[ev.Relay] = true
	e.mu.Unlock()
	e.rec.Eventf("crash: killing %s (down %v)", ri.Name, ev.Down)
	ri.Kill()

	if ev.Down <= 0 {
		return // stays dead; teardown closes what remains
	}
	select {
	case <-e.stopCh:
		return
	case <-time.After(ev.Down):
	}

	e.mu.Lock()
	err := e.dep.RestartRelay(ev.Relay)
	if err == nil {
		reg := obs.NewRegistry()
		e.dep.Relays[ev.Relay].Server.MetricsInto(reg)
		e.regs[ev.Relay] = reg
		e.down[ev.Relay] = false
	}
	e.mu.Unlock()
	if err != nil {
		e.rec.Violatef("convergence", "relay %d failed to restart: %v", ev.Relay, err)
		return
	}
	e.rec.Eventf("restart: %s rejoining", ri.Name)
	// Rejoin is proven by the restarted relay's (initially empty)
	// directory converging back to the live set via snapshot merge.
	if d, ok := e.awaitConvergence("rejoin", convergeTimeout); ok {
		e.stormConvergeMu.Lock()
		e.healConverge = append(e.healConverge, float64(d)/float64(time.Millisecond))
		e.stormConvergeMu.Unlock()
	}
}

func (e *engine) runRotate() {
	newCA, err := identity.NewAuthority()
	if err != nil {
		e.rec.Violatef("rotation", "new authority: %v", err)
		return
	}
	e.dep.Trust.AddAuthority(newCA.Public)
	e.issueMu.Lock()
	e.issueCA = newCA
	e.issueMu.Unlock()
	e.rec.Eventf("rotate: new CA trusted, future identities issued by it")

	// Prove the rotation took: a canary attach with a new-CA identity
	// must be accepted by the (old-CA-issued) relays.
	canary := &core.Attachment{Host: e.nodeHosts[0], NodeID: "churn/rotate-canary", Discover: e.allRelays}
	if canary.Auth, err = e.auth(canary.NodeID); err == nil {
		if err = canary.Attach(); err == nil {
			canary.Close()
		}
	}
	if err != nil {
		e.rec.Violatef("rotation", "canary attach with rotated identity refused: %v", err)
		return
	}
	e.rec.Eventf("rotate: canary attach under new CA accepted")
}

func (e *engine) runImpair(ev Event) {
	a, b := core.RelaySiteName(ev.A), core.RelaySiteName(ev.B)
	old := e.fab.Link(a, b)
	p := old
	if ev.CapacityBps > 0 {
		p.CapacityBps = ev.CapacityBps
	}
	if ev.RTT > 0 {
		p.RTT = ev.RTT
	}
	p.Jitter = ev.Jitter
	p.LossRate = ev.Loss
	e.rec.Eventf("impair: %s <-> %s (cap=%g rtt=%v jitter=%v loss=%g) for %v", a, b, p.CapacityBps, p.RTT, p.Jitter, p.LossRate, ev.For)
	e.fab.SetLink(a, b, p)
	select {
	case <-e.stopCh:
	case <-time.After(ev.For):
	}
	e.fab.SetLink(a, b, old)
	e.rec.Eventf("impair restored: %s <-> %s", a, b)
}

// --- monitor ---------------------------------------------------------------------

// monitor samples process heap and relay egress backlogs against the
// bounds until the run stops.
func (e *engine) monitor() {
	defer e.wg.Done()
	var ms runtime.MemStats
	for {
		select {
		case <-e.stopCh:
			return
		case <-time.After(monitorInterval):
		}
		runtime.ReadMemStats(&ms)
		e.countMu.Lock()
		if ms.HeapAlloc > e.peakHeap {
			e.peakHeap = ms.HeapAlloc
		}
		e.countMu.Unlock()
		e.opts.Bounds.CheckHeap(e.rec, ms.HeapAlloc)

		e.mu.Lock()
		type scrapeTarget struct {
			name string
			reg  *obs.Registry
		}
		var targets []scrapeTarget
		for i, reg := range e.regs {
			if !e.down[i] && reg != nil {
				targets = append(targets, scrapeTarget{e.dep.Relays[i].Name, reg})
			}
		}
		e.mu.Unlock()

		for _, t := range targets {
			sc, err := scrape(t.reg)
			if err != nil {
				continue
			}
			if v, ok := sc.Value("netibis_flow_egress_backlog_frames"); ok {
				e.countMu.Lock()
				if v > e.peakBacklog {
					e.peakBacklog = v
				}
				e.countMu.Unlock()
				e.opts.Bounds.CheckBacklog(e.rec, t.name, v)
			}
		}
	}
}

// --- teardown --------------------------------------------------------------------

// teardown closes clients, the deployment and the fabric.
func (e *engine) teardown() {
	for _, s := range e.slots {
		s.mu.Lock()
		cli := s.cli
		s.cli = nil
		s.mu.Unlock()
		if cli != nil {
			cli.Close()
		}
	}
	for _, att := range e.clients {
		e.live.remove(att.NodeID)
		att.Close()
	}
	e.wg.Wait()
	e.dep.Close()
	e.fab.Close()
}

// checkLeaks asserts the goroutine count settled back to the
// pre-fabric baseline; a miss is a leaked-goroutine violation with a
// creation-site-labeled report attached.
func (e *engine) checkLeaks(baseline int) {
	const slack = 8
	if why := testutil.Settle(func() (bool, string) {
		runtime.GC()
		now := runtime.NumGoroutine()
		return now <= baseline+slack, fmt.Sprintf("baseline %d, now %d", baseline, now)
	}); why != "" {
		e.rec.Violatef("goroutines", "goroutines leaked after teardown — %s\n%s", why, testutil.LeakReport())
	}
}

// buildResult assembles the run's metrics.
func (e *engine) buildResult(senders []*invariant.Sender, pairs []*streamPair) *Result {
	e.countMu.Lock()
	defer e.countMu.Unlock()
	s := e.sched
	simNodes := 0
	for _, ev := range s.Events {
		if ev.Kind == EvStorm {
			simNodes += ev.Nodes
		}
	}
	res := &Result{
		Seed:           s.Seed,
		SimNodes:       simNodes,
		Relays:         s.Relays,
		Secure:         s.Secure,
		Schedule:       s.String(),
		Attaches:       e.attaches,
		AttachFailures: e.attachFailures,
		AttachP50Ms:    e.attachLat.percentile(0.50),
		AttachP99Ms:    e.attachLat.percentile(0.99),
		Opens:          e.opens,
		OpenFailures:   e.openFailures,
		OpenP50Ms:      e.openLat.percentile(0.50),
		OpenP99Ms:      e.openLat.percentile(0.99),
		RecoverP50Ms:   e.recoverLat.percentile(0.50),
		RecoverMaxMs:   e.recoverLat.percentile(1),
		PeakHeapBytes:  e.peakHeap,
		Violations:     e.rec.Violations(),
	}
	res.PeakBacklogFrames = e.peakBacklog
	for _, reg := range e.clientRegs {
		if sc, err := scrape(reg); err == nil {
			res.Recoveries += int(sc.Labeled("netibis_core_reattach_total", "result")["ok"])
		}
	}
	if e.stormWindow > 0 {
		res.AttachPerSec = float64(e.attaches) / e.stormWindow.Seconds()
	}
	e.stormConvergeMu.Lock()
	res.StormConvergeMs = append([]float64(nil), e.stormConverge...)
	res.HealConvergeMs = append([]float64(nil), e.healConverge...)
	e.stormConvergeMu.Unlock()
	for i, snd := range senders {
		p := pairs[i]
		res.StreamRecords += p.rcv.Verified()
		res.StreamBytes += p.rcv.Verified() * uint64(p.cfg.RecordBytes)
		res.StreamResent += snd.Resent()
		res.StreamDupes += p.rcv.Dupes()
		res.StreamResets += p.rcv.Resets()
	}
	return res
}
