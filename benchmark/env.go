package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"netibis/internal/core"
	"netibis/internal/emunet"
	"netibis/internal/estab"
	"netibis/internal/ipl"
	"netibis/internal/obs"
)

// The two shaped links. delftSophia is the paper's Fig 10 link; metro
// is the short link every control-plane crossing pays, and the data
// link of connect_matrix.
var (
	delftSophia = emunet.LinkParams{CapacityBps: 9e6, RTT: 43 * time.Millisecond}
	metro       = emunet.LinkParams{CapacityBps: 9e6, RTT: 4 * time.Millisecond}
)

const (
	smallSize = 64 // bytes per message of the stream and ping-pong phases
	probeLen  = 200 * time.Millisecond
)

// workloadSpec is one workload: the emulated grid its data phases run
// on, and how the run's seconds are shared among the phases every
// workload has. The connect scenarios always run on a grid of their
// own with metro links (see world).
type workloadSpec struct {
	name string
	why  string

	timeScale float64            // of the data grid; 0 turns the emunet shaper off
	ctlScale  float64            // time scale of the control grid: 1, but for the smoke test
	pairLink  *emunet.LinkParams // sender site <-> receiver site; nil for metro, the default link
	relays    int
	pairs     int
	routed    bool // sender behind a broken NAT with no proxy: every data link is routed messages

	bulkSize  int // bytes per bulk message
	warmup    int // messages per link before the first timed window
	acceptors int // fresh acceptor nodes (cold connects) per connect scenario
	setups    int // how many times the world is set up; setup_s is the median

	// procs, when not 0, is the GOMAXPROCS the workload runs at. The
	// workloads whose limit is the CPU run on one P: goodput is then
	// the reciprocal of the CPU cost per byte summed over every layer
	// on the path, so a saving anywhere shows, and the luck of which
	// goroutine wakes on which core is out of the reading (with two Ps
	// the small-message rate and round trip of one commit spread by a
	// third from run to run).
	procs int

	probeLen time.Duration // how long each layer probe of the traced run pushes data for

	// rounds is how many slices each data phase is dealt into, one a
	// round (see runSuite); windows is how many windows a slice is cut
	// into, the first of which is discarded. The workloads whose limit
	// is the CPU have many rounds, for they feel what the host's other
	// tenants do; a slice on a shaped link must still hold several 1 MiB
	// messages, so those phases stay in one piece.
	rounds, windows int

	// Shares of the run's seconds: each of the five bulk phases, the
	// small-message stream and the ping-pong. The connects are counted,
	// not timed: acceptors per scenario.
	bulkShare, streamShare, pingShare float64
}

var workloads = []workloadSpec{
	{
		name:   "lan_stacks",
		why:    "shaper off, spliced pair: per-byte and per-message CPU cost of ipl/core/drivers/wire/emunet is all there is",
		relays: 1, pairs: 1, ctlScale: 1,
		bulkSize: 64 << 10, warmup: 256, acceptors: 4, setups: 5, procs: 1, probeLen: probeLen,
		rounds: 6, windows: 6,
		bulkShare: 0.15, streamShare: 0.12, pingShare: 0.06,
	},
	{
		name:      "wan_stacks",
		why:       "Delft-Sophia link (9 MB/s, 43 ms): the link does the work, so conn writes, striping, compression ratio and pipelining move the result",
		timeScale: 1, pairLink: &delftSophia,
		relays: 1, pairs: 1, ctlScale: 1,
		bulkSize: 1 << 20, warmup: 2, acceptors: 3, setups: 3, probeLen: probeLen,
		rounds: 1, windows: 12,
		bulkShare: 0.13, streamShare: 0.07, pingShare: 0.08,
	},
	{
		name:   "routed_mesh",
		why:    "every link is routed messages across a 3-relay mesh: relay/overlay/wire forwarding, egress queues and credits do the work",
		relays: 3, pairs: min(2, runtime.NumCPU()), routed: true, ctlScale: 1,
		bulkSize: 64 << 10, warmup: 256, acceptors: 6, setups: 5, procs: 1, probeLen: probeLen,
		rounds: 6, windows: 6,
		bulkShare: 0.15, streamShare: 0.12, pingShare: 0.06,
	},
	{
		name:      "connect_matrix",
		why:       "4 ms links, many cold connects per scenario: estab/nameservice/relay control plane and core service links run, data phases are short",
		timeScale: 1,
		relays:    1, pairs: 1, ctlScale: 1,
		bulkSize: 256 << 10, warmup: 2, acceptors: 14, setups: 3, probeLen: probeLen,
		rounds: 1, windows: 12,
		bulkShare: 0.06, streamShare: 0.05, pingShare: 0.07,
	},
}

func workloadByName(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scenario is one connect topology: the initiator's and the acceptors'
// site, and the establishment method the link must end up with.
type scenario struct {
	name       string
	init, acc  emunet.SiteConfig
	clearProxy bool
	want       estab.Method
}

var scenarios = []scenario{
	{name: "direct", init: emunet.SiteConfig{Firewall: emunet.Open}, acc: emunet.SiteConfig{Firewall: emunet.Open}, want: estab.ClientServer},
	{name: "splice", init: emunet.SiteConfig{Firewall: emunet.Stateful}, acc: emunet.SiteConfig{Firewall: emunet.Stateful}, want: estab.Splicing},
	{name: "routed", init: emunet.SiteConfig{Firewall: emunet.Stateful, NAT: emunet.BrokenNAT}, acc: emunet.SiteConfig{Firewall: emunet.Stateful}, clearProxy: true, want: estab.Routed},
	// The initiator's firewall drops simultaneous-open SYNs, which no
	// profile shows: splicing hangs and routed wins one stagger later.
	{name: "raced", init: emunet.SiteConfig{Firewall: emunet.Stateful, SpliceHostile: true}, acc: emunet.SiteConfig{Firewall: emunet.Stateful}, want: estab.Routed},
}

const pool = "bench"

// link is one ipl channel of a pair: a connected send port and its
// receive port. Sequence numbers run on across warm-up and phases, so
// the order check covers the link's whole life.
type link struct {
	name    string
	sp      ipl.SendPort
	rp      ipl.ReceivePort
	tl      *traceLink // nil in the untraced run
	sendSeq int64
	recvSeq int64
}

func (l *link) close() {
	l.sp.Close()
	l.rp.Close()
}

// pair is one sender and one receiver node with a link per stack, plus
// the reverse plain link that carries ping-pong echoes.
type pair struct {
	snd, rcv *core.Node
	links    map[string]*link // by stack suffix
	pong     *link
}

// connectRig is one connect scenario's nodes.
type connectRig struct {
	sc   scenario
	init *core.Node
	accs []*core.Node
	rps  []ipl.ReceivePort
}

// grid is one emulated internetwork with its shared services.
type grid struct {
	fabric *emunet.Fabric
	dep    *core.Deployment
}

func newGrid(seed int64, timeScale float64, relays int) (*grid, error) {
	g := &grid{fabric: emunet.NewFabric(emunet.WithSeed(seed), emunet.WithTimeScale(timeScale), emunet.WithDefaultLink(metro))}
	var err error
	if g.dep, err = core.NewFederatedDeployment(g.fabric, relays); err != nil {
		g.fabric.Close()
		return nil, err
	}
	return g, nil
}

func (g *grid) close() {
	g.dep.Close()
	g.fabric.Close()
}

// world is everything one set-up builds. The pairs live on the data
// grid, which is the workload's. The connect scenarios live on a
// control grid that has the workload's relay mesh but always real-time
// metro links: a connect is a chain of link crossings, which is what
// its user waits for, and timing it with the shaper off would time a
// tenth of a millisecond of goroutine hand-offs instead.
type world struct {
	spec  *workloadSpec
	tr    *tracer
	data  *grid
	ctl   *grid
	nodes []*core.Node
	regs  []*obs.Registry // one per node, traced run only
	pairs []*pair
	rigs  []*connectRig
	bulk  *payloadPool
	small *payloadPool

	mu     sync.Mutex
	joinMs []float64
	slots  chan struct{} // bounds the joins in flight
}

// joinsInFlight bounds how many nodes join at once: the registry's
// listener has a backlog of 128 and refuses what does not fit.
const joinsInFlight = 32

var connectPort = ipl.PortType{Name: "connect", Stack: "tcpblk"}

// buildWorld is the set-up: deployments, joins, payload generation,
// port connects and the count-based warm-up. The world is ready for its
// first timed window when it returns.
func buildWorld(spec *workloadSpec, seed int64, tr *tracer) (w *world, err error) {
	w = &world{spec: spec, tr: tr, slots: make(chan struct{}, joinsInFlight)}
	defer func() {
		if err != nil {
			w.close()
			w = nil
		}
	}()
	if w.data, err = newGrid(seed, spec.timeScale, spec.relays); err != nil {
		return w, err
	}
	if w.ctl, err = newGrid(seed, spec.ctlScale, spec.relays); err != nil {
		return w, err
	}
	w.bulk = newPayloadPool(spec.bulkSize, seed)
	w.small = newPayloadPool(smallSize, seed+1)

	// The connect rigs come up side by side, as the nodes of a starting
	// grid job do, while the pairs connect one after the other.
	w.rigs = make([]*connectRig, len(scenarios))
	errs := make([]error, len(scenarios))
	var wg sync.WaitGroup
	for i, sc := range scenarios {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w.rigs[i], errs[i] = w.buildRig(sc); errs[i] != nil {
				errs[i] = fmt.Errorf("connect scenario %s: %w", sc.name, errs[i])
			}
		}()
	}
	for i := 0; i < spec.pairs && err == nil; i++ {
		var p *pair
		if p, err = w.buildPair(i); err != nil {
			err = fmt.Errorf("pair %d: %w", i, err)
			break
		}
		w.pairs = append(w.pairs, p)
	}
	wg.Wait()
	for _, rigErr := range errs {
		if err == nil {
			err = rigErr
		}
	}
	if err != nil {
		return w, err
	}
	if err = w.warmUp(); err != nil {
		return w, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

// join adds one node on a fresh host of the site, pinned to the given
// relay of the mesh when the grid has more than one.
func (w *world) join(g *grid, site *emunet.Site, name string, relayIdx int, clearProxy bool) (*core.Node, error) {
	w.slots <- struct{}{}
	defer func() { <-w.slots }()
	host := site.AddHost(name)
	var cfg core.Config
	if len(g.dep.Relays) > 1 {
		cfg = g.dep.NodeConfigOnRelay(host, pool, name, relayIdx%len(g.dep.Relays))
	} else {
		cfg = g.dep.NodeConfig(host, pool, name)
	}
	if clearProxy {
		cfg.Proxy = emunet.Endpoint{}
	}
	var reg *obs.Registry
	if w.tr != nil {
		reg = obs.NewRegistry()
		cfg.Metrics = reg
	}
	start := time.Now()
	var n *core.Node
	var err error
	w.tr.controlSpan(ctlJoin, func() { n, err = core.Join(cfg) })
	if err != nil {
		return nil, fmt.Errorf("join %s: %w", name, err)
	}
	w.mu.Lock()
	w.joinMs = append(w.joinMs, float64(time.Since(start))/1e6)
	w.nodes = append(w.nodes, n)
	if reg != nil {
		w.regs = append(w.regs, reg)
	}
	w.mu.Unlock()
	return n, g.awaitGossip(pool + "/" + name)
}

// awaitGossip waits until every relay of a mesh knows where the node is
// attached. A relay drops, without telling anyone, any routed frame but
// an open whose destination its directory does not list yet, so an open
// that outruns the dialer's own attach gossip loses its reply and the
// dial waits out its whole timeout. The benchmark steps around that
// race; it is the program's to close.
func (g *grid) awaitGossip(id string) error {
	if len(g.dep.Relays) < 2 {
		return nil
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(200 * time.Microsecond) {
		known := 0
		for _, ri := range g.dep.Relays {
			for _, e := range ri.Overlay.Directory() {
				if e.Node == id && e.Present {
					known++
					break
				}
			}
		}
		if known == len(g.dep.Relays) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("attachment of %s reached %d of %d relays", id, known, len(g.dep.Relays))
		}
	}
}

func (w *world) buildPair(i int) (*pair, error) {
	spec, g := w.spec, w.data
	sndCfg := emunet.SiteConfig{Firewall: emunet.Stateful}
	if spec.routed {
		sndCfg.NAT = emunet.BrokenNAT
	}
	sndSite := g.dep.AddSite(fmt.Sprintf("snd-site-%d", i), sndCfg)
	rcvSite := g.dep.AddSite(fmt.Sprintf("rcv-site-%d", i), emunet.SiteConfig{Firewall: emunet.Stateful})
	if spec.pairLink != nil {
		g.fabric.SetLink(sndSite.Name(), rcvSite.Name(), *spec.pairLink)
	}
	p := &pair{links: map[string]*link{}}
	var err error
	if p.snd, err = w.join(g, sndSite, fmt.Sprintf("snd-%d", i), i, spec.routed); err != nil {
		return nil, err
	}
	if p.rcv, err = w.join(g, rcvSite, fmt.Sprintf("rcv-%d", i), i+1, false); err != nil {
		return nil, err
	}
	for _, s := range stacks {
		l, err := w.connect(p.snd, p.rcv, fmt.Sprintf("pair%d/%s", i, s.suffix), s.spec)
		if err != nil {
			return nil, err
		}
		p.links[s.suffix] = l
	}
	if p.pong, err = w.connect(p.rcv, p.snd, fmt.Sprintf("pair%d/pong", i), stacks[0].spec); err != nil {
		return nil, err
	}
	return p, nil
}

// connect creates a receive port on to, a send port on from and
// connects them over the given stack; in a traced world the stack gets
// a probe above every layer.
func (w *world) connect(from, to *core.Node, name, stack string) (*link, error) {
	l := &link{name: name}
	if w.tr != nil {
		var err error
		if l.tl, stack, err = w.tr.newLink(name, stack); err != nil {
			return nil, err
		}
	}
	pt := ipl.PortType{Name: name, Stack: stack}
	var err error
	if l.rp, err = to.CreateReceivePort(pt, name); err != nil {
		return nil, err
	}
	if l.sp, err = from.CreateSendPort(pt); err != nil {
		return nil, err
	}
	if err := l.sp.Connect(l.rp.ID()); err != nil {
		return nil, fmt.Errorf("connect %s: %w", name, err)
	}
	return l, nil
}

// buildRig joins one scenario's initiator and its fresh acceptors on
// the control grid, the initiator pinned to the mesh's first relay and
// the acceptors to its second. One acceptor more than the cold connects
// need joins, for the connect without pre-warm.
func (w *world) buildRig(sc scenario) (*connectRig, error) {
	rig, g := &connectRig{sc: sc}, w.ctl
	initSite := g.dep.AddSite("cs-"+sc.name+"-init", sc.init)
	accSite := g.dep.AddSite("cs-"+sc.name+"-acc", sc.acc)
	var err error
	if rig.init, err = w.join(g, initSite, "init-"+sc.name, 0, sc.clearProxy); err != nil {
		return nil, err
	}
	n := w.spec.acceptors + 1
	rig.accs = make([]*core.Node, n)
	rig.rps = make([]ipl.ReceivePort, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("acc-%s-%d", sc.name, i)
			if rig.accs[i], errs[i] = w.join(g, accSite, name, 1, false); errs[i] != nil {
				return
			}
			rig.rps[i], errs[i] = rig.accs[i].CreateReceivePort(connectPort, "inbox")
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rig, nil
}

// warmUp pushes the count-based warm-up through every link: bulk
// messages where the shaper is off and caches and pools are what a
// first window would pay for, small ones where every message costs a
// link crossing and there is no CPU state worth the wait.
func (w *world) warmUp() error {
	pool := w.bulk
	if w.spec.timeScale > 0 {
		pool = w.small
	}
	for _, p := range w.pairs {
		for _, s := range stacks {
			if err := transfer(p.links[s.suffix], pool, w.spec.warmup); err != nil {
				return fmt.Errorf("%s: %w", p.links[s.suffix].name, err)
			}
		}
		if err := transfer(p.pong, w.small, w.spec.warmup); err != nil {
			return fmt.Errorf("%s: %w", p.pong.name, err)
		}
	}
	return nil
}

// close tears the world down: ports, nodes, then both grids.
func (w *world) close() {
	for _, p := range w.pairs {
		for _, l := range p.links {
			l.close()
		}
		if p.pong != nil {
			p.pong.close()
		}
	}
	var wg sync.WaitGroup
	for _, n := range w.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.Close()
		}()
	}
	wg.Wait()
	for _, g := range []*grid{w.data, w.ctl} {
		if g != nil {
			g.close()
		}
	}
}
