package main

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"time"

	"netibis/internal/obs"
)

// runTraced is the traced run. End-to-end numbers never come from it:
// it first runs the suite untraced for half the seconds as its own
// reference, then again in a world whose stacks carry a probe above
// every layer and whose nodes export their counters, and reports what
// the layers did. trace.overhead_ratio is the goodput the probes cost.
func runTraced(spec *workloadSpec, seed int64, seconds float64, tl *tally, spansPath string) (metricSet, error) {
	m := metricSet{}

	w0, err := buildWorld(spec, seed, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up (reference): %w", err)
	}
	report("reference pass (untraced)")
	ref := runSuite(w0, seconds/2, tl, nil)
	w0.close()

	tr := newTracer()
	defer tr.close()
	w1, err := buildWorld(spec, seed, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up (traced): %w", err)
	}
	defer w1.close()
	an := newAnalyzer(w1)
	report("traced pass")
	traced := runSuite(w1, seconds/2, tl, an.afterPhase)
	an.stop()

	an.layerMetrics(m)
	for name, s := range suiteMetrics(ref).only(perLayer) {
		m.put(name, s)
	}
	for _, s := range stacks {
		a := ref.allocs[s.suffix]
		m.put("proc.allocs_per_msg."+s.suffix, sample{Value: a[0], Unit: "count"})
		m.put("proc.alloc_bytes_per_msg."+s.suffix, sample{Value: a[1], Unit: "B"})
	}
	var overhead []float64
	for _, s := range stacks {
		if r := ref.goodput[s.suffix].Value; r > 0 {
			overhead = append(overhead, 1-traced.goodput[s.suffix].Value/r)
		}
	}
	m.put("trace.overhead_ratio", sample{Value: mean(overhead), Unit: "ratio", N: len(overhead)})
	an.controlMetrics(m, traced)
	if err := controlProbes(w1, m); err != nil {
		return nil, err
	}
	if err := layerProbes(spec, seed, m); err != nil {
		return nil, err
	}
	if dropped := tr.dropped.Load(); dropped > 0 {
		report("trace: %d spans beyond the per-phase cap were not kept", dropped)
	}
	if spansPath != "" {
		if err := tr.writeSpans(spansPath); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// per is num over den as a sample, 0 where there is nothing to divide
// by (a phase that moved no message, a workload without relays).
func per(num, den float64, unit string) sample {
	s := sample{Unit: unit}
	if den > 0 {
		s.Value = num / den
	}
	return s
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// counters is one reading of what the program exports: the statistics
// of the data grid's relay servers and the sums over every node's
// registry.
type counters struct {
	routed, forwarded         int64
	egressWrites, egressFrame int64
	creditStalls              float64
	blockedWriterS            float64
	races, cacheHits          float64
	wins                      map[string]float64
}

// layerTimes is what the spans of one phase say about one stack.
type layerTimes struct {
	layers    []string // by depth; layers[0] is the port (core and ipl)
	msgs      int64
	bytes     int64
	encodeNs  int64
	sendSelf  []int64 // by depth: time in the layer not covered by the layer below
	recvSelf  []int64
	sendTotal int64 // WriteBytes + Finish
	recvTotal int64 // the receive port's reader, first read to last
	// What the send side's probes saw pass into each layer, by depth
	// and probe instance: calls and bytes.
	seen []map[*probeCount][2]int64
}

// into sums what the probes above the layer at depth d saw: calls,
// bytes and the most bytes any one instance saw.
func (lt *layerTimes) into(d int) (calls, bytes, most int64, instances int) {
	for _, v := range lt.seen[d] {
		calls += v[0]
		bytes += v[1]
		most = max(most, v[1])
	}
	return calls, bytes, most, len(lt.seen[d])
}

// analyzer turns the traced pass's spans and counters into per-layer
// numbers, phase by phase.
type analyzer struct {
	w  *world
	tr *tracer

	phases map[string]layerTimes // by phase name
	deltas map[string]counters   // by phase name
	peak   map[string]int        // relay egress backlog peak, frames, by phase name

	last      counters
	lastProbe map[*probeCount][2]int64

	mu       sync.Mutex
	backlog  int
	stopPoll chan struct{}
	pollDone chan struct{}
}

// backlogPollEvery is how often the relays' egress backlog is read
// while a traced phase runs.
const backlogPollEvery = 2 * time.Millisecond

func newAnalyzer(w *world) *analyzer {
	a := &analyzer{
		w: w, tr: w.tr,
		phases: map[string]layerTimes{}, deltas: map[string]counters{}, peak: map[string]int{},
		lastProbe: map[*probeCount][2]int64{},
		stopPoll:  make(chan struct{}), pollDone: make(chan struct{}),
	}
	a.tr.take("setup") // the set-up's spans are not a phase
	a.last = a.readCounters()
	a.readProbes()
	go a.pollBacklog()
	return a
}

func (a *analyzer) pollBacklog() {
	defer close(a.pollDone)
	tick := time.NewTicker(backlogPollEvery)
	defer tick.Stop()
	for {
		select {
		case <-a.stopPoll:
			return
		case <-tick.C:
			total := 0
			for _, ri := range a.w.data.dep.Relays {
				for _, nb := range ri.Server.EgressBacklogAll() {
					total += nb.Frames
				}
			}
			a.mu.Lock()
			a.backlog = max(a.backlog, total)
			a.mu.Unlock()
		}
	}
}

func (a *analyzer) stop() {
	close(a.stopPoll)
	<-a.pollDone
}

func (a *analyzer) readCounters() counters {
	c := counters{wins: map[string]float64{}}
	for _, ri := range a.w.data.dep.Relays {
		st := ri.Server.Stats()
		c.routed += st.FramesRouted
		c.forwarded += st.FramesForwarded
		w, f := ri.Server.EgressWriteStats()
		c.egressWrites += w
		c.egressFrame += f
	}
	for _, reg := range a.w.regs {
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			continue
		}
		sc, err := obs.ParseText(&buf)
		if err != nil {
			continue
		}
		add := func(dst *float64, name string) {
			if v, ok := sc.Value(name); ok {
				*dst += v
			}
		}
		add(&c.creditStalls, "netibis_flow_credit_stalls_total")
		add(&c.blockedWriterS, "netibis_flow_blocked_writer_seconds_total")
		add(&c.races, "netibis_estab_races_total")
		add(&c.cacheHits, "netibis_estab_cache_hits_total")
		for method, v := range sc.Labeled("netibis_estab_method_wins_total", "method") {
			c.wins[method] += v
		}
	}
	return c
}

// readProbes reads every probe's counts and returns what each has seen
// since the previous reading.
func (a *analyzer) readProbes() map[*probeCount][2]int64 {
	delta := map[*probeCount][2]int64{}
	a.tr.mu.Lock()
	links := append([]*traceLink(nil), a.tr.links...)
	a.tr.mu.Unlock()
	for _, l := range links {
		l.mu.Lock()
		for side := range l.probes {
			for _, ps := range l.probes[side] {
				for _, p := range ps {
					now := [2]int64{p.calls.Load(), p.bytes.Load()}
					prev := a.lastProbe[p]
					delta[p] = [2]int64{now[0] - prev[0], now[1] - prev[1]}
					a.lastProbe[p] = now
				}
			}
		}
		l.mu.Unlock()
	}
	return delta
}

// afterPhase reads the counters at the end of a slice of a phase and
// analyses the slice's spans; slices of one name (a phase's slices of
// every round, the connect batches) add up.
func (a *analyzer) afterPhase(p phaseInfo) {
	now := a.readCounters()
	d := a.deltas[p.name]
	d.routed += now.routed - a.last.routed
	d.forwarded += now.forwarded - a.last.forwarded
	d.egressWrites += now.egressWrites - a.last.egressWrites
	d.egressFrame += now.egressFrame - a.last.egressFrame
	d.creditStalls += now.creditStalls - a.last.creditStalls
	d.blockedWriterS += now.blockedWriterS - a.last.blockedWriterS
	a.last = now
	a.deltas[p.name] = d
	a.mu.Lock()
	a.peak[p.name] = max(a.peak[p.name], a.backlog)
	a.backlog = 0
	a.mu.Unlock()

	probes := a.readProbes()
	views := a.tr.take(p.name)
	if p.suffix == "" {
		return
	}
	lt := a.phases[p.name]
	lt.msgs += p.msgs
	lt.bytes += p.bytes
	t0, t1 := int64(p.start.Sub(a.tr.epoch)), int64(p.end.Sub(a.tr.epoch))
	for _, pr := range a.w.pairs {
		l := pr.links[p.suffix].tl
		a.analyzeLink(&lt, l, views, t0, t1, probes)
	}
	a.phases[p.name] = lt
}

// analyzeLink adds one link's share of a phase to lt. A layer's self
// time is the union of its spans minus the part of it the spans of the
// layer below cover; under multi those run on other goroutines and may
// overlap each other, which is why unions and not sums are taken.
func (a *analyzer) analyzeLink(lt *layerTimes, l *traceLink, views []spanView, t0, t1 int64, probes map[*probeCount][2]int64) {
	depths := len(l.layers)
	if lt.layers == nil {
		lt.layers = l.layers
		lt.sendSelf = make([]int64, depths)
		lt.recvSelf = make([]int64, depths)
		lt.seen = make([]map[*probeCount][2]int64, depths)
		for d := range lt.seen {
			lt.seen[d] = map[*probeCount][2]int64{}
		}
	}
	type key struct{ side, depth int }
	a.tr.mu.Lock()
	kindAt := make([]key, len(a.tr.kinds))
	for k, name := range a.tr.kinds {
		parts := strings.SplitN(name, ".", 3)
		kindAt[k] = key{side: -1}
		for d, layer := range l.layers {
			if layer == parts[1] {
				kindAt[k] = key{side: sideRecv, depth: d}
				if parts[0] == sideNames[sideSend] {
					kindAt[k].side = sideSend
				}
			}
		}
	}
	a.tr.mu.Unlock()

	var sets [2][]([]interval)
	sets[sideSend] = make([][]interval, depths)
	sets[sideRecv] = make([][]interval, depths)
	var encode, finish []interval
	for _, v := range views {
		if v.link != l.id || v.end <= t0 || v.start >= t1 {
			continue
		}
		iv := interval{max(v.start, t0), min(v.end, t1)}
		switch v.kind {
		case a.tr.kEncode:
			encode = append(encode, iv)
		case a.tr.kFinish:
			finish = append(finish, iv)
		default:
			if k := kindAt[v.kind]; k.side >= 0 && k.depth > 0 {
				sets[k.side][k.depth] = append(sets[k.side][k.depth], iv)
			}
		}
	}
	for side := range sets {
		for d := range sets[side] {
			sets[side][d] = normalize(sets[side][d])
		}
	}
	self := func(side int, into []int64) {
		for d := 1; d < depths; d++ {
			own := totalLen(sets[side][d])
			if d+1 < depths {
				own -= interLen(sets[side][d], sets[side][d+1])
			}
			into[d] += own
		}
	}

	encode, finish = normalize(encode), normalize(finish)
	lt.encodeNs += totalLen(encode)
	lt.sendTotal += totalLen(encode) + totalLen(finish)
	if depths > 1 {
		lt.sendSelf[0] += totalLen(finish) - interLen(finish, sets[sideSend][1])
		self(sideSend, lt.sendSelf)

		// The receive port's reader is the program's own goroutine:
		// its time line is from its first read of the phase to its
		// last, and its self time is what it spends outside those reads.
		if top := sets[sideRecv][1]; len(top) > 0 {
			window := top[len(top)-1].b - top[0].a
			lt.recvTotal += window
			lt.recvSelf[0] += window - totalLen(top)
		}
		self(sideRecv, lt.recvSelf)
	}

	l.mu.Lock()
	for d := 1; d < depths; d++ {
		for _, p := range l.probes[sideSend][d] {
			was, add := lt.seen[d][p], probes[p]
			lt.seen[d][p] = [2]int64{was[0] + add[0], was[1] + add[1]}
		}
	}
	l.mu.Unlock()
}

func sum(v []int64) (s int64) {
	for _, x := range v {
		s += x
	}
	return s
}

// layerMetrics reports the per-layer numbers of the data phases.
func (a *analyzer) layerMetrics(m metricSet) {
	perMsgUs := func(ns, msgs int64) sample {
		s := per(float64(ns)/1e3, float64(msgs), "us")
		s.N = int(msgs)
		return s
	}
	ratio := func(num, den int64, unit string) sample { return per(float64(num), float64(den), unit) }
	// depthOf finds a layer in a phase's stack; every stack here names a
	// layer once.
	depthOf := func(lt layerTimes, layer string) int {
		for d, name := range lt.layers {
			if name == layer {
				return d
			}
		}
		return 0
	}

	plain := a.phases["bulk.plain"]
	m.put("ipl.encode_us_per_msg", perMsgUs(plain.encodeNs, plain.msgs))
	if len(plain.sendSelf) > 1 {
		m.put("core.send_self_us_per_msg", perMsgUs(plain.sendSelf[0], plain.msgs))
		m.put("core.recv_self_us_per_msg", perMsgUs(plain.recvSelf[0], plain.msgs))
		m.put("tcpblk.write_us_per_msg", perMsgUs(plain.sendSelf[1], plain.msgs))
		m.put("tcpblk.read_us_per_msg", perMsgUs(plain.recvSelf[1], plain.msgs))
	}

	for _, f := range []struct{ phase, layer string }{{"bulk.zip", "zip"}, {"bulk.secure", "secure"}, {"bulk.streams", "multi"}} {
		lt := a.phases[f.phase]
		d := depthOf(lt, f.layer)
		if d == 0 || d+1 >= len(lt.layers) {
			continue
		}
		m.put(f.layer+".write_self_us_per_msg", perMsgUs(lt.sendSelf[d], lt.msgs))
		m.put(f.layer+".read_self_us_per_msg", perMsgUs(lt.recvSelf[d], lt.msgs))
		_, in, _, _ := lt.into(d)
		calls, out, most, instances := lt.into(d + 1)
		switch f.layer {
		case "zip":
			m.put("zip.ratio", ratio(in, out, "ratio"))
			m.put("zip.blocks_per_msg", ratio(calls, lt.msgs, "count"))
		case "secure":
			m.put("secure.expansion_ratio", ratio(out, in, "ratio"))
			m.put("secure.records_per_msg", ratio(calls, lt.msgs, "count"))
		case "multi":
			m.put("multi.fragments_per_msg", ratio(calls, lt.msgs, "count"))
			m.put("multi.stripe_imbalance", per(float64(most)*float64(instances), float64(out), "ratio"))
		}
	}

	// Coverage: how much of the end-to-end spans of the bulk phases the
	// layers' self times account for.
	var selfNs, totalNs int64
	for _, s := range stacks {
		lt := a.phases["bulk."+s.suffix]
		selfNs += lt.encodeNs + sum(lt.sendSelf) + sum(lt.recvSelf)
		totalNs += lt.sendTotal + lt.recvTotal
	}
	m.put("trace.coverage_ratio", ratio(selfNs, totalNs, "ratio"))

	// The relay's share of the plain bulk phase.
	d := a.deltas["bulk.plain"]
	gb := float64(plain.bytes) / 1e9
	m.put("relay.egress_frames_per_write", ratio(d.egressFrame, d.egressWrites, "count"))
	m.put("relay.routed_frames_per_msg", ratio(d.routed, plain.msgs, "count"))
	m.put("relay.forwarded_frames_per_msg", ratio(d.forwarded, plain.msgs, "count"))
	m.put("relay.credit_stalls_per_GB", per(d.creditStalls, gb, "1/GB"))
	m.put("relay.blocked_writer_s_per_GB", per(d.blockedWriterS, gb, "s/GB"))
	m.put("relay.egress_backlog_peak_frames", sample{Value: float64(a.peak["bulk.plain"]), Unit: "count"})
}

// controlMetrics reports the establishment numbers of the traced pass.
func (a *analyzer) controlMetrics(m metricSet, r suiteResult) {
	halfRTTms := float64(metro.RTT) / 2e6 * a.w.spec.ctlScale // the control grid's links
	var first, service []float64
	for _, name := range scenarioNames {
		c := r.connect[name]
		crossings := sample{Unit: "count", N: len(c.coldMs)}
		if len(c.coldMs) > 0 {
			crossings.Value = median(c.coldMs) / halfRTTms
		}
		m.put("estab.link_crossings_per_connect."+name, crossings)
		first = append(first, c.firstMs...)
		service = append(service, c.serviceMs...)
	}
	m.put("estab.cache_reconnect_ms", summarize(r.connect["raced"].warmMs, "ms"))
	m.put("estab.first_connect_ms", summarize(first, "ms"))
	m.put("core.service_link_ms", summarize(service, "ms"))
	m.put("estab.cpu_ms_per_connect", per(r.connectCPU*1e3, float64(r.connects), "ms"))
	for _, method := range []string{"client_server", "splicing", "proxy", "routed"} {
		m.put("estab.method_wins."+method, sample{Value: a.last.wins[method], Unit: "count"})
	}
	m.put("estab.races_total", sample{Value: a.last.races, Unit: "count"})
	m.put("estab.cache_hits_total", sample{Value: a.last.cacheHits, Unit: "count"})
	m.put("core.join_ms", summarize(a.w.joinMs, "ms"))
}
