package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"
)

// phaseInfo describes one finished slice of a timed phase to the traced
// run's analysis.
type phaseInfo struct {
	name   string // "bulk.zip", "stream", "pingpong", "connect.raced"
	suffix string // stack suffix of the links used, "" for connect
	start  time.Time
	end    time.Time
	msgs   int64 // verified messages (or round trips, or connects)
	bytes  int64 // verified payload bytes
}

// suiteResult is what the common suite of phases measured in one world.
type suiteResult struct {
	goodput    map[string]sample // MB/s by stack suffix
	allocs     map[string][2]float64
	msgRate    sample    // 1e3 msg/s
	rtt        sample    // us, over the windows' medians
	rttUs      []float64 // every round trip
	connect    map[string]connectResult
	bulkBytes  int64
	bulkCPU    float64
	connects   int
	connectCPU float64
}

// dataPhases is how many data phases a round has: the five bulk phases,
// the stream and the ping-pong.
const dataPhases = 7

// runSuite runs the timed phases every workload shares: five bulk
// phases (one per stack), the small-message stream and the ping-pong.
//
// The run is dealt into spec.rounds rounds, each a slice of every phase,
// so that every metric's windows are spread over the whole run and a
// busy stretch of a shared machine colours a part of each metric's
// windows, not all the windows of one. For the same reason a batch of
// every connect scenario's cold connects follows each slice. after, when
// set, is called at the end of each slice; slices of one phase carry one
// name.
func runSuite(w *world, seconds float64, tl *tally, after func(phaseInfo)) suiteResult {
	spec := w.spec
	res := suiteResult{
		goodput: map[string]sample{},
		allocs:  map[string][2]float64{},
		connect: map[string]connectResult{},
	}
	sliceLen := func(share float64) time.Duration {
		return time.Duration(share * seconds / float64(spec.rounds) * float64(time.Second))
	}
	batch, batches := 0, dataPhases*spec.rounds
	done := func(name, suffix string, start time.Time, msgs, bytes int64) {
		if after != nil {
			after(phaseInfo{name: name, suffix: suffix, start: start, end: time.Now(), msgs: msgs, bytes: bytes})
		}
		start = time.Now()
		n := res.runConnects(w, batch, batches, tl)
		batch++
		if after != nil && n > 0 {
			after(phaseInfo{name: "connect", start: start, end: time.Now(), msgs: n})
		}
	}

	// One-way phases add up over their slices: every window's rate,
	// and for the bulk phases what the process allocated meanwhile.
	type oneWay struct {
		rates              []float64
		msgs, bytes        int64
		elapsed            time.Duration
		cpu                float64
		mallocs, allocated uint64
	}
	slice := func(p *oneWay, name, suffix string, pool *payloadPool, share float64, inMsgs bool) {
		dur := sliceLen(share)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0 := cpuSeconds()
		start := time.Now()
		r := runStream(w, suffix, pool, dur, tl)
		p.cpu += cpuSeconds() - cpu0
		runtime.ReadMemStats(&m1)
		rates, msgRates := windowRates(r.curve, int64(dur)/int64(spec.windows), int64(dur))
		unit := 1e6 // MB/s
		if inMsgs {
			rates, unit = msgRates, 1e3 // 1e3 msg/s
		}
		for _, rate := range rates {
			p.rates = append(p.rates, rate/unit)
		}
		p.msgs += r.verified
		p.bytes += r.bytes
		p.elapsed += r.elapsed
		p.mallocs += m1.Mallocs - m0.Mallocs
		p.allocated += m1.TotalAlloc - m0.TotalAlloc
		done(name, suffix, start, r.verified, r.bytes)
	}
	bulk := make([]oneWay, len(stacks))
	var stream oneWay
	var rttWindows []float64
	for round := 0; round < spec.rounds; round++ {
		for i, s := range stacks {
			slice(&bulk[i], "bulk."+s.suffix, s.suffix, w.bulk, spec.bulkShare, false)
		}
		slice(&stream, "stream", "plain", w.small, spec.streamShare, true)
		start := time.Now()
		rtts := runPingPong(w, sliceLen(spec.pingShare), tl)
		res.rttUs = append(res.rttUs, rtts...)
		rttWindows = append(rttWindows, windowMedians(rtts, spec.windows)...)
		done("pingpong", "plain", start, int64(len(rtts)), 0)
	}

	for i, s := range stacks {
		b := bulk[i]
		res.bulkCPU += b.cpu
		res.bulkBytes += b.bytes
		res.goodput[s.suffix] = fastSide(b.rates, "MB/s", true)
		if b.msgs > 0 {
			res.allocs[s.suffix] = [2]float64{float64(b.mallocs) / float64(b.msgs), float64(b.allocated) / float64(b.msgs)}
		}
		report("bulk.%-8s %7d msgs of %d B in %v: %s", s.suffix, b.msgs, w.bulk.size, b.elapsed.Round(time.Millisecond), describe(res.goodput[s.suffix]))
	}
	res.msgRate = fastSide(stream.rates, "1e3/s", true)
	report("stream        %7d msgs of %d B in %v: %s", stream.msgs, smallSize, stream.elapsed.Round(time.Millisecond), describe(res.msgRate))
	res.rtt = fastSide(rttWindows, "us", false)
	sorted := sortedCopy(res.rttUs)
	report("pingpong      %7d round trips: %s; of all round trips p50 %.4g, p90 %.4g, p99 %.4g, p99.9 %.4g us", len(res.rttUs), describe(res.rtt),
		quantile(sorted, 0.5), quantile(sorted, 0.9), quantile(sorted, 0.99), quantile(sorted, 0.999))
	for _, name := range scenarioNames {
		r := res.connect[name]
		report("connect.%-6s cold median %s; warm median %s", name, describe(summarize(r.coldMs, "ms")), describe(summarize(r.warmMs, "ms")))
	}
	return res
}

// runConnects runs one batch of every connect scenario and returns how
// many connects it made. A connect is a chain of link crossings and the
// CPU idles, so the four scenarios' initiators run side by side.
func (res *suiteResult) runConnects(w *world, batch, batches int, tl *tally) (connects int64) {
	// The acceptors [lo, hi) of every rig fall to this batch; the rigs'
	// one acceptor more is kept for the last batch's connect without
	// pre-warm.
	lo, hi := w.spec.acceptors*batch/batches, w.spec.acceptors*(batch+1)/batches
	last := batch == batches-1
	if lo == hi && !last {
		return 0
	}
	cpu0 := cpuSeconds()
	results := make([]connectResult, len(w.rigs))
	var wg sync.WaitGroup
	for i, rig := range w.rigs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = runConnect(w, rig, lo, hi, last, tl)
		}()
	}
	wg.Wait()
	res.connectCPU += cpuSeconds() - cpu0
	for i, rig := range w.rigs {
		r := results[i]
		connects += int64(len(r.coldMs) + len(r.warmMs) + len(r.firstMs))
		acc := res.connect[rig.sc.name]
		acc.coldMs = append(acc.coldMs, r.coldMs...)
		acc.warmMs = append(acc.warmMs, r.warmMs...)
		acc.firstMs = append(acc.firstMs, r.firstMs...)
		acc.serviceMs = append(acc.serviceMs, r.serviceMs...)
		res.connect[rig.sc.name] = acc
	}
	res.connects += int(connects)
	return connects
}

// report prints one line of the human-readable account to standard
// error; standard output carries only the result line.
func report(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func describe(s sample) string {
	return fmt.Sprintf("%.4g %s (n=%d, quartiles %.4g..%.4g)", s.Value, s.Unit, s.N, s.Q1, s.Q3)
}

// suiteMetrics turns a suite result into the metrics every pass of the
// suite yields: the end-to-end ones but setup_s, and the two demoted
// from them.
func suiteMetrics(r suiteResult) metricSet {
	m := metricSet{}
	for _, s := range stacks {
		m.put("goodput_"+s.suffix+"_MBps", r.goodput[s.suffix])
	}
	m.put("msg_rate_kps", r.msgRate)
	m.put("rtt_p50_us", r.rtt)
	m.put("rtt_p90_us", sample{Value: quantile(sortedCopy(r.rttUs), 0.9), Unit: "us", N: len(r.rttUs)})
	for _, name := range scenarioNames {
		m.put("connect_"+name+"_ms", summarize(r.connect[name].coldMs, "ms"))
	}
	m.put("cpu_s_per_GB", per(r.bulkCPU, float64(r.bulkBytes)/1e9, "s/GB"))
	return m
}
