package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted values by linear
// interpolation between closest ranks; NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// summarize reports the median of values with its quartiles and count.
func summarize(values []float64, unit string) sample {
	s := sortedCopy(values)
	return sample{
		Value: quantile(s, 0.5),
		Unit:  unit,
		N:     len(s),
		Q1:    quantile(s, 0.25),
		Q3:    quantile(s, 0.75),
	}
}

// fastQuantile is how far towards the fast end of a phase's windows the
// reading of the phase is taken: a fifth of the windows are faster.
const fastQuantile = 0.8

// fastSide reports, of the readings of a phase's windows, the one a
// fifth of the way in from the fast end: the 80th percentile of rates,
// the 20th of times. The machine is a few cores of a shared host, and
// what the neighbours do to it comes in stretches of tenths of a second
// to seconds in which the same code runs a third to a half slower; it
// never runs faster than the machine left alone lets it. The median of
// the windows tips from one state to the other when the slow stretches
// pass half of the run, which they do in some runs and not in others
// (round trips of one commit read 3.2 us in seven runs and 4.9 in
// three). This reading stays with the machine left alone for as long as
// a fifth of the windows saw it. N, Q1 and Q3 describe all the windows.
func fastSide(values []float64, unit string, higherIsFaster bool) sample {
	s := summarize(values, unit)
	q := fastQuantile
	if !higherIsFaster {
		q = 1 - fastQuantile
	}
	s.Value = quantile(sortedCopy(values), q)
	return s
}

// windowMedians cuts the samples of one slice of a phase, in the order
// they were taken, into n windows of as many samples each, discards the
// first window and returns the median of each of the others. Slices
// with fewer than two samples a window yield one median over all.
func windowMedians(samples []float64, n int) []float64 {
	per := len(samples) / n
	if per < 2 {
		if len(samples) == 0 {
			return nil
		}
		return []float64{median(samples)}
	}
	out := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		out = append(out, median(samples[i*per:(i+1)*per]))
	}
	return out
}

func median(values []float64) float64 { return summarize(values, "").Value }

// checkpoint is one point of a receiver's arrival curve: by time T (ns
// since the phase epoch) it had verified Bytes payload bytes in Msgs
// messages.
type checkpoint struct {
	T     int64
	Bytes int64
	Msgs  int64
}

// windowRates cuts an arrival curve into windows that start and end on
// arrivals (so a window never splits a message), discards the first
// window and returns each remaining window's byte and message rates
// per second. No window reaches past until (ns since the phase epoch,
// the moment the sender stopped): what arrives later is the backlog
// draining with no sender to share the processor with, which reads
// faster than the loop ever runs. Curves too short for three windows
// yield one rate over everything after the first arrival.
func windowRates(curve []checkpoint, window, until int64) (bytesPerSec, msgsPerSec []float64) {
	if len(curve) < 2 {
		return nil, nil
	}
	rate := func(a, b checkpoint) {
		dt := float64(b.T-a.T) / 1e9
		if dt <= 0 {
			return
		}
		bytesPerSec = append(bytesPerSec, float64(b.Bytes-a.Bytes)/dt)
		msgsPerSec = append(msgsPerSec, float64(b.Msgs-a.Msgs)/dt)
	}
	var cuts []checkpoint
	next := curve[0].T
	last := curve[0]
	for _, c := range curve {
		if c.T > until {
			break
		}
		last = c
		if c.T >= next {
			cuts = append(cuts, c)
			next = c.T + window
		}
	}
	if n := len(cuts); n > 0 && last.T-cuts[n-1].T >= window/2 {
		cuts = append(cuts, last)
	}
	if len(cuts) < 4 {
		rate(curve[0], curve[len(curve)-1])
		return bytesPerSec, msgsPerSec
	}
	for i := 2; i < len(cuts); i++ { // cuts[0..1] is the discarded first window
		rate(cuts[i-1], cuts[i])
	}
	return bytesPerSec, msgsPerSec
}

// sumCurves merges the arrival curves of concurrent pairs into one
// curve of their summed progress.
func sumCurves(curves [][]checkpoint) []checkpoint {
	if len(curves) == 1 {
		return curves[0]
	}
	type ev struct {
		t           int64
		bytes, msgs int64
	}
	var evs []ev
	for _, c := range curves {
		var prev checkpoint
		for _, p := range c {
			evs = append(evs, ev{p.T, p.Bytes - prev.Bytes, p.Msgs - prev.Msgs})
			prev = p
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].t < evs[j].t })
	out := make([]checkpoint, 0, len(evs))
	var cum checkpoint
	for _, e := range evs {
		cum.T = e.t
		cum.Bytes += e.bytes
		cum.Msgs += e.msgs
		out = append(out, cum)
	}
	return out
}

// interval is a [a,b) stretch of time in nanoseconds.
type interval struct{ a, b int64 }

// normalize sorts the intervals in place and merges those that touch or
// overlap: the result is their union as disjoint intervals.
func normalize(iv []interval) []interval {
	sort.Slice(iv, func(i, j int) bool { return iv[i].a < iv[j].a })
	out := iv[:0]
	for _, x := range iv {
		if x.b <= x.a {
			continue
		}
		if n := len(out); n > 0 && x.a <= out[n-1].b {
			if x.b > out[n-1].b {
				out[n-1].b = x.b
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

// totalLen is the length a normalized set covers.
func totalLen(norm []interval) int64 {
	var t int64
	for _, x := range norm {
		t += x.b - x.a
	}
	return t
}

// interLen returns the length covered by both normalized sets.
func interLen(x, y []interval) int64 {
	var t int64
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		a := max(x[i].a, y[j].a)
		b := min(x[i].b, y[j].b)
		if b > a {
			t += b - a
		}
		if x[i].b < y[j].b {
			i++
		} else {
			j++
		}
	}
	return t
}
