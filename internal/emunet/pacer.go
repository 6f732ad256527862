package emunet

import (
	"math/rand"
	"sync"
	"time"
)

// mss is the segment size of the link law: one loss draw per mss bytes
// crossing a direction, and congestion windows grow in units of it.
const mss = 1460

// quantum bounds the bytes of one pacer reservation. A reservation is
// delivered and acknowledged as a whole, so it plays the role of TCP's
// delayed ack: two segments. Writers sharing a direction interleave at
// this grain.
const quantum = 2 * mss

// initialWindow is the congestion window a connection starts from.
const initialWindow = 10 * mss

// pacer is one direction of a link: the bottleneck every connection
// crossing that direction shares. It keeps the time the link is next
// free and hands out, in order of asking, when a run of bytes has left
// the link and when it reaches the far end. All connections between the
// same pair of sites share the pair's two pacers, so a relay that
// funnels many flows over one WAN path becomes a bottleneck, as the
// paper predicts for routed messages, and a bulk transfer one way does
// not delay the acknowledgements and replies coming back.
//
// A pacer never reads the clock: callers pass the time of asking, so
// the law is a function of its inputs and its seed.
type pacer struct {
	scale float64
	seed  int64

	mu       sync.Mutex
	params   LinkParams
	nextFree time.Time
	jitter   *rand.Rand // drawn once per reservation; created on first use
	loss     *rand.Rand // drawn once per mss bytes; created on first use
	covered  int        // bytes the last loss draw still covers; a draw is due when it goes negative
}

func newPacer(p LinkParams, scale float64, seed int64) *pacer {
	return &pacer{params: p, scale: scale, seed: seed}
}

// Params returns the link parameters the pacer enforces now.
func (pc *pacer) Params() LinkParams {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.params
}

// setParams changes the link under the connections already crossing
// it: their next reservation is made at the new capacity, delay and
// loss rate.
func (pc *pacer) setParams(p LinkParams) {
	pc.mu.Lock()
	pc.params = p
	pc.mu.Unlock()
}

func (pc *pacer) scaled(d time.Duration) time.Duration {
	return time.Duration(float64(d) * pc.scale)
}

// reserve queues n bytes behind everything already reserved on this
// direction and returns when they become readable at the far end
// (end of serialisation + RTT/2 + jitter), when their acknowledgement
// is back at the sender (a further RTT/2), and whether a segment
// starting in them was lost. A loss costs the bytes one RTT, the
// retransmission; the caller keeps a connection's delivery times
// monotone, so everything behind them waits too.
func (pc *pacer) reserve(n int, now time.Time) (deliver, ack time.Time, lost bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	p := pc.params
	end := pc.nextFree
	if end.Before(now) {
		end = now
	}
	if p.CapacityBps > 0 {
		end = end.Add(pc.scaled(time.Duration(float64(n) / p.CapacityBps * float64(time.Second))))
	}
	pc.nextFree = end
	oneWay := pc.scaled(p.RTT / 2)
	deliver = end.Add(oneWay)
	if p.Jitter > 0 {
		if pc.jitter == nil {
			pc.jitter = rand.New(rand.NewSource(pc.seed))
		}
		deliver = deliver.Add(pc.scaled(time.Duration(pc.jitter.Int63n(int64(p.Jitter)))))
	}
	if p.LossRate > 0 {
		if pc.loss == nil {
			pc.loss = rand.New(rand.NewSource(pc.seed + 1))
		}
		// One draw per segment, at the byte the segment starts on, so
		// the loss sequence is a function of the bytes that crossed
		// and not of how writers chunked them.
		for pc.covered -= n; pc.covered < 0; pc.covered += mss {
			if pc.loss.Float64() < p.LossRate {
				lost = true
			}
		}
		if lost {
			deliver = deliver.Add(pc.scaled(p.RTT))
		}
	}
	return deliver, deliver.Add(oneWay), lost
}

// renoStep is the congestion-control law of a connection, in bytes:
// the window and slow-start threshold after acked bytes are
// acknowledged, or reported lost. Slow start adds what was
// acknowledged (doubling per round trip), congestion avoidance one
// segment per window, a loss halves. There is no retransmission
// timeout and no selective acknowledgement.
func renoStep(cwnd, ssthresh float64, acked int, lost bool) (float64, float64) {
	switch {
	case lost:
		ssthresh = max(cwnd/2, 2*mss)
		return ssthresh, ssthresh
	case cwnd < ssthresh:
		return cwnd + float64(acked), ssthresh
	default:
		return cwnd + mss*float64(acked)/cwnd, ssthresh
	}
}
