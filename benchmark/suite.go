package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"netibis/internal/core"
	"netibis/internal/ipl"
)

// tally counts the operations of a run. An operation is one message,
// one ping-pong round trip or one connect; it fails when it errors,
// times out (the watchdog closed its ports), goes missing, arrives out
// of order or arrives corrupt.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	corrupt   atomic.Bool

	mu    sync.Mutex
	first error
}

// fail counts n failed operations and notes their cause.
func (t *tally) fail(n int64, err error) {
	t.failed.Add(n)
	t.note(err)
}

// note keeps the first error of the run and whether any was a
// corruption; counting the failed operations is the caller's.
func (t *tally) note(err error) {
	if isCorruption(err) {
		t.corrupt.Store(true)
	}
	t.mu.Lock()
	if t.first == nil {
		t.first = err
	}
	t.mu.Unlock()
}

// startWatchdog gives every operation of a phase a deadline: at three
// times the phase's length (and a second) it closes the phase's ports,
// which fails whatever is still blocked on them.
func startWatchdog(dur time.Duration, links ...*link) *time.Timer {
	return time.AfterFunc(3*dur+time.Second, func() {
		for _, l := range links {
			l.close()
		}
	})
}

// send writes the link's next message. finishAt, when non-nil,
// receives the time just before Finish (the start of a ping-pong
// round trip).
func (l *link) send(tr *tracer, pool *payloadPool, last bool, finishAt *time.Time) error {
	seq := l.sendSeq
	l.sendSeq++
	payload, crc := pool.pick(seq)
	wm, err := l.sp.NewMessage()
	if err != nil {
		return err
	}
	h := header{seq: seq, crc: crc, last: last}
	if tr == nil {
		encode(wm, h, payload)
		if finishAt != nil {
			*finishAt = time.Now()
		}
		return wm.Finish()
	}
	l.tl.msg[sideSend].Store(uint32(seq))
	id, start := tr.begin(l.tl, sideSend, 0)
	encode(wm, h, payload)
	tr.end(l.tl, sideSend, 0, tr.kEncode, id, start, len(payload))
	if finishAt != nil {
		*finishAt = time.Now()
	}
	id, start = tr.begin(l.tl, sideSend, 0)
	err = wm.Finish()
	tr.end(l.tl, sideSend, 0, tr.kFinish, id, start, len(payload))
	return err
}

// recv reads and verifies the link's next message.
func (l *link) recv(tr *tracer, wantLen int) (header, error) {
	want := l.recvSeq
	l.recvSeq++
	if tr == nil {
		rm, err := l.rp.Receive()
		if err != nil {
			return header{}, err
		}
		h, _, err := decode(rm, want, wantLen)
		return h, err
	}
	l.tl.msg[sideRecv].Store(uint32(want))
	id, start := tr.begin(l.tl, sideRecv, 0)
	rm, err := l.rp.Receive()
	tr.end(l.tl, sideRecv, 0, tr.kReceive, id, start, 0)
	if err != nil {
		return header{}, err
	}
	id, start = tr.begin(l.tl, sideRecv, 0)
	h, _, err := decode(rm, want, wantLen)
	tr.end(l.tl, sideRecv, 0, tr.kDecode, id, start, wantLen)
	return h, err
}

// transfer pushes n untimed messages through a link and verifies them
// (the warm-up, and the check that a fresh connect carries data).
func transfer(l *link, pool *payloadPool, n int) error {
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := l.send(nil, pool, false, nil); err != nil {
				l.rp.Close() // unblock the receiver
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	var rerr error
	for i := 0; i < n; i++ {
		if _, err := l.recv(nil, pool.size); err != nil {
			rerr = err
			l.sp.Close() // unblock the sender
			break
		}
	}
	if serr := <-errc; serr != nil {
		return serr
	}
	return rerr
}

// streamResult is one timed one-way phase over one link per pair.
type streamResult struct {
	curve    []checkpoint // summed over pairs
	sent     int64
	verified int64
	bytes    int64 // verified payload bytes
	elapsed  time.Duration
}

// checkpointEvery spaces the points of an arrival curve; arrivals
// closer together share a point.
const checkpointEvery = int64(time.Millisecond)

// runStream is a timed one-way phase: on every pair at once, a sender
// writes messages from pool back to back for dur and a receiver
// verifies them. The loop is closed: Finish returns when the message
// is flushed into the link, and the link pushes back.
func runStream(w *world, suffix string, pool *payloadPool, dur time.Duration, tl *tally) streamResult {
	links := make([]*link, len(w.pairs))
	for i, p := range w.pairs {
		links[i] = p.links[suffix]
	}
	defer startWatchdog(dur, links...).Stop()

	curves := make([][]checkpoint, len(links))
	var sent, verified, bytes atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for i, l := range links {
		wg.Add(2)
		go func(l *link) { // sender
			defer wg.Done()
			for {
				last := !time.Now().Before(deadline)
				sent.Add(1)
				if err := l.send(w.tr, pool, last, nil); err != nil {
					tl.note(err)
					l.rp.Close()
					return
				}
				if last {
					return
				}
			}
		}(l)
		go func(i int, l *link) { // receiver
			defer wg.Done()
			curve := make([]checkpoint, 0, 4096)
			var cum checkpoint
			for {
				h, err := l.recv(w.tr, pool.size)
				switch {
				case err == nil:
					cum.T = int64(time.Since(start))
					cum.Bytes += int64(pool.size)
					cum.Msgs++
					if n := len(curve); n == 0 || h.last || cum.T-curve[n-1].T >= checkpointEvery {
						curve = append(curve, cum)
					}
				case errors.Is(err, errCorrupt), errors.Is(err, errLength), errors.Is(err, errReordered):
					// The message parsed but is wrong: it stays
					// unverified, the stream goes on from its number.
					tl.note(err)
					l.recvSeq = h.seq + 1
				default:
					// Closed by the sender, the watchdog or a failure
					// below: nothing more will arrive.
					if !errors.Is(err, ipl.ErrClosed) {
						tl.note(err)
					}
					l.close()
					h.last = true
				}
				if h.last {
					break
				}
			}
			curves[i] = curve
			verified.Add(cum.Msgs)
			bytes.Add(cum.Bytes)
		}(i, l)
	}
	wg.Wait()
	res := streamResult{
		curve: sumCurves(curves), sent: sent.Load(), verified: verified.Load(),
		bytes: bytes.Load(), elapsed: time.Since(start),
	}
	tl.attempted.Add(res.sent)
	if missing := res.sent - res.verified; missing > 0 {
		tl.fail(missing, fmt.Errorf("benchmark: %s: %d of %d messages not delivered intact", suffix, missing, res.sent))
	}
	return res
}

// runPingPong is the timed round-trip phase, one client: the first
// pair's sender writes a small message over the plain link and waits for
// the receiver's echo on the reverse link. A sample runs from just
// before Finish to the verified echo. (Two pairs ping-ponging at once on
// one P queue behind each other in patterns that differ from run to
// run; one client's round trip is the same every time.)
func runPingPong(w *world, dur time.Duration, tl *tally) (rttUs []float64) {
	ping, pong := w.pairs[0].links["plain"], w.pairs[0].pong
	defer startWatchdog(dur, ping, pong).Stop()

	echoed := make(chan struct{})
	go func() { // the receiver's echo
		defer close(echoed)
		for {
			h, err := ping.recv(w.tr, smallSize)
			if err != nil {
				pong.sp.Close()
				return
			}
			if err := pong.send(w.tr, w.small, h.last, nil); err != nil || h.last {
				return
			}
		}
	}()
	rttUs = make([]float64, 0, 1<<14)
	for deadline := time.Now().Add(dur); ; {
		last := !time.Now().Before(deadline)
		tl.attempted.Add(1)
		var t0 time.Time
		err := ping.send(w.tr, w.small, last, &t0)
		if err == nil {
			_, err = pong.recv(w.tr, smallSize)
		}
		if err != nil {
			tl.fail(1, err)
			ping.close()
			pong.close()
			break
		}
		rttUs = append(rttUs, float64(time.Since(t0))/1e3)
		if last {
			break
		}
	}
	<-echoed
	return rttUs
}

// connectResult is one scenario's timings in milliseconds.
type connectResult struct {
	coldMs    []float64 // pre-warmed service link, empty connectivity cache
	warmMs    []float64 // reconnect to a peer the connectivity cache knows
	firstMs   []float64 // no pre-warm: the connect pays for the service link too
	serviceMs []float64 // the pre-warming Ping that creates the service link
}

// runConnect times one batch of one scenario, the acceptors [lo, hi) of
// its rig: one cold SendPort.Connect per fresh acceptor, each after a
// Node.Ping has pre-warmed the service link, then a warm reconnect to
// the batch's first acceptor. The run's last batch also connects to the
// rig's one acceptor more without pre-warm (the traced run reports it).
// Every link must come up by the scenario's method and carry a verified
// message.
func runConnect(w *world, rig *connectRig, lo, hi int, last bool, tl *tally) connectResult {
	var res connectResult
	tr := w.tr
	connect := func(i int) (ms float64, err error) {
		sp, err := rig.init.CreateSendPort(connectPort)
		if err != nil {
			return 0, err
		}
		defer sp.Close()
		l := &link{name: rig.sc.name, sp: sp, rp: rig.rps[i]}
		start := time.Now()
		tr.controlSpan(ctlConnect, func() { err = sp.Connect(l.rp.ID()) })
		ms = float64(time.Since(start)) / 1e6
		if err != nil {
			return ms, err
		}
		for _, m := range core.SendPortMethods(sp) {
			if m != rig.sc.want {
				return ms, fmt.Errorf("benchmark: scenario %s came up by %v, want %v", rig.sc.name, m, rig.sc.want)
			}
		}
		return ms, transfer(l, w.small, 1)
	}
	attempt := func(i int, into *[]float64) {
		tl.attempted.Add(1)
		ms, err := connect(i)
		if err != nil {
			tl.fail(1, fmt.Errorf("connect %s #%d: %w", rig.sc.name, i, err))
			return
		}
		*into = append(*into, ms)
	}
	for i := lo; i < hi; i++ {
		start := time.Now()
		var err error
		tr.controlSpan(ctlPing, func() { _, err = rig.init.Ping(rig.accs[i].Identifier().Name) })
		if err != nil {
			tl.attempted.Add(1)
			tl.fail(1, fmt.Errorf("ping %s #%d: %w", rig.sc.name, i, err))
			continue
		}
		res.serviceMs = append(res.serviceMs, float64(time.Since(start))/1e6)
		attempt(i, &res.coldMs)
	}
	if lo < hi {
		attempt(lo, &res.warmMs)
	}
	if last {
		attempt(len(rig.accs)-1, &res.firstMs)
	}
	return res
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
