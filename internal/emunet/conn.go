package emunet

import (
	"io"
	"net"
	"sync"
	"time"
)

// timeoutError is returned when a deadline expires on an emulated
// connection. It satisfies net.Error so callers can use the usual
// Timeout() check.
type timeoutError struct{}

func (timeoutError) Error() string   { return "emunet: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// ErrTimeout is the error returned on deadline expiry.
var ErrTimeout net.Error = timeoutError{}

// DefaultSocketBuffer is the socket buffer of an emulated connection,
// per direction; WithSocketBuffer overrides it fabric-wide. It bounds
// the bytes the receiving end holds unread and, on a shaped link, the
// bytes the sending end may have unacknowledged: a connection's window
// is min(congestion window, socket buffer), so its goodput is at most
// socket buffer / RTT.
const DefaultSocketBuffer = 4 << 20

// halfPipe is one direction of an emulated connection: an in-memory byte
// buffer with blocking reads, close semantics and read deadlines.
type halfPipe struct {
	mu   sync.Mutex
	cond *sync.Cond
	// buf holds the unread bytes. Its limit, the socket buffer, bounds
	// them and gives the writer backpressure.
	buf      ring
	closed   bool
	stalled  bool
	deadline time.Time
}

func newHalfPipe(maxBuffered int) *halfPipe {
	if maxBuffered <= 0 {
		maxBuffered = DefaultSocketBuffer
	}
	hp := &halfPipe{buf: ring{limit: maxBuffered}}
	hp.cond = sync.NewCond(&hp.mu)
	return hp
}

func (hp *halfPipe) write(p []byte) (int, error) {
	hp.mu.Lock()
	defer hp.mu.Unlock()
	total := 0
	for len(p) > 0 {
		if hp.closed {
			return total, io.ErrClosedPipe
		}
		space := hp.buf.limit - hp.buf.n
		if space <= 0 {
			hp.cond.Wait()
			continue
		}
		n := min(len(p), space)
		hp.buf.push(p[:n])
		p = p[n:]
		total += n
		hp.cond.Broadcast()
	}
	return total, nil
}

func (hp *halfPipe) read(p []byte) (int, error) {
	hp.mu.Lock()
	defer hp.mu.Unlock()
	for {
		if hp.buf.n > 0 && !hp.stalled {
			n := hp.buf.read(p)
			if hp.closed && hp.buf.n == 0 {
				hp.buf.reset() // drained to EOF: nothing will be written again
			}
			hp.cond.Broadcast()
			return n, nil
		}
		if hp.closed {
			return 0, io.EOF
		}
		if !hp.deadline.IsZero() {
			now := time.Now() //nolint:netibis-determinism // deadline expiry is checked against the wall clock by net.Conn contract
			if !now.Before(hp.deadline) {
				return 0, ErrTimeout
			}
			// Arrange a wake-up at the deadline so the Wait below does
			// not sleep past it.
			d := hp.deadline.Sub(now)
			t := time.AfterFunc(d, func() {
				hp.mu.Lock()
				hp.cond.Broadcast()
				hp.mu.Unlock()
			})
			hp.cond.Wait()
			t.Stop()
			continue
		}
		hp.cond.Wait()
	}
}

// close ends the pipe: writes fail, and the reader drains what is
// buffered and then reads EOF. The storage goes once it is drained.
func (hp *halfPipe) close() {
	hp.mu.Lock()
	hp.closed = true
	if hp.buf.n == 0 {
		hp.buf.reset()
	}
	hp.cond.Broadcast()
	hp.mu.Unlock()
}

func (hp *halfPipe) setDeadline(t time.Time) {
	hp.mu.Lock()
	hp.deadline = t
	hp.cond.Broadcast()
	hp.mu.Unlock()
}

func (hp *halfPipe) setStall(stalled bool) {
	hp.mu.Lock()
	hp.stalled = stalled
	hp.cond.Broadcast()
	hp.mu.Unlock()
}

// room returns how many bytes a write would take without blocking.
func (hp *halfPipe) room() int {
	hp.mu.Lock()
	defer hp.mu.Unlock()
	return hp.buf.limit - hp.buf.n
}

// waitRoom blocks until the reader has left room for n bytes, and
// reports false if the pipe was closed first.
func (hp *halfPipe) waitRoom(n int) bool {
	hp.mu.Lock()
	defer hp.mu.Unlock()
	for !hp.closed && hp.buf.limit-hp.buf.n < n {
		hp.cond.Wait()
	}
	return !hp.closed
}

// ring is a byte FIFO that grows to what it has to hold, up to limit,
// and then runs in place: a socket buffer that stays full is never
// moved, and a byte is copied once in and once out.
type ring struct {
	buf     []byte
	head, n int
	limit   int // the socket buffer; callers never push past it
}

func (r *ring) push(p []byte) {
	if r.n+len(p) > len(r.buf) {
		grown := make([]byte, min(max(2*len(r.buf), r.n+len(p), 4<<10), r.limit))
		a, b := r.pop(r.n)
		copy(grown[copy(grown, a):], b)
		r.buf, r.head, r.n = grown, 0, len(a)+len(b)
	}
	tail := (r.head + r.n) % len(r.buf)
	copy(r.buf, p[copy(r.buf[tail:], p):])
	r.n += len(p)
}

// pop removes the first n bytes and returns them, in two pieces when
// they wrap; they stay valid until the next push.
func (r *ring) pop(n int) (a, b []byte) {
	if n == 0 {
		return nil, nil
	}
	a = r.buf[r.head:min(r.head+n, len(r.buf))]
	b = r.buf[:n-len(a)]
	r.head = (r.head + n) % len(r.buf)
	r.n -= n
	return a, b
}

// read moves the first bytes, as many as fit, into p.
func (r *ring) read(p []byte) int {
	a, b := r.pop(min(len(p), r.n))
	n := copy(p, a)
	return n + copy(p[n:], b)
}

// reset empties the ring and drops its storage.
func (r *ring) reset() { r.buf, r.head, r.n = nil, 0, 0 }

// mark is one pacer reservation of a sender: n bytes that become
// readable at the far end at at, and whose acknowledgement is back at
// ack.
type mark struct {
	at, ack time.Time
	n       int
	lost    bool
}

// sender is the sending side of one direction of a shaped connection:
// the send buffer, the window that bounds it, and the goroutine that
// moves bytes into the receiving halfPipe when they are due. It is what
// a TCP socket is to its writer: Write returns once the bytes are
// buffered, and latency is paid by the bytes, not by the caller.
//
// Lock order: sender.mu, then pacer.mu or halfPipe.mu.
type sender struct {
	link *pacer
	dst  *halfPipe

	mu   sync.Mutex
	cond *sync.Cond // writers wait here for the window to open

	buf       ring   // accepted, not yet delivered
	marks     []mark // oldest first: marks[:delivered] await their ack, the rest their delivery time
	delivered int
	inflight  int // bytes accepted and not yet acknowledged

	cwnd, ssthresh float64
	lastAt         time.Time // a byte stream never reorders: delivery times are clamped monotone
	lastLeft       time.Time // when the bytes due at lastAt left
	reserved       int64     // bytes reserved on the link so far; with lastAt, what the law gates read
	freed          time.Time // when the acknowledgement reaped last came back

	deadline time.Time
	running  bool          // the delivery goroutine is alive; it is whenever a mark is undelivered
	closed   bool          // no more writes: Close, the peer's Close, or a sever
	fin      bool          // closed by this end's Close: what is buffered is still delivered, then EOF
	done     chan struct{} // closed by sever: drop everything now
}

func newSender(link *pacer, dst *halfPipe) *sender {
	// The window never exceeds the socket buffer, so neither does the
	// send buffer it bounds.
	limit := float64(dst.buf.limit)
	s := &sender{link: link, dst: dst, buf: ring{limit: dst.buf.limit}, cwnd: min(initialWindow, limit), ssthresh: limit, done: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// write buffers p and returns, blocking only while the window is full.
func (s *sender) write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The bytes of p are ready to leave now. Those that have to wait
	// for the window leave when the acknowledgement that made room for
	// them came back, not when the scheduler next ran this goroutine:
	// a window-bound transfer runs at window/RTT however coarse the
	// host's timers are.
	ready := time.Now() //nolint:netibis-determinism // the emulated link paces real transfers against the wall clock
	for s.reap(ready) {
	}
	total := 0
	for len(p) > 0 {
		if s.closed {
			return total, io.ErrClosedPipe
		}
		room := int(s.cwnd) - s.inflight
		if room <= 0 {
			now := time.Now() //nolint:netibis-determinism // as above
			if s.reap(now) {
				continue
			}
			if !s.deadline.IsZero() && !now.Before(s.deadline) {
				return total, ErrTimeout
			}
			s.waitWindow(now)
			continue
		}
		leave := ready
		if s.freed.After(leave) {
			leave = s.freed
		}
		n := min(len(p), room, quantum)
		m := mark{n: n}
		m.at, m.ack, m.lost = s.link.reserve(n, leave)
		if m.at.Before(s.lastAt) {
			m.ack = m.ack.Add(s.lastAt.Sub(m.at))
			m.at = s.lastAt
		}
		s.lastAt, s.lastLeft = m.at, leave
		s.reserved += int64(n)
		s.buf.push(p[:n])
		s.marks = append(s.marks, m)
		s.inflight += n
		p = p[n:]
		total += n
		if !s.running {
			s.running = true
			go s.deliver()
		}
	}
	return total, nil
}

// reap takes the oldest acknowledgement if it is back by now: it
// releases its bytes from the window and moves the congestion window
// one renoStep.
func (s *sender) reap(now time.Time) bool {
	if s.delivered == 0 || s.marks[0].ack.After(now) {
		return false
	}
	m := s.marks[0]
	s.marks = s.marks[1:]
	s.delivered--
	s.inflight -= m.n
	s.freed = m.ack
	s.cwnd, s.ssthresh = renoStep(s.cwnd, s.ssthresh, m.n, m.lost)
	s.cwnd = min(s.cwnd, float64(s.dst.buf.limit))
	return true
}

// waitWindow parks a writer until the next acknowledgement is due, the
// write deadline passes, or the delivery goroutine, a deadline change
// or a close wakes it.
func (s *sender) waitWindow(now time.Time) {
	wake := s.deadline
	if s.delivered > 0 && (wake.IsZero() || s.marks[0].ack.Before(wake)) {
		wake = s.marks[0].ack
	}
	if wake.IsZero() {
		s.cond.Wait()
		return
	}
	t := time.AfterFunc(wake.Sub(now), func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	s.cond.Wait()
	t.Stop()
}

// deliver is the delivery goroutine: it sleeps until the oldest
// undelivered mark is due and then moves everything that is due, in one
// write, into the receiving halfPipe — one wake-up per due batch, not
// per write. It ends when nothing is undelivered (the next write starts
// another) or the sender is severed.
func (s *sender) deliver() {
	var timer *time.Timer
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.delivered < len(s.marks) {
		now := time.Now() //nolint:netibis-determinism // the emulated link paces real transfers against the wall clock
		head := s.marks[s.delivered]
		if d := head.at.Sub(now); d > 0 {
			if timer == nil {
				timer = time.NewTimer(d)
				defer timer.Stop()
			} else {
				timer.Reset(d)
			}
			s.mu.Unlock()
			select {
			case <-timer.C:
			case <-s.done:
			}
			s.mu.Lock()
			continue
		}
		room := s.dst.room()
		n, k := 0, s.delivered
		for k < len(s.marks) && !s.marks[k].at.After(now) && n+s.marks[k].n <= room {
			n += s.marks[k].n
			k++
		}
		if n == 0 {
			// The receive buffer is full (a stalled or slow reader):
			// the bytes stay in flight, so the writer feels it.
			s.mu.Unlock()
			open := s.dst.waitRoom(head.n)
			s.mu.Lock()
			if !open {
				break // closed under us: a sever is on its way
			}
			continue
		}
		// Neither write blocks: this goroutine is the pipe's only
		// writer and the room was there.
		a, b := s.buf.pop(n)
		s.dst.write(a)
		s.dst.write(b)
		s.delivered = k
		s.cond.Broadcast()
	}
	if s.fin {
		s.buf.reset()
		s.dst.close()
	}
	s.running = false
}

// finish is this end's Close: no more writes, and the far end reads
// EOF after the bytes already accepted have been delivered at their
// times.
func (s *sender) finish() {
	s.mu.Lock()
	if !s.closed {
		s.closed, s.fin = true, true
		if !s.running {
			s.buf.reset()
			s.dst.close()
		}
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// sever fails the direction at once: bytes in flight are dropped, the
// delivery goroutine ends, writers get io.ErrClosedPipe and the reader
// EOF.
func (s *sender) sever() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed && !s.fin {
		return // severed already
	}
	close(s.done)
	s.closed, s.fin = true, false
	s.buf.reset()
	s.marks, s.delivered, s.inflight = nil, 0, 0
	s.dst.close()
	s.cond.Broadcast()
}

func (s *sender) setDeadline(t time.Time) {
	s.mu.Lock()
	s.deadline = t
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Conn is an emulated, reliable, bidirectional byte-stream connection.
// It implements net.Conn, so frame readers and every NetIbis driver
// can run over it unchanged.
//
// On a fabric with a time scale, each direction behaves as a TCP
// connection over the link's pacer (see the package comment): Write
// buffers and returns, bytes become readable at the far end when the
// link has carried them, and at most a window of them is
// unacknowledged. On a fabric without one (time scale 0) a direction
// is the bare halfPipe: no window, no goroutine, no clock.
type Conn struct {
	recv   *halfPipe
	send   *halfPipe
	local  Endpoint
	remote Endpoint
	link   *pacer // the direction this end sends on; nil when the connection crosses no link

	// tx sends on send, rx is the peer's sender into recv; both nil at
	// time scale 0.
	tx, rx *sender

	// fabric/pair are set for cross-site connections so that a
	// partition of the site pair (Fabric.SetLink with Down) can sever
	// the connection, and Close can deregister it.
	fabric *Fabric
	pair   linkKey

	closeOnce sync.Once
}

// newConnPair creates the two ends of an emulated connection between the
// given endpoints, a sending on ab and b on ba, each direction buffering
// at most sockBuf bytes (0 selects DefaultSocketBuffer).
func newConnPair(epA, epB Endpoint, ab, ba *pacer, sockBuf int) (*Conn, *Conn) {
	aToB := newHalfPipe(sockBuf)
	bToA := newHalfPipe(sockBuf)
	a := &Conn{recv: bToA, send: aToB, local: epA, remote: epB, link: ab}
	b := &Conn{recv: aToB, send: bToA, local: epB, remote: epA, link: ba}
	if ab != nil && ab.scale > 0 {
		a.tx, b.tx = newSender(ab, aToB), newSender(ba, bToA)
		a.rx, b.rx = b.tx, a.tx
	}
	return a, b
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) { return c.recv.read(p) }

// Scheduled reports what the link has scheduled on the direction c
// sends on: the bytes reserved so far, when the last of them is due at
// the far end, and when they left c. A rate read off it is the link's,
// which host load cannot bias. It must not be called at time scale 0.
func (c *Conn) Scheduled() (sent int64, due, left time.Time) {
	s := c.tx
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reserved, s.lastAt, s.lastLeft
}

// SetReadStall freezes (or thaws) this end's inbound byte stream: while
// stalled, Read blocks even when data is buffered, as if the consuming
// process stopped draining its socket. Arriving data accumulates up to
// the socket buffer, after which the peer's writes block — the emulated
// equivalent of TCP's receive window closing on an unresponsive host.
// The slow-consumer tests (relay flow control, the link law) are built
// on this knob.
func (c *Conn) SetReadStall(stalled bool) { c.recv.setStall(stalled) }

// Write implements net.Conn. On a shaped link it returns once p is in
// the send buffer, blocking only while a full window is unacknowledged.
func (c *Conn) Write(p []byte) (int, error) {
	if c.tx != nil {
		return c.tx.write(p)
	}
	return c.send.write(p)
}

// Close implements net.Conn. It is a FIN after the data: what this end
// has written is still delivered, at the link's pace, and then the peer
// reads io.EOF. What the peer has in flight towards this end is
// dropped, and the peer's writes fail.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		if c.tx != nil {
			c.tx.finish()
			c.rx.sever()
		} else {
			c.send.close()
		}
		c.recv.close()
		if c.fabric != nil {
			c.fabric.untrackConn(c.pair, c)
		}
	})
	return nil
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn: SetReadDeadline and
// SetWriteDeadline.
func (c *Conn) SetDeadline(t time.Time) error {
	c.recv.setDeadline(t)
	return c.SetWriteDeadline(t)
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.recv.setDeadline(t)
	return nil
}

// SetWriteDeadline implements net.Conn. On a shaped link a Write
// blocked on a full window returns ErrTimeout, with the count of bytes
// it had buffered, when t passes. At time scale 0 it is accepted and
// not enforced: a write there blocks only on a reader that has stopped
// reading, and the reader's own deadline governs.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	if c.tx != nil {
		c.tx.setDeadline(t)
	}
	return nil
}

// LinkParams returns the parameters, as they are now, of the link this
// connection crosses, or the zero value when it crosses none.
func (c *Conn) LinkParams() LinkParams {
	if c.link == nil {
		return LinkParams{}
	}
	return c.link.Params()
}
