package relay

import (
	"encoding/binary"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"netibis/internal/identity"
	"netibis/internal/wire"
)

// routedConn is one virtual link routed through the relay. It implements
// net.Conn so the rest of NetIbis treats it like any other link, under
// the flow control of the package doc ("Flow control").
//
// Receive path: a data frame's payload is not copied on arrival. The
// link keeps the frame's pooled Buf in a queue of segments and Read
// copies straight out of it, once, releasing each Buf when it is
// drained. A frame too small to be worth pinning its Buf (see deliver)
// is copied into the link's tail Buf instead, next to the small frames
// before it.
type routedConn struct {
	client   *Client
	peer     string
	channel  uint64
	outbound bool   // true on the side that dialed
	purpose  byte   // the accepted open's purpose byte (0: none, or dialed here)
	conv     uint64 // a data link's establishment, from the same open

	mu    sync.Mutex
	cond  *sync.Cond // readers: data arrival, close, deadline wake-ups
	wcond *sync.Cond // writers: credit arrival, close, deadline wake-ups
	// segs is a ring of the queued payload, oldest at segs[head]; it
	// grows by doubling and is never slid or shrunk. queued counts its
	// unread bytes.
	segs   []rxSeg
	head   int
	nsegs  int
	queued int
	tail   *wire.Buf // small-frame storage; the link holds one reference (nil until needed)
	rerr   error
	closed bool
	// peerShut is set once the peer closed the link: it dropped its half,
	// so no more credit will ever arrive and frames we send are discarded
	// at the far end. Writes stop waiting for credit (see reserve).
	peerShut bool

	recvWindow int // our advertised window
	unacked    int // bytes drained by Read but not yet returned as credit
	sendWindow int // remaining credit for sends
	sendInit   int // the peer's advertised window

	// End-to-end sealing (nil on plaintext links): data frames are AEAD
	// records with an explicit, strictly increasing sequence number, so
	// frames lost across a relay failover leave a tolerated gap while
	// replayed or reordered records fail closed.
	//
	// sendMu serialises the {assign sequence, emit frame} pair of
	// sealed writes: net.Conn permits concurrent Write calls, and
	// without the outer lock two writers could put their sequence
	// numbers on the wire in the opposite order of assignment — the
	// peer's strictly-increasing check would kill the healthy link.
	keys    *identity.LinkKeys
	sendMu  sync.Mutex
	sendSeq uint64 // last sequence sealed (guarded by sendMu)
	recvSeq uint64 // last sequence accepted (guarded by mu)

	rdeadline time.Time
	wdeadline time.Time

	// offer is the e2e offer of a sealed link accepted unanswered;
	// settle answers it on first use, or refuses it on Close or Abort.
	offer     []byte
	settled   sync.Once
	settleErr error
}

func newRoutedConn(c *Client, peer string, channel uint64, outbound bool, peerWindow, recvWindow int) *routedConn {
	rc := &routedConn{
		client:     c,
		peer:       peer,
		channel:    channel,
		outbound:   outbound,
		recvWindow: recvWindow,
		sendWindow: peerWindow,
		sendInit:   peerWindow,
	}
	rc.cond = sync.NewCond(&rc.mu)
	rc.wcond = sync.NewCond(&rc.mu)
	return rc
}

// role returns the role byte stamped on frames sent over this link.
func (rc *routedConn) role() byte {
	if rc.outbound {
		return roleInitiator
	}
	return roleAcceptor
}

// rxSeg is one queued piece of received payload: data is the unread
// part, and it aliases buf, of which the segment holds one reference.
type rxSeg struct {
	buf  *wire.Buf
	data []byte
}

// tailSize is the smallest tail Buf: the 4 KiB class, which holds many
// small messages.
const tailSize = 4 << 10

// maxQueued is the most unread payload a link holds. A conforming peer
// keeps the queue within the window (outstanding credit plus queued
// bytes never exceed it); a resync after a relay failover over-grants
// at most one window more (see Client.Resume).
func (rc *routedConn) maxQueued() int { return 2 * rc.recvWindow }

// deliver queues one data frame's payload p, which aliases the frame's
// pooled Buf b. deliver borrows b: it retains b when it queues p in
// place, so the caller's release stays valid either way.
//
// A payload smaller than half of b's size class is copied into the
// link's tail Buf instead. Pinning b for it would hold more than twice
// its bytes — a peer sending 1-byte frames would pin a 4 KiB Buf per
// byte — so the link's pinned storage stays within twice what it queues,
// plus the tail.
//
// On a sealed link p is an AEAD record: it is authenticated and opened
// in place in b, and the plaintext is queued as above. A record that
// fails authentication, or replays an already-accepted sequence number —
// an injected, tampered or replayed frame, or plaintext smuggled onto a
// sealed link — kills the link with ErrE2E and queues nothing. So does a
// frame that would take the queue past maxQueued, with
// ErrWindowExceeded: only a peer that ignores the credit protocol sends
// one. A closed link queues nothing.
func (rc *routedConn) deliver(p []byte, b *wire.Buf) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.closed {
		return
	}
	if rc.keys != nil {
		if len(p) < identity.SealOverhead {
			rc.failLocked(ErrE2E)
			return
		}
		pt, seq, err := rc.keys.Open(p[8:8], p)
		if err != nil || seq <= rc.recvSeq {
			rc.failLocked(ErrE2E)
			return
		}
		rc.recvSeq = seq
		p = pt
	}
	if len(p) == 0 {
		return
	}
	if rc.queued+len(p) > rc.maxQueued() {
		rc.failLocked(ErrWindowExceeded)
		return
	}
	if 2*len(p) < b.Cap() {
		rc.appendTailLocked(p)
	} else {
		b.Retain()
		rc.pushLocked(rxSeg{buf: b, data: p})
	}
	rc.queued += len(p)
	rc.cond.Broadcast()
}

// appendTailLocked queues a copy of a small payload in the tail Buf,
// extending the newest segment when that one already ends there. A full
// tail is handed to the segments still reading from it.
func (rc *routedConn) appendTailLocked(p []byte) {
	t := rc.tail
	if t == nil || t.Cap()-t.Len() < len(p) {
		if t != nil {
			t.Release()
		}
		t = wire.GetBuf(max(len(p), tailSize))
		t.SetLen(0)
		rc.tail = t
	}
	off := t.Len()
	t.SetLen(off + len(p))
	copy(t.Bytes()[off:], p)
	if rc.nsegs > 0 {
		// Bytes are only ever appended to the tail for the newest
		// segment, so a newest segment on the tail ends at off.
		if last := &rc.segs[(rc.head+rc.nsegs-1)%len(rc.segs)]; last.buf == t {
			last.data = last.data[:len(last.data)+len(p)]
			return
		}
	}
	t.Retain()
	rc.pushLocked(rxSeg{buf: t, data: t.Bytes()[off:]})
}

// pushLocked appends a segment to the ring, doubling it when full.
func (rc *routedConn) pushLocked(s rxSeg) {
	if rc.nsegs == len(rc.segs) {
		segs := make([]rxSeg, max(8, 2*len(rc.segs)))
		for i := 0; i < rc.nsegs; i++ {
			segs[i] = rc.segs[(rc.head+i)%len(rc.segs)]
		}
		rc.segs, rc.head = segs, 0
	}
	rc.segs[(rc.head+rc.nsegs)%len(rc.segs)] = s
	rc.nsegs++
}

// readLocked copies queued payload into p, releasing every segment it
// drains, and returns the byte count.
func (rc *routedConn) readLocked(p []byte) int {
	n := 0
	for n < len(p) && rc.nsegs > 0 {
		s := &rc.segs[rc.head]
		k := copy(p[n:], s.data)
		n += k
		s.data = s.data[k:]
		if len(s.data) == 0 {
			rc.popLocked()
		}
	}
	rc.queued -= n
	if rc.nsegs == 0 && rc.tail != nil {
		rc.tail.SetLen(0) // no segment reads from it any more
	}
	return n
}

// popLocked releases the oldest segment.
func (rc *routedConn) popLocked() {
	s := &rc.segs[rc.head]
	s.buf.Release()
	*s = rxSeg{}
	rc.head = (rc.head + 1) % len(rc.segs)
	rc.nsegs--
}

// releaseLocked drops everything queued, the tail included: the link was
// closed locally and nothing will read it.
func (rc *routedConn) releaseLocked() {
	for rc.nsegs > 0 {
		rc.popLocked()
	}
	rc.queued = 0
	if rc.tail != nil {
		rc.tail.Release()
		rc.tail = nil
	}
}

// failLocked closes the link for good with rc.mu held: reads report err
// (unless an earlier failure already set one) and parked readers and
// writers wake up.
func (rc *routedConn) failLocked(err error) {
	rc.closed = true
	if rc.rerr == nil {
		rc.rerr = err
	}
	rc.cond.Broadcast()
	rc.wcond.Broadcast()
}

// addCredit returns drained bytes to the send window.
func (rc *routedConn) addCredit(n int) {
	rc.mu.Lock()
	rc.sendWindow += n
	rc.wcond.Broadcast()
	rc.mu.Unlock()
}

func (rc *routedConn) peerClosed() {
	rc.mu.Lock()
	if rc.rerr == nil {
		rc.rerr = io.EOF
	}
	// Release a writer parked at an exhausted window: it must not block
	// forever on a dead link (writes keep "succeeding" into the void).
	rc.peerShut = true
	rc.cond.Broadcast()
	rc.wcond.Broadcast()
	rc.mu.Unlock()
}

// settle answers the link's sealed open on first use (use), or refuses
// it when the link is closed unused; it runs once, and does nothing on a
// plaintext link or one this side dialed. Every use and every close goes
// through it first.
func (rc *routedConn) settle(use bool) error {
	rc.settled.Do(func() {
		if rc.offer != nil {
			rc.settleErr = rc.client.answerOpen(rc, use)
		}
	})
	return rc.settleErr
}

// Abandoned reports whether the peer discarded this link with an abandon
// frame (it lost an establishment race on the peer's side), so a consumer
// holding the conn (e.g. in an accept backlog) can recognise and skip it.
func (rc *routedConn) Abandoned() bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.rerr == ErrAbandoned
}

// Abort discards the link as part of losing an establishment race: the
// peer receives an abandon frame (not a half-close), telling it the link
// must not be treated as a usable or half-open connection. Like Close, it
// releases whatever is still queued.
func (rc *routedConn) Abort() error {
	rc.settle(false)
	rc.mu.Lock()
	rc.releaseLocked()
	if rc.closed {
		rc.mu.Unlock()
		return nil
	}
	rc.failLocked(ErrAbandoned)
	rc.mu.Unlock()
	rc.client.abandonLink(rc.peer, rc.channel, rc.role())
	rc.client.dropLink(linkID{peer: rc.peer, channel: rc.channel, outbound: rc.outbound})
	return nil
}

// closeWithError fails the link with err. What was queued stays
// readable; Close releases it.
func (rc *routedConn) closeWithError(err error) {
	rc.mu.Lock()
	rc.failLocked(err)
	rc.mu.Unlock()
}

// discard fails the link with err and releases what was queued: the
// whole client was closed, and nothing will read the link.
func (rc *routedConn) discard(err error) {
	rc.mu.Lock()
	rc.failLocked(err)
	rc.releaseLocked()
	rc.mu.Unlock()
}

// waitDeadline blocks on cond (mu held) until a broadcast, arranging a
// wake-up when the deadline passes; it returns os.ErrDeadlineExceeded
// once the deadline has expired. A zero deadline never expires.
func waitDeadline(cond *sync.Cond, mu *sync.Mutex, deadline time.Time) error {
	if deadline.IsZero() {
		cond.Wait()
		return nil
	}
	now := time.Now()
	if !now.Before(deadline) {
		return os.ErrDeadlineExceeded
	}
	t := time.AfterFunc(deadline.Sub(now), func() {
		mu.Lock()
		cond.Broadcast()
		mu.Unlock()
	})
	cond.Wait()
	t.Stop()
	return nil
}

// Read implements net.Conn. It copies out of the queued frames, and a
// link that failed is drained before Read reports the failure. Draining
// grants credit back to the sender once half the window has been
// consumed (batching the grants keeps the credit-frame overhead at two
// frames per window, not one per Read).
func (rc *routedConn) Read(p []byte) (int, error) {
	if err := rc.settle(true); err != nil {
		return 0, err
	}
	rc.mu.Lock()
	for {
		if rc.queued > 0 {
			n := rc.readLocked(p)
			grant := 0
			if rc.rerr == nil && !rc.closed {
				rc.unacked += n
				if 2*rc.unacked >= rc.recvWindow {
					grant = rc.unacked
					rc.unacked = 0
				}
			}
			rc.mu.Unlock()
			if grant > 0 {
				rc.sendCredit(grant)
			}
			return n, nil
		}
		if rc.rerr != nil {
			err := rc.rerr
			rc.mu.Unlock()
			return 0, err
		}
		if rc.closed {
			rc.mu.Unlock()
			return 0, ErrClosed
		}
		if err := waitDeadline(rc.cond, &rc.mu, rc.rdeadline); err != nil {
			rc.mu.Unlock()
			return 0, err
		}
	}
}

// sendCredit returns drained bytes to the peer's send window. Failures
// are ignored: they mean the relay attachment is dying, which every
// in-flight operation observes through its own error path.
func (rc *routedConn) sendCredit(n int) {
	rc.client.flowCreditSent.Add(1)
	var ext [binary.MaxVarintLen64]byte
	rc.client.sendLink(KindCredit, rc.peer, rc.channel, rc.role(), wire.AppendUvarint(ext[:0], uint64(n)), nil)
}

// resyncAfterResume re-arms flow control after the client resumed its
// attachment on a fresh relay connection (see Resume): the send window
// is reset to the peer's advertisement and the peer is re-granted our
// free receive space, compensating for data and credit frames lost with
// the old relay.
func (rc *routedConn) resyncAfterResume() {
	rc.mu.Lock()
	if rc.closed || rc.peerShut {
		rc.mu.Unlock()
		return
	}
	rc.sendWindow = rc.sendInit
	grant := rc.recvWindow - rc.queued - rc.unacked
	rc.unacked = 0
	rc.wcond.Broadcast()
	rc.mu.Unlock()
	if grant > 0 {
		rc.sendCredit(grant)
	}
}

// reserve blocks until the link may carry up to want more payload bytes
// and returns how many were granted (at most one frame's worth). It
// re-checks closure on every call, so a Write overtaken by a concurrent
// Close or Abort stops mid-loop instead of emitting frames on a dead
// link, and it honours the write deadline while waiting for credit.
func (rc *routedConn) reserve(want int) (n int, err error) {
	if want > maxDataFrame {
		want = maxDataFrame
	}
	// blockedSince is set on the first pass that finds the window
	// exhausted: one stall counted per blocked reserve, with the full
	// parked duration accumulated on exit whatever the outcome. The
	// uncontended path never touches the clock or the counters.
	var blockedSince time.Time
	rc.mu.Lock()
	defer func() {
		rc.mu.Unlock()
		if !blockedSince.IsZero() {
			rc.client.flowBlockedNanos.Add(time.Since(blockedSince).Nanoseconds())
		}
	}()
	for {
		if rc.closed && rc.rerr == ErrAbandoned {
			return 0, ErrAbandoned // either side abandoned it
		} else if rc.closed {
			return 0, ErrClosed
		}
		if rc.peerShut {
			return want, nil
		}
		if rc.sendWindow > 0 {
			n = want
			if n > rc.sendWindow {
				n = rc.sendWindow
			}
			rc.sendWindow -= n
			return n, nil
		}
		if blockedSince.IsZero() {
			blockedSince = time.Now()
			rc.client.flowStalls.Add(1)
		}
		if err := waitDeadline(rc.wcond, &rc.mu, rc.wdeadline); err != nil {
			return 0, err
		}
	}
}

// Write implements net.Conn. Large writes are split into moderate relay
// frames so that concurrent virtual links share the relay connection
// fairly; each frame first reserves send credit, so a write against an
// exhausted window blocks (up to the write deadline) with the partial
// count reported on failure.
//
// On a sealed link each frame's payload is sealed into a pooled
// wire.Buf *before* it enters the relay path: every relay on the route
// forwards ciphertext through the ordinary cut-through machinery,
// untouched and unreadable. Credit is accounted in plaintext bytes on
// both ends; the per-record overhead (identity.SealOverhead) rides
// outside the window.
func (rc *routedConn) Write(p []byte) (int, error) {
	if err := rc.settle(true); err != nil {
		return 0, err
	}
	total := 0
	for len(p) > 0 {
		n, err := rc.reserve(len(p))
		if err != nil {
			return total, err
		}
		if rc.keys != nil {
			// Sequence assignment and frame emission under one lock, so
			// concurrent writers cannot reorder sequence numbers on the
			// wire (the receiver requires strictly increasing).
			rc.sendMu.Lock()
			rc.sendSeq++
			sealed := wire.GetBuf(n + identity.SealOverhead)
			rec := rc.keys.Seal(sealed.Bytes()[:0], rc.sendSeq, p[:n])
			err = rc.sendData(rec)
			sealed.Release()
			rc.sendMu.Unlock()
		} else {
			err = rc.sendData(p[:n])
		}
		if err != nil {
			return total, err
		}
		total += n
		p = p[n:]
	}
	return total, nil
}

// sendData sends one data frame carrying data.
func (rc *routedConn) sendData(data []byte) error {
	var ext [binary.MaxVarintLen64]byte
	return rc.client.sendLink(KindData, rc.peer, rc.channel, rc.role(), wire.AppendUvarint(ext[:0], uint64(len(data))), data)
}

// SendWindow reports the link's remaining send credit and the window the
// peer advertised when the link was opened. size minus avail is the
// sender-resident backlog: bytes sent but not yet drained by the peer's
// reader — the quantity the flow-control tests assert stays bounded.
func (rc *routedConn) SendWindow() (avail, size int) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.sendWindow, rc.sendInit
}

// Close implements net.Conn. It releases whatever is still queued,
// also on a link that already failed.
func (rc *routedConn) Close() error {
	rc.settle(false)
	rc.mu.Lock()
	rc.releaseLocked()
	if rc.closed {
		rc.mu.Unlock()
		return nil
	}
	rc.failLocked(ErrClosed) // an abandon arriving after it changes nothing
	rc.mu.Unlock()
	rc.client.sendLink(KindShut, rc.peer, rc.channel, rc.role(), nil, nil)
	rc.client.dropLink(linkID{peer: rc.peer, channel: rc.channel, outbound: rc.outbound})
	return nil
}

// routedAddr is the net.Addr of a relay-routed endpoint.
type routedAddr struct{ id string }

func (a routedAddr) Network() string { return "relay" }
func (a routedAddr) String() string  { return a.id }

// LocalAddr implements net.Conn.
func (rc *routedConn) LocalAddr() net.Addr { return routedAddr{id: rc.client.id} }

// RemoteAddr implements net.Conn.
func (rc *routedConn) RemoteAddr() net.Addr { return routedAddr{id: rc.peer} }

// SetDeadline implements net.Conn: it bounds both pending and future
// reads and writes, which fail with os.ErrDeadlineExceeded once the
// deadline passes. A zero time clears the deadline.
func (rc *routedConn) SetDeadline(t time.Time) error {
	rc.mu.Lock()
	rc.rdeadline = t
	rc.wdeadline = t
	rc.cond.Broadcast()
	rc.wcond.Broadcast()
	rc.mu.Unlock()
	return nil
}

// SetReadDeadline implements net.Conn.
func (rc *routedConn) SetReadDeadline(t time.Time) error {
	rc.mu.Lock()
	rc.rdeadline = t
	rc.cond.Broadcast()
	rc.mu.Unlock()
	return nil
}

// SetWriteDeadline implements net.Conn. Writes block when the peer's
// receive window is exhausted, so the deadline is what bounds a write
// into a stalled link.
func (rc *routedConn) SetWriteDeadline(t time.Time) error {
	rc.mu.Lock()
	rc.wdeadline = t
	rc.wcond.Broadcast()
	rc.mu.Unlock()
	return nil
}

// Peer returns the node ID of the remote end of the routed link.
func (rc *routedConn) Peer() string { return rc.peer }

// Purpose returns the purpose byte the link's open ended with (0 when it
// carried none, and on a link this side opened) and, on a data link, the
// establishment it is for.
func (rc *routedConn) Purpose() (purpose byte, conv uint64) { return rc.purpose, rc.conv }

// ExportKey returns a 32-byte key bound to label that only the two ends
// of this sealed link can derive, or nil on a plaintext link.
func (rc *routedConn) ExportKey(label string) []byte {
	if rc.settle(true) != nil || rc.keys == nil {
		return nil
	}
	return rc.keys.Export(label)
}
