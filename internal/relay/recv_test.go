package relay

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"netibis/internal/identity"
	"netibis/internal/wire"
)

// recvFixture is the receiving end of one routed link with no network
// under it: data frames are built in pooled Bufs and handed to the
// client's dispatch exactly as its read loop hands them, and what the
// client sends back (credit, shut) goes to a sink. The test keeps its own
// reference to every frame it delivers, so a Buf's reference count says
// whether the link still holds it: 2 while queued in place, 1 once the
// link let go — and a link that released it twice makes the test's own
// Release panic.
type recvFixture struct {
	c    *Client
	rc   *routedConn
	seal *identity.LinkKeys // the sending end's keys; nil on a plaintext link
	seq  uint64
}

func newRecvFixture(t testing.TB, window int, sealed bool) *recvFixture {
	t.Helper()
	sink := &aliasConn{}
	c := &Client{
		id:      "rx",
		conn:    sink,
		w:       wire.NewWriter(sink),
		links:   make(map[linkID]*routedConn),
		accepts: make(chan *routedConn, 1),
		pending: make(map[linkID]*pendingDial),
		window:  window,
	}
	f := &recvFixture{c: c, rc: newRoutedConn(c, "tx", 1, true, window, window)}
	if sealed {
		f.rc.keys, f.seal = linkKeyPair(t)
	}
	c.links[linkID{peer: "tx", channel: 1, outbound: true}] = f.rc
	return f
}

// linkKeyPair runs the end-to-end key exchange between "tx" (initiator)
// and "rx" and returns both ends' keys.
func linkKeyPair(t testing.TB) (rx, tx *identity.LinkKeys) {
	t.Helper()
	ca, err := identity.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	txID, _ := ca.Issue("tx")
	rxID, _ := ca.Issue("rx")
	offer, err := identity.OfferLink(txID, "tx", "rx", 1)
	if err != nil {
		t.Fatal(err)
	}
	rx, answer, err := identity.AcceptLink(rxID, ca.TrustStore(), "tx", "rx", 1, offer.Blob())
	if err != nil {
		t.Fatal(err)
	}
	if tx, err = offer.CompleteLink(ca.TrustStore(), answer); err != nil {
		t.Fatal(err)
	}
	return rx, tx
}

// frame builds a data frame from the link's peer carrying payload
// (sealed under the next sequence number on a sealed link) in a fresh
// pooled Buf, as the relay connection's reader would.
func (f *recvFixture) frame(payload []byte) *wire.Buf {
	var arr [64]byte
	hdr := AppendRouted(arr[:0], "rx", 1, nil)
	hdr = wire.AppendString(hdr, "tx")
	hdr = wire.AppendUvarint(hdr, uint64(roleAcceptor))
	n := len(payload)
	if f.seal != nil {
		n += identity.SealOverhead
	}
	hdr = wire.AppendUvarint(hdr, uint64(n))
	b := wire.GetBuf(len(hdr) + n)
	copy(b.Bytes(), hdr)
	if f.seal != nil {
		f.seq++
		f.seal.Seal(b.Bytes()[len(hdr):len(hdr)], f.seq, payload)
	} else {
		copy(b.Bytes()[len(hdr):], payload)
	}
	return b
}

// deliver dispatches payload as one data frame and returns the frame's
// Buf, of which the test still holds a reference.
func (f *recvFixture) deliver(payload []byte) *wire.Buf {
	b := f.frame(payload)
	f.c.dispatch(KindData, b)
	return b
}

// pinned reports the storage the link's queue holds: every distinct Buf
// a segment reads from, and the tail.
func (rc *routedConn) pinned() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	seen := map[*wire.Buf]bool{}
	total := 0
	if rc.tail != nil {
		seen[rc.tail] = true
		total += rc.tail.Cap()
	}
	for i := 0; i < rc.nsegs; i++ {
		if b := rc.segs[(rc.head+i)%len(rc.segs)].buf; !seen[b] {
			seen[b] = true
			total += b.Cap()
		}
	}
	return total
}

// wantRefs fails unless every Buf holds refs references.
func wantRefs(t *testing.T, when string, refs int32, bufs ...*wire.Buf) {
	t.Helper()
	for i, b := range bufs {
		if got := b.Refs(); got != refs {
			t.Fatalf("%s: frame %d holds %d references, want %d", when, i, got, refs)
		}
	}
}

func release(bufs ...*wire.Buf) {
	for _, b := range bufs {
		b.Release()
	}
}

// pattern returns n bytes of a recognisable sequence starting at seed.
func pattern(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed + byte(i%251)
	}
	return p
}

// TestRecvQueueKeepsFramesAndDrains: a full-size frame is queued in
// place (its Buf retained, not copied), a small one is copied into the
// tail (its Buf not retained), Read returns the bytes in order across
// segment boundaries, and a drained frame's Buf is released exactly once.
func TestRecvQueueKeepsFramesAndDrains(t *testing.T) {
	for _, sealed := range []bool{false, true} {
		f := newRecvFixture(t, DefaultWindowBytes, sealed)
		big1, small, big2 := pattern(maxDataFrame, 1), pattern(64, 2), pattern(maxDataFrame, 3)
		b1, bs, b2 := f.deliver(big1), f.deliver(small), f.deliver(big2)
		wantRefs(t, "queued", 2, b1, b2)
		wantRefs(t, "small frame copied", 1, bs)

		want := append(append(append([]byte(nil), big1...), small...), big2...)
		got, err := io.ReadAll(io.LimitReader(f.rc, int64(len(want))))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("sealed=%v: read %d bytes (%v), payload damaged or reordered", sealed, len(got), err)
		}
		wantRefs(t, "drained", 1, b1, b2)
		if f.rc.nsegs != 0 || f.rc.queued != 0 {
			t.Fatalf("sealed=%v: drained queue holds %d segments, %d bytes", sealed, f.rc.nsegs, f.rc.queued)
		}
		f.rc.Close()
		if f.rc.tail != nil {
			t.Fatal("Close kept the tail Buf")
		}
		release(b1, bs, b2)
	}
}

// TestRecvQueueReleasesOnClose: Close after a partial Read releases every
// queued frame, the partly read one included.
func TestRecvQueueReleasesOnClose(t *testing.T) {
	f := newRecvFixture(t, DefaultWindowBytes, false)
	b1, b2 := f.deliver(pattern(maxDataFrame, 1)), f.deliver(pattern(maxDataFrame, 2))
	if n, err := f.rc.Read(make([]byte, 100)); n != 100 || err != nil {
		t.Fatalf("partial read = %d, %v", n, err)
	}
	wantRefs(t, "partly read", 2, b1, b2)
	f.rc.Close()
	wantRefs(t, "closed", 1, b1, b2)
	if n, err := f.rc.Read(make([]byte, 100)); n != 0 || err == nil {
		t.Fatalf("read after Close = %d, %v, want an error", n, err)
	}
	f.rc.Close() // idempotent: nothing is released twice
	release(b1, b2)
}

// TestRecvQueueDrainsAfterPeerClose: what was queued before the peer shut
// the link is read before io.EOF, and each frame is released as it
// drains.
func TestRecvQueueDrainsAfterPeerClose(t *testing.T) {
	f := newRecvFixture(t, DefaultWindowBytes, false)
	payload := pattern(maxDataFrame, 7)
	b := f.deliver(payload)
	f.rc.peerClosed()
	got, err := io.ReadAll(f.rc)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("drain after peer close: %d bytes, %v", len(got), err)
	}
	wantRefs(t, "drained after peer close", 1, b)
	f.rc.Close()
	release(b)
}

// TestRecvQueueTamperedRecord: a sealed record that fails authentication
// is opened in place and rejected — nothing is queued, its Buf is not
// retained — and the link fails with ErrE2E after what was queued before
// it drains; Close then leaves no Buf referenced.
func TestRecvQueueTamperedRecord(t *testing.T) {
	t.Run("alone", func(t *testing.T) {
		f := newRecvFixture(t, DefaultWindowBytes, true)
		b := f.frame(pattern(maxDataFrame, 1))
		b.Bytes()[b.Len()-1] ^= 1
		f.c.dispatch(KindData, b)
		wantRefs(t, "tampered", 1, b)
		if f.rc.queued != 0 || f.rc.nsegs != 0 {
			t.Fatalf("tampered record queued %d bytes in %d segments", f.rc.queued, f.rc.nsegs)
		}
		if _, err := f.rc.Read(make([]byte, 16)); !errors.Is(err, ErrE2E) {
			t.Fatalf("read after a tampered record = %v, want ErrE2E", err)
		}
		f.rc.Close()
		release(b)
	})
	t.Run("after good records", func(t *testing.T) {
		f := newRecvFixture(t, DefaultWindowBytes, true)
		good := pattern(maxDataFrame, 2)
		b1 := f.deliver(good)
		bad := f.frame(pattern(maxDataFrame, 3))
		bad.Bytes()[bad.Len()-20] ^= 1
		f.c.dispatch(KindData, bad)
		late := f.deliver(pattern(maxDataFrame, 4)) // the link is dead: dropped
		wantRefs(t, "good record queued", 2, b1)
		wantRefs(t, "bad and late records", 1, bad, late)
		got, err := io.ReadAll(f.rc)
		if !errors.Is(err, ErrE2E) || !bytes.Equal(got, good) {
			t.Fatalf("read = %d bytes, %v; want the good record, then ErrE2E", len(got), err)
		}
		wantRefs(t, "drained", 1, b1)
		f.rc.Close()
		release(b1, bad, late)
	})
}

// TestRecvQueueReleasedByClientClose: closing the whole client releases
// what its links still queue.
func TestRecvQueueReleasedByClientClose(t *testing.T) {
	f := newRecvFixture(t, DefaultWindowBytes, false)
	b1, b2 := f.deliver(pattern(maxDataFrame, 1)), f.deliver(pattern(100, 2))
	wantRefs(t, "queued", 2, b1)
	f.c.Close()
	wantRefs(t, "client closed", 1, b1, b2)
	if f.rc.tail != nil || f.rc.nsegs != 0 {
		t.Fatal("client Close left the link's queue in place")
	}
	if _, err := f.rc.Read(make([]byte, 16)); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after client Close = %v, want ErrClosed", err)
	}
	f.rc.Close()
	release(b1, b2)
}

// TestRecvQueueSurvivesResume: the resync after a relay failover keeps
// what is queued (the peer's re-grant counts it), accepts the failover's
// over-grant up to twice the window, and drains and releases as usual.
func TestRecvQueueSurvivesResume(t *testing.T) {
	const window = 4 * maxDataFrame
	f := newRecvFixture(t, window, false)
	var bufs []*wire.Buf
	var want []byte
	for i := 0; i < 4; i++ { // a full window, unread
		p := pattern(maxDataFrame, byte(i))
		bufs = append(bufs, f.deliver(p))
		want = append(want, p...)
	}
	f.rc.resyncAfterResume()
	wantRefs(t, "queued across the resync", 2, bufs...)
	for i := 4; i < 8; i++ { // the over-grant a failover may hand the peer
		p := pattern(maxDataFrame, byte(i))
		bufs = append(bufs, f.deliver(p))
		want = append(want, p...)
	}
	got, err := io.ReadAll(io.LimitReader(f.rc, int64(len(want))))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read across the resync: %d bytes, %v", len(got), err)
	}
	wantRefs(t, "drained", 1, bufs...)
	f.rc.Close()
	release(bufs...)
}
