package relay

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"netibis/internal/testutil"
	"netibis/internal/wire"
)

// aliasConn is a net.Conn stub that records whether a Write handed it
// the exact backing array of an expected payload (i.e. the bytes were
// re-emitted verbatim, not copied). Writes arrive from the egress writer
// goroutine, so the fields are accessed atomically.
type aliasConn struct {
	expect  []byte
	aliased atomic.Bool
	writes  atomic.Int64
}

func (c *aliasConn) Write(p []byte) (int, error) {
	if len(p) > 0 && len(c.expect) > 0 && &p[0] == &c.expect[0] {
		c.aliased.Store(true)
	}
	c.writes.Add(1)
	return len(p), nil
}
func (c *aliasConn) Read([]byte) (int, error)         { return 0, nil }
func (c *aliasConn) Close() error                     { return nil }
func (c *aliasConn) LocalAddr() net.Addr              { return routedAddr{id: "test"} }
func (c *aliasConn) RemoteAddr() net.Addr             { return routedAddr{id: "test"} }
func (c *aliasConn) SetDeadline(time.Time) error      { return nil }
func (c *aliasConn) SetReadDeadline(time.Time) error  { return nil }
func (c *aliasConn) SetWriteDeadline(time.Time) error { return nil }

// newTestPeer builds a serverPeer with a running egress over conn.
func newTestPeer(id string, conn net.Conn) *serverPeer {
	return &serverPeer{id: id, conn: conn, eg: NewEgress(conn, wire.NewWriter(conn), nil)}
}

// routeFixture builds a Server with two directly registered peers whose
// connections discard writes, plus a routed data payload (owned by a
// pooled Buf, as on the live read path) addressed to the target.
func routeFixture(t testing.TB, payloadBytes int) (*Server, *serverPeer, *aliasConn, *wire.Buf) {
	s := NewServer()
	sink := &aliasConn{}
	target := newTestPeer("dst-node", sink)
	source := newTestPeer("src-node", &aliasConn{})
	s.nodes["dst-node"] = target
	s.nodes["src-node"] = source
	t.Cleanup(func() {
		target.eg.Close()
		source.eg.Close()
	})

	payload := AppendRouted(nil, "dst-node", 9, bytes.Repeat([]byte{0x5c}, payloadBytes))
	b := wire.GetBuf(len(payload))
	copy(b.Bytes(), payload)
	sink.expect = b.Bytes()
	return s, source, sink, b
}

// drainEgress waits until the sink has seen writes for n more frames
// (each frame is one header write plus one payload write on the vectored
// path). It polls without allocating, so it is safe inside AllocsPerRun.
func drainEgress(sink *aliasConn, want int64) bool {
	for i := 0; i < 1_000_000; i++ {
		if sink.writes.Load() >= want {
			return true
		}
		runtime.Gosched()
	}
	return false
}

// TestRouteForwardPathZeroCopy asserts the cut-through property: the
// routed payload bytes leave the relay as the very slice they arrived
// in — zero payload copies per forwarded frame, across the egress
// scheduler's queue.
func TestRouteForwardPathZeroCopy(t *testing.T) {
	s, source, sink, b := routeFixture(t, 32*1024)
	defer b.Release()
	s.route(source, KindData, b)
	if !drainEgress(sink, 2) { // the wire header, then the payload
		t.Fatal("egress never emitted the routed frame")
	}
	if !sink.aliased.Load() {
		t.Fatal("routed payload was copied on its way through the relay (no Write aliased the input)")
	}
	if st := s.Stats(); st.FramesRouted != 1 {
		t.Fatalf("FramesRouted = %d, want 1", st.FramesRouted)
	}
}

// TestRouteForwardPathZeroAllocs is the AllocsPerRun regression gate of
// the relay forward path: routing one data frame to a locally attached
// node — enqueue, source-fair dequeue and vectored emission included —
// performs zero heap allocations in steady state (and therefore zero
// payload copies into freshly allocated buffers).
func TestRouteForwardPathZeroAllocs(t *testing.T) {
	s, source, sink, b := routeFixture(t, 32*1024)
	defer b.Release()
	var emitted int64
	allocs := testing.AllocsPerRun(500, func() {
		before := sink.writes.Load()
		s.route(source, KindData, b)
		if !drainEgress(sink, before+1) {
			t.Fatal("egress never emitted the routed frame")
		}
		emitted++
	})
	if emitted == 0 {
		t.Fatal("no frames emitted")
	}
	if allocs != 0 {
		t.Fatalf("relay forward path allocates %.1f objects per routed frame, want 0", allocs)
	}
}

// TestInjectZeroAllocs gates the mesh-injection path the same way: a
// frame arriving from a peer relay is delivered to the local node
// without allocating.
func TestInjectZeroAllocs(t *testing.T) {
	s, _, sink, b := routeFixture(t, 32*1024)
	defer b.Release()
	allocs := testing.AllocsPerRun(500, func() {
		before := sink.writes.Load()
		if !s.Inject("peer-relay", KindData, b.Bytes(), b) {
			t.Fatal("inject failed")
		}
		if !drainEgress(sink, before+1) {
			t.Fatal("egress never emitted the injected frame")
		}
	})
	if allocs != 0 {
		t.Fatalf("relay inject path allocates %.1f objects per frame, want 0", allocs)
	}
}

// meshStub is a Forwarder that accepts every frame and queues it on an
// egress, as the overlay does (without the directory).
type meshStub struct{ eg *Egress }

func (m meshStub) ForwardFrame(srcNode string, dstNode []byte, kind byte, payload []byte, owner *wire.Buf) (string, bool) {
	owner.Retain()
	return "peer-relay", m.eg.Enqueue(srcNode, kind, nil, payload, owner) == nil
}
func (meshStub) NodeAttached(string) {}
func (meshStub) NodeDetached(string) {}

// TestRouteToMeshZeroAllocs extends the forward-path gate to a frame
// whose destination is not attached here: route hands it to the mesh
// with the destination still aliasing the frame, converting nothing.
func TestRouteToMeshZeroAllocs(t *testing.T) {
	s, source, _, b := routeFixture(t, 32*1024)
	defer b.Release()
	delete(s.nodes, "dst-node")
	sink := &aliasConn{}
	eg := NewEgress(sink, wire.NewWriter(sink), nil)
	defer eg.Close()
	s.SetForwarder(meshStub{eg: eg})
	s.route(source, KindData, b) // warm the forward counters' map entry
	allocs := testing.AllocsPerRun(500, func() {
		before := sink.writes.Load()
		s.route(source, KindData, b)
		if !drainEgress(sink, before+1) {
			t.Fatal("egress never emitted the forwarded frame")
		}
	})
	if allocs != 0 {
		t.Fatalf("relay mesh hand-off allocates %.1f objects per frame, want 0", allocs)
	}
}

// TestClientDeliverReadZeroAllocs gates the client's receive path: a
// data frame dispatched off the relay connection, queued on its link and
// read out — a full-size frame kept in place and a small one copied into
// the tail, opened in place on a sealed link, with the credit they earn
// sent back — performs no allocation. Each run moves half a window, so
// every run sends a credit grant. Under the race detector, whose pools
// drop buffers on purpose, only the data is checked.
func TestClientDeliverReadZeroAllocs(t *testing.T) {
	for _, sealed := range []bool{false, true} {
		f := newRecvFixture(t, DefaultWindowBytes, sealed)
		big, small := pattern(maxDataFrame, 1), pattern(64, 2)
		out := make([]byte, maxDataFrame+64)
		pairs := DefaultWindowBytes / 2 / maxDataFrame
		allocs := testing.AllocsPerRun(100, func() {
			for i := 0; i < pairs; i++ {
				for _, p := range [][]byte{big, small} {
					b := f.frame(p)
					f.c.dispatch(KindData, b)
					b.Release()
				}
				if _, err := io.ReadFull(f.rc, out); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 && !testutil.RaceEnabled {
			t.Fatalf("sealed=%v: routed receive path allocates %.1f objects per frame pair, want 0", sealed, allocs)
		}
		if !bytes.Equal(out[:maxDataFrame], big) || !bytes.Equal(out[maxDataFrame:], small) {
			t.Fatalf("sealed=%v: payload damaged", sealed)
		}
		if f.c.FlowStats().CreditFramesSent < 100 {
			t.Fatalf("sealed=%v: %d credit grants in 100 runs, want one per run", sealed, f.c.FlowStats().CreditFramesSent)
		}
		f.rc.Close()
	}
}

// TestRoutedWriteZeroAllocs gates the send side the same way: a 32 KiB
// Write (one full data frame, sealed on a sealed link) goes out without
// allocating (checked outside the race detector, as above).
func TestRoutedWriteZeroAllocs(t *testing.T) {
	for _, sealed := range []bool{false, true} {
		f := newRecvFixture(t, DefaultWindowBytes, sealed)
		if sealed {
			// The fixture's link receives under rx's keys; sending needs
			// the initiator's.
			f.rc.keys = f.seal
		}
		p := pattern(maxDataFrame, 5)
		allocs := testing.AllocsPerRun(200, func() {
			if n, err := f.rc.Write(p); n != len(p) || err != nil {
				t.Fatalf("write = %d, %v", n, err)
			}
			f.rc.addCredit(len(p))
		})
		if allocs != 0 && !testutil.RaceEnabled {
			t.Fatalf("sealed=%v: routed Write allocates %.1f objects per 32 KiB frame, want 0", sealed, allocs)
		}
	}
}

// BenchmarkRouteForward measures the relay's per-frame forwarding cost,
// including the egress queue crossing.
func BenchmarkRouteForward(b *testing.B) {
	s, source, sink, buf := routeFixture(b, 32*1024)
	defer buf.Release()
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.route(source, KindData, buf)
	}
	drainEgress(sink, int64(b.N))
}
