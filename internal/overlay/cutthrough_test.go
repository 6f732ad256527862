package overlay

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"netibis/internal/relay"
	"netibis/internal/testutil"
	"netibis/internal/wire"
)

// countConn is a net.Conn that discards writes and counts them; the
// egress writer goroutine writes, so the count is atomic.
type countConn struct{ writes atomic.Int64 }

func (c *countConn) Write(p []byte) (int, error)      { c.writes.Add(1); return len(p), nil }
func (c *countConn) Read([]byte) (int, error)         { select {} }
func (c *countConn) Close() error                     { return nil }
func (c *countConn) LocalAddr() net.Addr              { return nil }
func (c *countConn) RemoteAddr() net.Addr             { return nil }
func (c *countConn) SetDeadline(time.Time) error      { return nil }
func (c *countConn) SetReadDeadline(time.Time) error  { return nil }
func (c *countConn) SetWriteDeadline(time.Time) error { return nil }

// drained waits, without allocating, until c has seen more than before
// writes.
func (c *countConn) drained(before int64) bool {
	for i := 0; i < 1_000_000; i++ {
		if c.writes.Load() > before {
			return true
		}
		runtime.Gosched()
	}
	return false
}

// forwardFixture is relay-a of a mesh with two peer links, to relay-b and
// relay-c, whose connections discard writes; the directory homes
// "dst-node" at relay-c.
func forwardFixture(t *testing.T) (o *Relay, b, c *peerLink, sink *countConn) {
	t.Helper()
	srv := relay.NewServer()
	o, err := New(Config{
		ID:     "relay-a",
		Server: srv,
		Dial:   func(string) (net.Conn, error) { return nil, fmt.Errorf("unused") },
	})
	if err != nil {
		t.Fatal(err)
	}
	sink = &countConn{}
	peer := func(id string, conn net.Conn) *peerLink {
		p := &peerLink{id: id, conn: conn, eg: relay.NewEgress(conn, wire.NewWriter(conn), nil)}
		o.mu.Lock()
		o.peers[id] = p
		o.mu.Unlock()
		return p
	}
	b = peer("relay-b", &countConn{})
	c = peer("relay-c", sink)
	o.dir.merge(Entry{Node: "dst-node", Home: "relay-c", Version: 1, Present: true})
	t.Cleanup(func() {
		o.Close()
		srv.Close()
	})
	return o, b, c, sink
}

// TestForwardZeroAllocs gates both mesh legs of cut-through forwarding:
// the first hop (ForwardFrame, a frame from a locally attached node) and
// a re-forward (handleForward, a frame from a peer relay whose
// destination lives at a third one) parse in place, build the envelope
// header on the stack and queue the payload verbatim — no allocation per
// frame.
func TestForwardZeroAllocs(t *testing.T) {
	o, from, _, sink := forwardFixture(t)
	routed := relay.AppendRouted(nil, "dst-node", 9, bytes.Repeat([]byte{0x5c}, 32*1024))
	first := wire.GetBuf(len(routed))
	defer first.Release()
	copy(first.Bytes(), routed)

	var head []byte
	head = wire.AppendString(head, "relay-b")
	head = wire.AppendString(head, "relay-b")
	head = wire.AppendString(head, "src-node")
	head = appendForwardTail(head, 1, relay.KindData, len(routed))
	env := append(head, routed...)
	again := wire.GetBuf(len(env))
	defer again.Release()
	copy(again.Bytes(), env)

	for name, step := range map[string]func(){
		"first hop": func() {
			if _, ok := o.ForwardFrame("src-node", []byte("dst-node"), relay.KindData, first.Bytes(), first); !ok {
				t.Fatal("ForwardFrame found no route")
			}
		},
		"re-forward": func() { o.handleForward(from, again) },
	} {
		allocs := testing.AllocsPerRun(500, func() {
			before := sink.writes.Load()
			step()
			if !sink.drained(before) {
				t.Fatal("relay-c's egress never emitted the frame")
			}
		})
		if allocs != 0 {
			t.Errorf("%s allocates %.1f objects per frame, want 0", name, allocs)
		}
	}
	// The egress releases a batch's frames right after its write.
	if why := testutil.Settle(func() (bool, string) {
		return first.Refs() == 1 && again.Refs() == 1,
			fmt.Sprintf("forwarded frames hold %d and %d references, want 1 (ours)", first.Refs(), again.Refs())
	}); why != "" {
		t.Fatal(why)
	}
}
