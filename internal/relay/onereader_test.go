package relay

import (
	"bytes"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"netibis/internal/identity"
	"netibis/internal/wire"
)

// scriptedConn is a node's end of a relay connection whose relay wrote
// everything it will ever write before the node reads: a Read hands out
// all of it that fits, so a reader that reads ahead always has bytes to
// take from a reader after it. Once drained, a Read under a read
// deadline fails at once (nothing more is coming) and one without waits
// for Close. Writes are dropped.
type scriptedConn struct {
	net.Conn
	mu       sync.Mutex
	script   []byte
	deadline bool
	reads    int
	closed   chan struct{}
	once     sync.Once
}

func newScriptedConn(script []byte) *scriptedConn {
	return &scriptedConn{script: script, closed: make(chan struct{})}
}

func (c *scriptedConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	c.reads++
	n := copy(p, c.script)
	c.script = c.script[n:]
	deadline := c.deadline
	c.mu.Unlock()
	switch {
	case n > 0:
		return n, nil
	case deadline:
		return 0, os.ErrDeadlineExceeded
	}
	<-c.closed
	return 0, io.EOF
}

func (c *scriptedConn) Write(p []byte) (int, error) { return len(p), nil }

func (c *scriptedConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = !t.IsZero()
	c.mu.Unlock()
	return nil
}

func (c *scriptedConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// scriptedRelay writes what a relay sends a node that probes and
// attaches as "alice": the probe's echo, its hello, the attach ack, an
// open of channel 7 from "bob", and frames of payload on it.
func scriptedRelay(frames int, payload []byte) []byte {
	var script bytes.Buffer
	w := wire.NewWriter(&script)
	w.WriteFrame(wire.KindKeepAlive, 0, nil)
	w.WriteFrame(identity.KindHello, 0, identity.AppendHello(nil, identity.Hello{ID: "relay-1"}))
	w.WriteFrame(KindAttachOK, 0, nil)
	w.WriteFrame(KindOpen, 0, AppendRouted(nil, "alice", 7, appendOpenBody(nil, "bob", DefaultWindowBytes, nil)))
	data := wire.AppendBytes(wire.AppendUvarint(wire.AppendString(nil, "bob"), uint64(roleInitiator)), payload)
	for range frames {
		w.WriteFrame(KindData, 0, AppendRouted(nil, "alice", 7, data))
	}
	return script.Bytes()
}

// TestProbeAttachAndFirstFrameShareOneReader: a relay connection has
// one reader from the RTT probe on. The probe's read takes the attach ack
// and the first routed frames with its echo, and the attach and the read
// loop must find them there.
func TestProbeAttachAndFirstFrameShareOneReader(t *testing.T) {
	conn := newScriptedConn(scriptedRelay(1, []byte("first routed frame")))
	if _, r, err := ProbeRTT(conn); err != nil {
		t.Fatalf("probe: %v", err)
	} else if c, err := AttachProbed(conn, r, "alice", nil); err != nil {
		t.Fatalf("attach behind the probe: %v", err)
	} else {
		defer c.Close()
		link, err := c.Accept()
		if err != nil {
			t.Fatalf("accept: %v", err)
		}
		got := make([]byte, len("first routed frame"))
		if _, err := io.ReadFull(link, got); err != nil || string(got) != "first routed frame" {
			t.Fatalf("first routed frame: %q, %v", got, err)
		}
	}
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if conn.reads > 2 { // the probe's, and perhaps the read loop's wait for more
		t.Errorf("probe, attach and the first frame took %d conn reads, want the probe's one", conn.reads)
	}
}

// TestRoutedLinkConnReadsPerFrame counts the conn Reads a node's read
// loop makes for a burst of 64 B routed frames: at most one per frame.
func TestRoutedLinkConnReadsPerFrame(t *testing.T) {
	const frames = 500
	conn := newScriptedConn(scriptedRelay(frames, make([]byte, 64)))
	_, r, err := ProbeRTT(conn)
	if err != nil {
		t.Fatal(err)
	}
	c, err := AttachProbed(conn, r, "alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	link, err := c.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(link, make([]byte, frames*64)); err != nil {
		t.Fatal(err)
	}
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if perFrame := float64(conn.reads) / frames; perFrame > 1 {
		t.Errorf("a burst of 64 B routed frames costs %.2f conn reads per frame, want at most 1", perFrame)
	}
	t.Logf("%d conn reads for %d routed frames of 64 B", conn.reads, frames)
}
