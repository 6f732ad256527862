package core

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"netibis/internal/ipl"
	"netibis/internal/wire"
)

// pipeHalf is one direction of a servicePipe: what one end wrote and the
// other has not read yet.
type pipeHalf struct {
	mu     sync.Mutex
	cond   *sync.Cond
	data   []byte
	closed bool
	reads  int
}

func newPipeHalf() *pipeHalf {
	h := &pipeHalf{}
	h.cond = sync.NewCond(&h.mu)
	return h
}

func (h *pipeHalf) close() {
	h.mu.Lock()
	h.closed = true
	h.cond.Broadcast()
	h.mu.Unlock()
}

// servicePipe is one end of an in-memory service link between two nodes.
// A Read hands out everything the far end has written so far that fits,
// so a reader that reads ahead always has bytes to take from a reader
// after it. And the first done marker an end writes is held until that
// end's next write: the marker and the frame behind it (the next connect
// request, or its reply) reach the far end in one Read, where only the
// link's one reader may find the frame.
type servicePipe struct {
	net.Conn
	peer    string
	in, out *pipeHalf

	mu      sync.Mutex
	holding bool // the first done marker is not written yet
	held    []byte
}

// newServicePipe returns the two ends of a link between the nodes with
// relay IDs a and b: each end's Peer is the node at the far end.
func newServicePipe(a, b string) (atA, atB *servicePipe) {
	ab, ba := newPipeHalf(), newPipeHalf()
	return &servicePipe{peer: b, in: ba, out: ab, holding: true}, &servicePipe{peer: a, in: ab, out: ba, holding: true}
}

func (p *servicePipe) Peer() string { return p.peer }

func (p *servicePipe) Read(b []byte) (int, error) {
	h := p.in
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.data) == 0 && !h.closed {
		h.cond.Wait()
	}
	if len(h.data) == 0 {
		return 0, io.EOF
	}
	h.reads++
	n := copy(b, h.data)
	h.data = h.data[n:]
	return n, nil
}

func (p *servicePipe) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.holding && bytes.Equal(b, []byte{kindMuxDone, 0, 0}) {
		p.holding = false
		p.held = bytes.Clone(b)
		return len(b), nil
	}
	h := p.out
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0, io.ErrClosedPipe
	}
	h.data = append(append(h.data, p.held...), b...)
	p.held = nil
	h.cond.Broadcast()
	return len(b), nil
}

// Close closes both directions.
func (p *servicePipe) Close() error {
	p.in.close()
	p.out.close()
	return nil
}

// serveOnPipe runs n's service-link handler on its end of a pipe.
func serveOnPipe(n *Node, end *servicePipe) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.serveServiceLink(end)
	}()
}

// TestPipelinedConnectsShareTheServiceLinksReader: the service link has
// one reader on each side, and the establishment mux reads through it.
// Two connects go back to back over a link on which each side's first
// done marker reaches the far end in one Read with the frame behind it:
// on the acceptor, the next connect request, and on the initiator its
// reply. Both connects must come up over that link, which stays cached.
func TestPipelinedConnectsShareTheServiceLinksReader(t *testing.T) {
	g := newTestGrid(t)
	a := g.node("alice", "site-a", stateful, nil)
	b := g.node("bob", "site-b", stateful, nil)
	pt := ipl.PortType{Name: "chan", Stack: "tcpblk"}
	rps := make([]ipl.ReceivePort, 2)
	for k := range rps {
		rp, err := b.CreateReceivePort(pt, fmt.Sprintf("inbox-%d", k))
		if err != nil {
			t.Fatal(err)
		}
		defer rp.Close()
		rps[k] = rp
	}

	atA, atB := newServicePipe(a.relayID(), b.relayID())
	defer atA.Close()
	// A lost frame leaves both sides waiting on the link for good: the
	// watchdog then fails them, and the check below reports it.
	watchdog := time.AfterFunc(20*time.Second, func() { atA.Close() })
	serveOnPipe(b, atB)
	sl := &serviceLink{peer: b.relayID(), conn: atA, r: wire.NewReader(atA), w: wire.NewWriter(atA)}
	a.mu.Lock()
	a.serviceLinks[sl.peer] = sl
	a.mu.Unlock()

	for k, rp := range rps {
		sp, err := a.CreateSendPort(pt)
		if err != nil {
			t.Fatal(err)
		}
		defer sp.Close()
		if err := sp.Connect(rp.ID()); err != nil {
			t.Fatalf("connect %d: %v", k, err)
		}
		want := fmt.Sprintf("connect %d", k)
		sendText(t, sp, want)
		if got, _ := recvText(t, rp); got != want {
			t.Fatalf("port %d received %q, want %q", k, got, want)
		}
	}
	if !watchdog.Stop() {
		t.Fatal("a frame on the service link was lost to a second reader: the link was stuck")
	}
	a.mu.Lock()
	cached := a.serviceLinks[sl.peer]
	a.mu.Unlock()
	if cached != sl {
		t.Fatal("the connects did not run over the service link under test")
	}
	for _, end := range []*servicePipe{atA, atB} {
		end.mu.Lock()
		held := end.holding
		end.mu.Unlock()
		if held {
			t.Error("a side wrote no done marker: the connects did not run over the pipe")
		}
	}
}

// TestServiceLinkConnReadsPerFrame counts the conn Reads a service
// link's serve loop makes for a burst of 64 B frames: at most one per
// frame.
func TestServiceLinkConnReadsPerFrame(t *testing.T) {
	g := newTestGrid(t)
	a := g.node("alice", "site-a", stateful, nil)
	b := g.node("bob", "site-b", stateful, nil)
	atA, atB := newServicePipe(a.relayID(), b.relayID())
	defer atA.Close()
	const frames = 500
	w := wire.NewWriter(atA)
	for range frames {
		if err := w.WriteFrame(wire.KindControl, opPing, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	serveOnPipe(b, atB)
	r := wire.NewReader(atA)
	for i := range frames {
		if f, err := r.ReadFrame(); err != nil || f.Flags != opPong {
			t.Fatalf("pong %d: %v, %v", i, f, err)
		}
	}
	atA.out.mu.Lock()
	reads := atA.out.reads
	atA.out.mu.Unlock()
	if perFrame := float64(reads) / frames; perFrame > 1 {
		t.Errorf("a burst of 64 B frames costs the service link %.2f conn reads per frame, want at most 1", perFrame)
	}
	t.Logf("%d conn reads for %d frames of 64 B", reads, frames)
}
