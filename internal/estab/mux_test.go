package estab

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"netibis/internal/wire"
)

// TestServiceMuxConcurrentConversations runs N conversations
// concurrently over a single synchronous in-memory connection — the
// shape of brokering N parallel sub-streams at once — each with what a
// race puts on the link: a tagged abort and an election, a different
// method each per conversation. Every abort cancels its own
// conversation's attempt and no other, and every election reaches its
// own conversation.
func TestServiceMuxConcurrentConversations(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	const conversations = 8
	initiator := NewServiceMux(c1, wire.NewReader(c1), conversations, Endpoints{}, Endpoints{})
	acceptor := NewServiceMux(c2, wire.NewReader(c2), conversations, Endpoints{}, Endpoints{})
	methods := []Method{ClientServer, Splicing, Proxy, Routed}

	var wg sync.WaitGroup
	errs := make(chan error, 2*conversations)
	for i := range conversations {
		acc, ini := acceptor.Open(), initiator.Open()
		aborted, elected := methods[i%len(methods)], methods[(i+1)%len(methods)]
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := ini.send(aborted, msgAbort, nil); err != nil {
				errs <- fmt.Errorf("initiator's abort: %w", err)
			}
			if err := ini.send(MethodNone, msgElect, []byte{byte(elected)}); err != nil {
				errs <- fmt.Errorf("initiator's election: %w", err)
			}
		}()
		go func() {
			defer wg.Done()
			m, err := acc.waitElect(methods)
			if err != nil || m != elected {
				errs <- fmt.Errorf("conversation %d: elected %v (%v), want %v", i, m, err, elected)
				return
			}
			<-acc.cancels[aborted] // the abort went out first, on a FIFO link
			for _, other := range methods {
				select {
				case <-acc.cancels[other]:
					if other != aborted {
						errs <- fmt.Errorf("conversation %d: %v canceled by another's abort", i, other)
					}
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	finDone := make(chan error, 2)
	go func() { finDone <- initiator.Finish() }()
	go func() { finDone <- acceptor.Finish() }()
	if err := <-finDone; err != nil {
		t.Fatalf("finish: %v", err)
	}
	if err := <-finDone; err != nil {
		t.Fatalf("finish: %v", err)
	}
}

// TestServiceMuxPeerDoneFailsPendingReads checks the failure path: when
// one side finishes (e.g. its build failed), the other side's wait for
// the election errors out instead of hanging.
func TestServiceMuxPeerDoneFailsPendingReads(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	a := NewServiceMux(c1, wire.NewReader(c1), 1, Endpoints{}, Endpoints{})
	b := NewServiceMux(c2, wire.NewReader(c2), 1, Endpoints{}, Endpoints{})

	blocked := make(chan error, 1)
	s := b.Open()
	go func() {
		_, err := s.waitElect([]Method{Routed})
		blocked <- err
	}()

	aFin := make(chan error, 1)
	go func() { aFin <- a.Finish() }()
	if err := <-blocked; err != ErrEstablishmentEnded {
		t.Fatalf("blocked wait for the election got %v, want ErrEstablishmentEnded", err)
	}
	if err := b.Finish(); err != nil {
		t.Fatalf("b.Finish: %v", err)
	}
	if err := <-aFin; err != nil {
		t.Fatalf("a.Finish: %v", err)
	}
	if err := s.send(Routed, msgAbort, nil); err != ErrEstablishmentEnded {
		t.Fatalf("send after Finish got %v, want ErrEstablishmentEnded", err)
	}
}

// TestServiceMuxConnReusableAfterFinish checks that the connection's
// owner may write again right behind its done marker, before the peer's
// barrier has passed, and that the peer's mux reads nothing past the
// marker: after both sides finished, what the owner wrote is the next
// thing the peer reads, and no residual mux traffic is left.
func TestServiceMuxConnReusableAfterFinish(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	a := NewServiceMux(c1, wire.NewReader(c1), 1, Endpoints{}, Endpoints{})
	b := NewServiceMux(c2, wire.NewReader(c2), 1, Endpoints{}, Endpoints{})
	s1, s2 := a.Open(), b.Open()
	go s1.send(MethodNone, msgElect, []byte{byte(Splicing)})
	if m, err := s2.waitElect([]Method{Splicing}); err != nil || m != Splicing {
		t.Fatalf("election: %v, %v", m, err)
	}
	if err := a.Done(); err != nil {
		t.Fatal(err)
	}
	go c1.Write([]byte("after")) // behind the marker, b's barrier still open
	fin := make(chan error, 2)
	go func() { fin <- a.Finish() }()
	go func() { fin <- b.Finish() }()
	if err := <-fin; err != nil {
		t.Fatal(err)
	}
	if err := <-fin; err != nil {
		t.Fatal(err)
	}
	after := make([]byte, 5)
	if _, err := io.ReadFull(c2, after); err != nil || string(after) != "after" {
		t.Fatalf("conn not clean after mux: %q %v", after, err)
	}
}

// FuzzMuxMessage: the mux message decoder never panics, and a message it
// accepts has exactly the encoding it arrived in.
func FuzzMuxMessage(f *testing.F) {
	for _, seed := range [][]byte{
		append(appendMuxHeader(nil, 0, MethodNone, msgElect), byte(Routed)),
		appendMuxHeader(nil, 300, ClientServer, msgAbort),
		appendMuxHeader(nil, 1, Routed, msgAbort),
		{0x80},
		{},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := decodeMuxMessage(data)
		if err != nil {
			return
		}
		if again := append(appendMuxHeader(nil, msg.stream, msg.method, msg.t), msg.body...); !bytes.Equal(again, data) {
			t.Fatalf("%x decodes to %+v, which encodes to %x", data, msg, again)
		}
	})
}
