package estab

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
)

// TestServiceMuxConcurrentConversations runs N request/response
// conversations concurrently over a single synchronous in-memory
// connection — the shape of brokering N parallel sub-streams at once —
// each on two method conversations at a time, the shape of a race.
func TestServiceMuxConcurrentConversations(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	const conversations = 8
	initiator := NewServiceMux(c1, conversations, Splice{})
	acceptor := NewServiceMux(c2, conversations, Splice{})

	methods := []Method{Splicing, Routed}
	var wg sync.WaitGroup
	errs := make(chan error, 2*conversations*len(methods))

	for i := 0; i < conversations; i++ {
		// Acceptor side: echo each request back with a prefix.
		acc := acceptor.Open()
		ini := initiator.Open()
		for _, m := range methods {
			wg.Add(2)
			go func(m Method) {
				defer wg.Done()
				req, err := acc.recv(m)
				if err != nil {
					errs <- fmt.Errorf("acceptor recv: %w", err)
					return
				}
				if err := acc.send(m, req.t, append([]byte("echo:"), req.body...)); err != nil {
					errs <- fmt.Errorf("acceptor send: %w", err)
				}
			}(m)
			go func(i int, m Method) {
				defer wg.Done()
				req := bytes.Repeat([]byte{byte('a' + i), byte(m)}, 8)
				if err := ini.send(m, msgListen, req); err != nil {
					errs <- fmt.Errorf("initiator send: %w", err)
					return
				}
				resp, err := ini.recv(m)
				if err != nil {
					errs <- fmt.Errorf("initiator recv: %w", err)
					return
				}
				if resp.t != msgListen || !bytes.Equal(resp.body, append([]byte("echo:"), req...)) {
					errs <- fmt.Errorf("conversation %d, %v: cross-talk: got type %d, %q", i, m, resp.t, resp.body)
				}
			}(i, m)
		}
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
// one side finishes (e.g. its build failed), the other side's blocked
// conversations error out instead of hanging — a method's receive and
// the control queue's alike.
func TestServiceMuxPeerDoneFailsPendingReads(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	a := NewServiceMux(c1, 1, Splice{})
	b := NewServiceMux(c2, 1, Splice{})

	blocked := make(chan error, 2)
	s := b.Open()
	for _, m := range []Method{MethodNone, Routed} {
		go func(m Method) {
			_, err := s.recv(m)
			blocked <- err
		}(m)
	}

	aFin := make(chan error, 1)
	go func() { aFin <- a.Finish() }()
	for range [2]int{} {
		if err := <-blocked; err != ErrEstablishmentEnded {
			t.Fatalf("blocked receive got %v, want ErrEstablishmentEnded", err)
		}
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
	a := NewServiceMux(c1, 1, Splice{})
	b := NewServiceMux(c2, 1, Splice{})
	s1, s2 := a.Open(), b.Open()
	go s1.send(ClientServer, msgListen, []byte("endpoint"))
	if msg, err := s2.recv(ClientServer); err != nil || msg.t != msgListen || string(msg.body) != "endpoint" {
		t.Fatalf("recv: %+v, %v", msg, err)
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
		append(appendMuxHeader(nil, 300, ClientServer, msgListen), "\x0810.1.0.2\xd2\x09"...),
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
