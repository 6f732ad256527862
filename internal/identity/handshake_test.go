package identity

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"netibis/internal/wire"
)

// countingConn counts the frames one side writes (a wire.Writer writes
// each frame with one Write).
type countingConn struct {
	net.Conn
	writes atomic.Int32
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// exchange runs one handshake of purpose p over an in-memory pipe and
// returns what each side learned and how many frames the initiator sent.
func exchange(p Purpose, init, resp Side) (respID string, initErr error, initID string, respErr error, initFrames int32) {
	a, b := net.Pipe()
	ca := &countingConn{Conn: a}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer b.Close()
		r := wire.NewReader(b)
		b.SetReadDeadline(time.Now().Add(HandshakeTimeout))
		f, err := r.ReadFrame()
		if err != nil {
			respErr = err
			return
		}
		initID, respErr = Respond(b, r, wire.NewWriter(b), f.Payload, p, resp)
	}()
	respID, initErr = Initiate(ca, wire.NewReader(ca), wire.NewWriter(ca), wire.KindUser, p, init)
	a.Close()
	<-done
	return respID, initErr, initID, respErr, ca.writes.Load()
}

// TestHandshakeExchange drives Initiate against Respond for each pairing
// of postures: what each side learns, which typed error a refusal
// carries on both sides, and that an exchange with no trust store on the
// responder is the opening frame and one answer.
func TestHandshakeExchange(t *testing.T) {
	ca, _ := NewAuthority()
	rogueCA, _ := NewAuthority()
	alice, _ := ca.Issue("pool/alice")
	relay, _ := ca.Issue("relay-0")
	rogue, _ := rogueCA.Issue("pool/alice")
	roguePeer, _ := rogueCA.Issue("relay-0")
	ts := ca.TrustStore()

	for _, c := range []struct {
		name               string
		init, resp         Side
		initWant, respWant error // nil: success; errAny: any failure
		initFrames         int32
	}{
		{"anonymous", Side{ID: "pool/alice"}, Side{ID: "relay-0"}, nil, nil, 1},
		{"mutual", Side{"pool/alice", alice, ts}, Side{"relay-0", relay, ts}, nil, nil, 2},
		{"initiator proves unasked-for", Side{"pool/alice", alice, nil}, Side{"relay-0", relay, nil}, nil, nil, 1},
		{"responder proves unasked-for", Side{ID: "pool/alice"}, Side{ID: "relay-0", Identity: relay}, nil, nil, 1},
		{"one-way: responder asks", Side{"pool/alice", alice, nil}, Side{"relay-0", nil, ts}, nil, nil, 2},
		{"one-way: initiator asks", Side{"pool/alice", nil, ts}, Side{"relay-0", relay, nil}, nil, nil, 1},
		{"anonymous before a trust store", Side{ID: "pool/alice"}, Side{"relay-0", relay, ts}, ErrAuthRequired, ErrAuthRequired, 1},
		{"untrusted initiator", Side{"pool/alice", rogue, ts}, Side{"relay-0", relay, ts}, ErrUnknownIdentity, ErrUnknownIdentity, 2},
		{"untrusted responder", Side{"pool/alice", alice, ts}, Side{"relay-0", roguePeer, ts}, ErrUnknownIdentity, errAny, 1},
		{"anonymous responder", Side{"pool/alice", alice, ts}, Side{ID: "relay-0"}, ErrAuthRequired, nil, 1},
	} {
		respID, initErr, initID, respErr, frames := exchange(PeerLink, c.init, c.resp)
		check := func(side string, got, want error) {
			if (want == errAny && got == nil) || (want != errAny && !errors.Is(got, want)) {
				t.Errorf("%s: %s got %v, want %v", c.name, side, got, want)
			}
		}
		check("initiator", initErr, c.initWant)
		check("responder", respErr, c.respWant)
		if initErr == nil && respID != "relay-0" {
			t.Errorf("%s: initiator learned responder %q", c.name, respID)
		}
		if respErr == nil && initID != "pool/alice" {
			t.Errorf("%s: responder learned initiator %q", c.name, initID)
		}
		if frames != c.initFrames {
			t.Errorf("%s: initiator sent %d frames, want %d", c.name, frames, c.initFrames)
		}
	}
}

var errAny = errors.New("any error")
