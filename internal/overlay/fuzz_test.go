package overlay

// Native fuzz targets for the overlay's hand-rolled decoders: directory
// gossip, forward envelopes and NACKs, and the acceptor's end of the
// peer-link handshake — everything a (possibly malicious) peer relay can
// put on a peer link. None may panic or over-read on arbitrary bytes.

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"netibis/internal/identity"
	"netibis/internal/relay"
	"netibis/internal/wire"
)

func FuzzDecodeGossip(f *testing.F) {
	f.Add(encodeGossip([]Entry{
		{Node: "pool/alice", Home: "relay-0", Version: 3, Present: true},
		{Node: "pool/bob", Home: "relay-1", Version: 9, Present: false},
	}))
	f.Add(encodeGossip(nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x0f}) // huge count, no entries
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := decodeGossip(data)
		if err != nil {
			return
		}
		// Decoded entries must re-encode and re-decode stably.
		again, err := decodeGossip(encodeGossip(entries))
		if err != nil || len(again) != len(entries) {
			t.Fatalf("re-decode: %v (%d vs %d entries)", err, len(again), len(entries))
		}
	})
}

func FuzzDecodeForward(f *testing.F) {
	var seed []byte
	seed = wire.AppendString(seed, "relay-0")
	seed = wire.AppendString(seed, "relay-1")
	seed = wire.AppendString(seed, "pool/alice")
	seed = wire.AppendUvarint(seed, 1)
	seed = append(seed, 0x25)
	seed = wire.AppendBytes(seed, []byte("routed-payload"))
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0x01, 'x'})

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := decodeForward(data)
		if err != nil {
			return
		}
		if len(env.routed) > len(data) {
			t.Fatal("routed payload longer than input")
		}
		// The IDs a re-forward re-sends verbatim lead the input and hold
		// the three decoded ones, each behind its length.
		if !bytes.HasPrefix(data, env.ids) || len(env.ids) < 3+len(env.origin)+len(env.firstHop)+len(env.srcNode) {
			t.Fatalf("envelope IDs %x do not hold the decoded IDs", env.ids)
		}
	})
}

func FuzzDecodeNack(f *testing.F) {
	f.Add(encodeNack("relay-0", "pool/bob", "pool/alice", 7, 0x22))
	f.Add([]byte{})
	f.Add([]byte{0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		origin, dst, srcNode, channel, kind, err := decodeNack(data)
		if err != nil {
			return
		}
		// Roundtrip stability.
		o2, d2, s2, c2, k2, err := decodeNack(encodeNack(origin, dst, srcNode, channel, kind))
		if err != nil || o2 != origin || d2 != dst || s2 != srcNode || c2 != channel || k2 != kind {
			t.Fatalf("re-decode mismatch: %v", err)
		}
	})
}

// trustedAcceptor is a mesh member that holds a trust store, to hand
// peer hellos to, and an identity its trust store accepts.
func trustedAcceptor(tb testing.TB) (*Relay, *identity.Identity) {
	ca, err := identity.NewAuthority()
	if err != nil {
		tb.Fatal(err)
	}
	own, _ := ca.Issue("relay-0")
	peer, _ := ca.Issue("relay-1")
	o, err := New(Config{
		ID:       "relay-0",
		Server:   relay.NewServer(),
		Dial:     func(string) (net.Conn, error) { return nil, errors.New("no dialing") },
		Identity: own,
		Trust:    ca.TrustStore(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(o.Close)
	return o, peer
}

// answerHello hands one peer hello to o's connection handler over an
// in-memory pipe and returns the frame o answers with.
func answerHello(o *Relay, hello []byte) (wire.Frame, error) {
	dialer, acceptor := net.Pipe()
	dialer.SetDeadline(time.Now().Add(identity.HandshakeTimeout))
	done := make(chan struct{})
	go func() {
		defer close(done)
		o.handlePeerConn(wire.Frame{Kind: kindPeerHello, Payload: hello}, acceptor, wire.NewReader(acceptor))
	}()
	f, err := wire.NewReader(dialer).ReadFrame()
	dialer.Close()
	<-done
	return f, err
}

// TestPeerHelloStrictDecode: a peer hello has one layout per mode.
// Without its last field, with a trailing byte or with an unknown mode
// the acceptor refuses it with a malformed verdict — it never infers an
// anonymous peer from a short body, and admits no link.
func TestPeerHelloStrictDecode(t *testing.T) {
	o, peer := trustedAcceptor(t)
	nonce, _ := identity.NewNonce()
	full := identity.AppendHello(nil, identity.Hello{ID: "relay-1", Nonce: nonce, Announce: peer.Announce()})
	if f, err := answerHello(o, full); err != nil || f.Kind != identity.KindHello {
		t.Fatalf("canonical hello answered with kind %d, %v", f.Kind, err)
	}
	c, _ := identity.VerdictCode(identity.ErrMalformed)
	malformed := wire.AppendUvarint(nil, uint64(c))
	for name, hello := range map[string][]byte{
		"without its last field": full[:len(full)-1],
		"with a trailing byte":   append(append([]byte(nil), full...), 0),
		"with an unknown mode":   wire.AppendUvarint(wire.AppendBytes(wire.AppendString(nil, "relay-1"), nonce), identity.AuthVersion+1),
	} {
		if f, err := answerHello(o, hello); err != nil || f.Kind != identity.KindVerdict || !bytes.Equal(f.Payload, malformed) {
			t.Errorf("hello %s: answered with kind %d %x, %v; want a malformed verdict", name, f.Kind, f.Payload, err)
		}
	}
	if p := o.Peers(); len(p) != 0 {
		t.Fatalf("peers admitted without a proof: %v", p)
	}
}

// FuzzDecodePeerHello: a mesh member that holds a trust store answers
// any peer hello with a hello that asks for a proof, or with a refusal,
// and admits no link without the proof.
func FuzzDecodePeerHello(f *testing.F) {
	o, peer := trustedAcceptor(f)
	nonce, _ := identity.NewNonce()
	f.Add(identity.AppendHello(nil, identity.Hello{ID: "relay-1"}))
	f.Add(identity.AppendHello(nil, identity.Hello{ID: "relay-1", Nonce: nonce, Announce: peer.Announce()}))
	f.Add(identity.AppendHello(nil, identity.Hello{ID: "relay-1", Announce: peer.Announce(), Sig: []byte("sig")}))
	f.Add([]byte{})
	f.Add([]byte{0x01, 'x', 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := answerHello(o, data)
		if err != nil {
			t.Fatalf("no answer to hello %x: %v", data, err)
		}
		switch h, err := identity.DecodeHello(fr.Payload); {
		case fr.Kind == identity.KindVerdict:
		case fr.Kind != identity.KindHello || err != nil || len(h.Nonce) == 0:
			t.Fatalf("hello %x answered with kind %d (%v), not a hello that asks for a proof", data, fr.Kind, err)
		}
		if p := o.Peers(); len(p) != 0 {
			t.Fatalf("hello %x admitted peers %v without a proof", data, p)
		}
	})
}
