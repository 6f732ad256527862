package relay

// Native fuzz targets for the relay protocol's hand-rolled decoders —
// routed headers and the open/open-OK bodies (window + end-to-end
// exchange blob) — and for its ends of the attach handshake. These read
// bytes written by arbitrary, possibly hostile nodes; none may panic,
// over-read or accept a malformed handshake.

import (
	"bytes"
	"net"
	"testing"
	"time"

	"netibis/internal/identity"
	"netibis/internal/wire"
)

func FuzzParseRouted(f *testing.F) {
	f.Add(AppendRouted(nil, "pool/bob", 7, []byte("body")))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		dst, channel, body, ok := ParseRouted(data)
		if !ok {
			return
		}
		// The in-place parse splits the payload: the body is its tail, and
		// the header (at least one length byte, dst, one channel byte)
		// fits in front of it.
		if !bytes.HasSuffix(data, body) || 2+len(dst)+len(body) > len(data) {
			t.Fatalf("ParseRouted(%x) = %q, %d, %x does not split the input", data, dst, channel, body)
		}
	})
}

// The handshake's bodies decode in package identity (FuzzDecodeHello,
// FuzzDecodeProof). The three targets below feed arbitrary bodies to the
// relay's own ends of the attach handshake, where a hostile node or
// relay puts them, and check what the relay or client does with them.

// fuzzAuth is a deployment for the handshake targets: a trust store and
// a node identity it trusts.
func fuzzAuth(f *testing.F) (*identity.TrustStore, *identity.Identity) {
	ca, err := identity.NewAuthority()
	if err != nil {
		f.Fatal(err)
	}
	alice, err := ca.Issue("pool/alice")
	if err != nil {
		f.Fatal(err)
	}
	return ca.TrustStore(), alice
}

// attachTo serves one connection of a relay that holds trust over an
// in-memory pipe and returns the node's end; the returned wait closes it
// and waits for the relay's handler.
func attachTo(trust *identity.TrustStore) (*wire.Reader, *wire.Writer, func()) {
	srv := NewServer()
	srv.SetID("relay-0")
	srv.SetAuth(AuthConfig{Trust: trust})
	node, relay := net.Pipe()
	node.SetDeadline(time.Now().Add(identity.HandshakeTimeout))
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.handle(relay)
	}()
	return wire.NewReader(node), wire.NewWriter(node), func() { node.Close(); <-done }
}

// FuzzDecodeAttach: a relay that holds a trust store answers any attach
// body with a hello that asks for a proof, or with a refusal — never
// with an ack.
func FuzzDecodeAttach(f *testing.F) {
	trust, alice := fuzzAuth(f)
	nonce, _ := identity.NewNonce()
	f.Add(identity.AppendHello(nil, identity.Hello{ID: "pool/alice"}))
	f.Add(identity.AppendHello(nil, identity.Hello{ID: "pool/alice", Nonce: nonce, Announce: alice.Announce()}))
	f.Add([]byte{})
	f.Add([]byte{0x05, 'a', 'l', 'i', 'c', 'e', 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, w, wait := attachTo(trust)
		defer wait()
		if err := w.WriteFrame(KindAttach, 0, data); err != nil {
			t.Fatal(err)
		}
		fr, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("no answer to attach %x: %v", data, err)
		}
		switch h, err := identity.DecodeHello(fr.Payload); {
		case fr.Kind == identity.KindVerdict:
		case fr.Kind != identity.KindHello || err != nil || len(h.Nonce) == 0:
			t.Fatalf("attach %x answered with kind %d (%v), not a hello that asks for a proof", data, fr.Kind, err)
		}
	})
}

// FuzzDecodeAuthResponse: a relay that asked a node for its proof
// refuses any proof body but the node's own signature over its nonce.
func FuzzDecodeAuthResponse(f *testing.F) {
	trust, alice := fuzzAuth(f)
	f.Add(identity.AppendProof(nil, identity.Proof{Echo: make([]byte, identity.NonceSize), Sig: []byte("sig")}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, w, wait := attachTo(trust)
		defer wait()
		w.WriteFrame(KindAttach, 0, identity.AppendHello(nil, identity.Hello{ID: "pool/alice", Announce: alice.Announce()}))
		if fr, err := r.ReadFrame(); err != nil || fr.Kind != identity.KindHello {
			t.Fatalf("expected the relay's hello: %v, %v", fr.Kind, err)
		}
		w.WriteFrame(identity.KindProof, 0, data)
		fr, err := r.ReadFrame()
		if err != nil || fr.Kind != identity.KindVerdict || bytes.Equal(fr.Payload, []byte{0}) {
			t.Fatalf("proof %x: answered with kind %d %x (%v), want a refusal", data, fr.Kind, fr.Payload, err)
		}
	})
}

// FuzzDecodeChallenge: a client that holds a trust store attaches on no
// relay hello it cannot verify, and answers none with a hang.
func FuzzDecodeChallenge(f *testing.F) {
	trust, alice := fuzzAuth(f)
	nonce := make([]byte, identity.NonceSize)
	f.Add(identity.AppendHello(nil, identity.Hello{ID: "relay-0", Nonce: nonce}))
	f.Add(identity.AppendHello(nil, identity.Hello{ID: "relay-0", Nonce: nonce, Announce: alice.Announce(), Sig: []byte("sig")}))
	f.Add([]byte{})
	f.Add([]byte{0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		node, relay := net.Pipe()
		relay.SetDeadline(time.Now().Add(identity.HandshakeTimeout))
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer relay.Close()
			r, w := wire.NewReader(relay), wire.NewWriter(relay)
			if _, err := r.ReadFrame(); err != nil {
				return
			}
			w.WriteFrame(identity.KindHello, 0, data)
			for { // whatever the node sends, until it hangs up
				if _, err := r.ReadFrame(); err != nil {
					return
				}
			}
		}()
		if _, err := AttachAuth(node, "pool/alice", &AuthConfig{Identity: alice, Trust: trust}); err == nil {
			t.Fatalf("attached behind relay hello %x", data)
		}
		<-done
	})
}

// FuzzOpenBody fuzzes the open/open-OK body decode exactly as dispatch
// performs it: originator ID, window, end-to-end exchange blob, purpose.
// A body is either rejected or yields a positive window and a known
// purpose, and the result encodes to exactly the body it arrived as —
// one encoding per open, never an unbounded sender, never a link of
// unknown use.
func FuzzOpenBody(f *testing.F) {
	f.Add(wire.AppendString(nil, "pool/alice")) // truncated: no window
	f.Add(appendOpenBody(nil, "pool/alice", 256<<10, nil))
	if id, err := identity.Generate("pool/alice"); err == nil {
		if offer, err := identity.OfferLink(id, "pool/alice", "pool/bob", 3); err == nil {
			f.Add(appendPurpose(appendOpenBody(nil, "pool/alice", DefaultWindowBytes, offer.Blob()), PurposeData, 3))
		}
	}
	f.Add(append(appendOpenBody(nil, "pool/alice", 256<<10, nil), PurposeService))
	f.Add([]byte{})
	f.Add([]byte{0x02, 'h', 'i', 0x80})

	f.Fuzz(func(t *testing.T, data []byte) {
		from, window, blob, purpose, conv, err := decodeOpenBody(data)
		if err != nil {
			return
		}
		if enc := appendPurpose(appendOpenBody(nil, from, window, blob), purpose, conv); !bytes.Equal(enc, data) {
			t.Fatalf("%x decodes to a body that encodes to %x", data, enc)
		}
		if window <= 0 {
			t.Fatalf("accepted a body with window %d", window)
		}
		if purpose != 0 && purpose != PurposeService && purpose != PurposeData {
			t.Fatalf("accepted a body with purpose %d", purpose)
		}
		if len(blob) > 0 {
			// The blob decode inside AcceptLink must never panic either;
			// verification failures are expected.
			bob, err := identity.Generate("pool/bob")
			if err != nil {
				t.Skip()
			}
			ts := identity.NewTrustStore()
			_, _, _ = identity.AcceptLink(bob, ts, from, "pool/bob", 1, blob)
		}
	})
}
