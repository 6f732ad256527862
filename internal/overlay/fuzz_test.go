package overlay

// Native fuzz targets for the overlay's hand-rolled decoders: directory
// gossip, forward envelopes, NACKs and the peer-link hello — everything
// a (possibly malicious) peer relay can put on a peer link. None may
// panic or over-read on arbitrary bytes.

import (
	"bytes"
	"testing"

	"netibis/internal/identity"
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

// TestPeerHelloStrictDecode: the hello has one layout per mode. Without
// its last field, with a trailing byte or with an unknown mode it is a
// handshake error — never an anonymous peer inferred from a short body.
func TestPeerHelloStrictDecode(t *testing.T) {
	id, err := identity.Generate("relay-1")
	if err != nil {
		t.Fatal(err)
	}
	nonce, _ := identity.NewNonce()
	name := wire.AppendString(nil, "relay-1")
	for _, tc := range []struct {
		mode     string
		full     []byte
		lastSize int // encoded size of the body's last field
	}{
		{"anonymous", encodePeerHello("relay-1", nil, nil, nil), 1},
		{"authenticated", encodePeerHello("relay-1", id, nonce, []byte("sig")), 1 + len("sig")},
	} {
		if h, err := decodePeerHello(tc.full); err != nil || h.id != "relay-1" {
			t.Errorf("%s: canonical hello rejected: %v", tc.mode, err)
		}
		if _, err := decodePeerHello(tc.full[:len(tc.full)-tc.lastSize]); err == nil {
			t.Errorf("%s: hello without its last field accepted", tc.mode)
		}
		if _, err := decodePeerHello(append(append([]byte(nil), tc.full...), 0)); err == nil {
			t.Errorf("%s: hello with a trailing byte accepted", tc.mode)
		}
	}
	if _, err := decodePeerHello(wire.AppendUvarint(name, identity.AuthVersion+1)); err == nil {
		t.Error("hello with an unknown authentication mode accepted")
	}
}

func FuzzDecodePeerHello(f *testing.F) {
	f.Add(encodePeerHello("relay-1", nil, nil, nil))
	if id, err := identity.Generate("relay-1"); err == nil {
		nonce, _ := identity.NewNonce()
		f.Add(encodePeerHello("relay-1", id, nonce, nil))
		f.Add(encodePeerHello("relay-1", id, nonce, []byte("sig")))
	}
	f.Add([]byte{})
	f.Add([]byte{0x01, 'x', 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := decodePeerHello(data)
		if err != nil {
			return
		}
		if h.id == "" {
			t.Fatal("accepted hello with empty ID")
		}
	})
}
