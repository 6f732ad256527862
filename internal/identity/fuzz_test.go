package identity

// Native fuzz targets for the identity layer's decoders: announcements,
// handshake hellos and proofs, link exchange blobs and sealed registry
// records all arrive from the network (or the registry) and must never
// panic, over-read or verify anything forged.

import (
	"bytes"
	"testing"

	"netibis/internal/wire"
)

func FuzzDecodeAnnounce(f *testing.F) {
	if id, err := Generate("pool/alice"); err == nil {
		f.Add(AppendAnnounce(nil, id.Announce()))
	}
	f.Add([]byte{})
	f.Add([]byte{0x20, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := wire.NewDecoder(data)
		a, err := DecodeAnnounce(d)
		if err != nil {
			return
		}
		_ = a
	})
}

func FuzzDecodeLinkBlob(f *testing.F) {
	if id, err := Generate("pool/alice"); err == nil {
		if offer, err := OfferLink(id, "pool/alice", "pool/bob", 3); err == nil {
			f.Add(offer.Blob())
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x20})

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := decodeLinkBlob(data); err != nil {
			return
		}
		// A decodable blob must still never verify against an empty
		// trust store.
		bob, err := Generate("pool/bob")
		if err != nil {
			t.Skip()
		}
		if _, _, err := AcceptLink(bob, NewTrustStore(), "pool/alice", "pool/bob", 3, data); err == nil {
			t.Fatal("arbitrary blob passed AcceptLink verification")
		}
	})
}

func FuzzVerifyRecord(f *testing.F) {
	if id, err := Generate("relay-0"); err == nil {
		f.Add(SealRecord(id, "overlay/relay/relay-0", []byte("10.0.0.1:4500")))
	}
	f.Add([]byte("raw value"))
	f.Add([]byte("NIS1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Unwrap must never panic and always return something.
		_ = UnwrapRecord(data)
		// Verification against an empty trust store must always fail.
		if _, err := VerifyRecord(NewTrustStore(), "relay-0", "overlay/relay/relay-0", data); err == nil {
			t.Fatal("arbitrary record verified against empty trust store")
		}
	})
}

// FuzzVerifyAttachNode throws arbitrary announce/signature bytes at the
// handshake verifier, for both purposes and both roles, under a
// *populated* trust store: nothing but the real signer may pass.
func FuzzVerifyAttachNode(f *testing.F) {
	f.Add([]byte("pubkey000000000000000000000000ww"), []byte("cert"), []byte("sig"))
	f.Fuzz(func(t *testing.T, pub, cert, sig []byte) {
		ca, err := NewAuthority()
		if err != nil {
			t.Skip()
		}
		ts := ca.TrustStore()
		a := Announce{Public: pub, Cert: cert}
		for _, p := range []Purpose{Attach, PeerLink} {
			tr := Transcript{Purpose: p, InitID: "pool/alice", RespID: "relay-0", NonceI: make([]byte, NonceSize), NonceR: make([]byte, NonceSize)}
			for _, role := range []Role{Initiator, Responder} {
				if err := tr.Verify(ts, role, a, sig); err == nil {
					t.Fatal("forged announce/signature verified")
				}
			}
		}
	})
}

// FuzzDecodeHello: a hello decodes only in its one encoding, with a
// nonce of NonceSize or none, and a decoded one encodes to exactly the
// bytes it arrived as.
func FuzzDecodeHello(f *testing.F) {
	if id, err := Generate("relay-0"); err == nil {
		nonce, _ := NewNonce()
		f.Add(AppendHello(nil, Hello{ID: "pool/alice", Nonce: nonce, Announce: id.Announce()}))
		f.Add(AppendHello(nil, Hello{ID: "relay-0", Announce: id.Announce(), Sig: []byte("sig")}))
	}
	f.Add(AppendHello(nil, Hello{ID: "pool/alice"}))
	f.Add([]byte{})
	f.Add([]byte{0x01, 'x', 0x00, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHello(data)
		if err != nil {
			return
		}
		if len(h.Nonce) != 0 && len(h.Nonce) != NonceSize {
			t.Fatalf("accepted a %d-byte nonce", len(h.Nonce))
		}
		if again := AppendHello(nil, h); !bytes.Equal(again, data) {
			t.Fatalf("hello %x re-encodes as %x", data, again)
		}
	})
}

// FuzzDecodeProof: a proof decodes only in its one encoding.
func FuzzDecodeProof(f *testing.F) {
	f.Add(AppendProof(nil, Proof{Echo: make([]byte, NonceSize), Sig: []byte("sig")}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProof(data)
		if err != nil {
			return
		}
		if again := AppendProof(nil, p); !bytes.Equal(again, data) {
			t.Fatalf("proof %x re-encodes as %x", data, again)
		}
	})
}
