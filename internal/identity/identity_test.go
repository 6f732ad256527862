package identity

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"netibis/internal/wire"
)

func TestSaveLoadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	a, err := NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	id, err := a.Issue("pool/alice")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "keys", "alice.id")
	if err := id.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != id.Name || !bytes.Equal(got.Public, id.Public) ||
		!bytes.Equal(got.Private, id.Private) || !bytes.Equal(got.Cert, id.Cert) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, id)
	}
}

func TestLoadOrGenerate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.id")
	id1, created, err := LoadOrGenerate(path, "pool/bob")
	if err != nil || !created {
		t.Fatalf("first LoadOrGenerate: created=%v err=%v", created, err)
	}
	id2, created, err := LoadOrGenerate(path, "pool/bob")
	if err != nil || created {
		t.Fatalf("second LoadOrGenerate: created=%v err=%v", created, err)
	}
	if !bytes.Equal(id1.Private, id2.Private) {
		t.Fatal("persisted identity differs from generated one")
	}
}

func TestTrustStoreVerifyPeer(t *testing.T) {
	ca, _ := NewAuthority()
	alice, _ := ca.Issue("pool/alice")
	bob, _ := ca.Issue("pool/bob")
	mallory, _ := Generate("pool/mallory") // self-generated, uncertified

	caTrust := ca.TrustStore()
	if err := caTrust.VerifyPeer("pool/alice", alice.Public, alice.Cert); err != nil {
		t.Fatalf("CA-certified identity rejected: %v", err)
	}
	// Bob presenting his own (valid) identity under Alice's name: the cert
	// binds pool/bob, so the claim fails.
	if err := caTrust.VerifyPeer("pool/alice", bob.Public, bob.Cert); !errors.Is(err, ErrUnknownIdentity) {
		t.Fatalf("spoofed claim with foreign cert: got %v", err)
	}
	if err := caTrust.VerifyPeer("pool/mallory", mallory.Public, mallory.Cert); !errors.Is(err, ErrUnknownIdentity) {
		t.Fatalf("uncertified identity: got %v", err)
	}

	pinTrust := NewTrustStore()
	pinTrust.Pin("pool/alice", alice.Public)
	pinTrust.Pin("pool/bob", bob.Public)
	if err := pinTrust.VerifyPeer("pool/alice", alice.Public, nil); err != nil {
		t.Fatalf("pinned identity rejected: %v", err)
	}
	// Bob claiming Alice's pinned name with his own pinned key: mismatch,
	// not unknown.
	if err := pinTrust.VerifyPeer("pool/alice", bob.Public, nil); !errors.Is(err, ErrIdentityMismatch) {
		t.Fatalf("pinned spoof: got %v", err)
	}
	// Bob claiming an unpinned name with his pinned key: still a mismatch.
	if err := pinTrust.VerifyPeer("pool/carol", bob.Public, nil); !errors.Is(err, ErrIdentityMismatch) {
		t.Fatalf("pinned key under foreign name: got %v", err)
	}
	if err := pinTrust.VerifyPeer("pool/mallory", mallory.Public, nil); !errors.Is(err, ErrUnknownIdentity) {
		t.Fatalf("unpinned identity: got %v", err)
	}
}

func TestTrustStorePersistence(t *testing.T) {
	ca, _ := NewAuthority()
	alice, _ := Generate("pool/alice")
	ts := ca.TrustStore()
	ts.Pin("pool/alice", alice.Public)
	path := filepath.Join(t.TempDir(), "trust")
	if err := ts.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrust(path)
	if err != nil {
		t.Fatal(err)
	}
	issued, _ := ca.Issue("pool/carl")
	if err := got.VerifyPeer("pool/carl", issued.Public, issued.Cert); err != nil {
		t.Fatalf("loaded trust store rejects CA-issued identity: %v", err)
	}
	if err := got.VerifyPeer("pool/alice", alice.Public, nil); err != nil {
		t.Fatalf("loaded trust store rejects pinned identity: %v", err)
	}
}

// TestAttachHandshakeSignatures: checkHandshakeSignatures for the
// attach handshake of a node to its relay.
func TestAttachHandshakeSignatures(t *testing.T) {
	checkHandshakeSignatures(t, Attach, "pool/alice", "relay-0")
}

// TestPeerHandshakeSignatures: checkHandshakeSignatures for the link
// handshake between two relays.
func TestPeerHandshakeSignatures(t *testing.T) {
	checkHandshakeSignatures(t, PeerLink, "relay-a", "relay-b")
}

// checkHandshakeSignatures: for each role, a proof of purpose p verifies
// against its own transcript only — not against a fresh nonce of the
// verifier's (a replay), not as the other role's proof (cross-context),
// not under the other purpose (cross-purpose), and not when made with
// another key (foreign key).
func checkHandshakeSignatures(t *testing.T, p Purpose, initID, respID string) {
	t.Helper()
	ca, _ := NewAuthority()
	ids := map[Role]*Identity{}
	ids[Initiator], _ = ca.Issue(initID)
	ids[Responder], _ = ca.Issue(respID)
	ts := ca.TrustStore()
	ni, _ := NewNonce()
	nr, _ := NewNonce()
	fresh, _ := NewNonce()

	for _, role := range []Role{Initiator, Responder} {
		other := Initiator + Responder - role
		tr := Transcript{Purpose: p, InitID: initID, RespID: respID, NonceI: ni, NonceR: nr}
		sig := tr.Sign(ids[role], role)
		// The verifier's own nonce is the other side's.
		replay := tr
		if role == Initiator {
			replay.NonceR = fresh
		} else {
			replay.NonceI = fresh
		}
		crossPurpose := tr
		crossPurpose.Purpose = Attach + PeerLink - p
		for _, c := range []struct {
			name string
			tr   Transcript
			role Role
			a    Announce
			sig  []byte
			want error
		}{
			{"genuine", tr, role, ids[role].Announce(), sig, nil},
			{"replay against a fresh nonce", replay, role, ids[role].Announce(), sig, ErrBadSignature},
			{"cross-context", tr, other, ids[other].Announce(), sig, ErrBadSignature},
			{"cross-purpose", crossPurpose, role, ids[role].Announce(), sig, ErrBadSignature},
			{"foreign key", tr, role, ids[role].Announce(), tr.Sign(ids[other], role), ErrBadSignature},
		} {
			if err := c.tr.Verify(ts, c.role, c.a, c.sig); !errors.Is(err, c.want) {
				t.Errorf("purpose %d, role %d, %s: got %v, want %v", p, role, c.name, err, c.want)
			}
		}
	}
}

// TestHandshakeStrictDecode: each handshake body decodes in its
// canonical encoding only; the same bytes without the last field, with a
// trailing byte, with an unknown mode or with a nonce of another size
// are malformed — never an anonymous peer inferred from a short body.
func TestHandshakeStrictDecode(t *testing.T) {
	id, _ := Generate("relay-0")
	nonce, _ := NewNonce()
	hello := func(p []byte) error { _, err := DecodeHello(p); return err }
	proof := func(p []byte) error { _, err := DecodeProof(p); return err }
	for _, c := range []struct {
		body     string
		full     []byte
		lastSize int // encoded size of the body's last field
		decode   func([]byte) error
	}{
		{"hello/anonymous", AppendHello(nil, Hello{ID: "pool/alice"}), 1, hello},
		{"hello/asking", AppendHello(nil, Hello{ID: "pool/alice", Nonce: nonce}), 1, hello},
		{"hello/identified", AppendHello(nil, Hello{ID: "relay-0", Nonce: nonce, Announce: id.Announce()}), 1, hello},
		{"hello/signed", AppendHello(nil, Hello{ID: "relay-0", Announce: id.Announce(), Sig: []byte("sig")}), 1 + len("sig"), hello},
		{"proof", AppendProof(nil, Proof{Echo: nonce, Sig: []byte("sig")}), 1 + len("sig"), proof},
	} {
		if err := c.decode(c.full); err != nil {
			t.Errorf("%s: canonical body rejected: %v", c.body, err)
		}
		if err := c.decode(c.full[:len(c.full)-c.lastSize]); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: body without its last field: %v", c.body, err)
		}
		if err := c.decode(append(append([]byte(nil), c.full...), 0)); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: body with a trailing byte: %v", c.body, err)
		}
	}
	name := wire.AppendBytes(wire.AppendString(nil, "pool/alice"), nil)
	if _, err := DecodeHello(wire.AppendUvarint(name, AuthVersion+1)); !errors.Is(err, ErrMalformed) {
		t.Errorf("hello with an unknown mode: %v", err)
	}
	if _, err := DecodeHello(AppendAnnounce(wire.AppendUvarint(name, AuthVersion), Announce{})); !errors.Is(err, ErrMalformed) {
		t.Errorf("identified hello without a key: %v", err)
	}
	short := AppendHello(nil, Hello{ID: "pool/alice", Nonce: nonce[:NonceSize-1]})
	if _, err := DecodeHello(short); !errors.Is(err, ErrMalformed) {
		t.Errorf("hello with a %d-byte nonce: %v", NonceSize-1, err)
	}
}

func TestLinkExchange(t *testing.T) {
	ca, _ := NewAuthority()
	alice, _ := ca.Issue("pool/alice")
	bob, _ := ca.Issue("pool/bob")
	ts := ca.TrustStore()

	offer, err := OfferLink(alice, "pool/alice", "pool/bob", 7)
	if err != nil {
		t.Fatal(err)
	}
	bobKeys, answer, err := AcceptLink(bob, ts, "pool/alice", "pool/bob", 7, offer.Blob())
	if err != nil {
		t.Fatal(err)
	}
	aliceKeys, err := offer.CompleteLink(ts, answer)
	if err != nil {
		t.Fatal(err)
	}

	msg := []byte("the relay must never see this")
	rec := aliceKeys.Seal(make([]byte, 0, len(msg)+SealOverhead), 1, msg)
	if bytes.Contains(rec, msg) {
		t.Fatal("sealed record contains plaintext")
	}
	pt, seq, err := bobKeys.Open(nil, rec)
	if err != nil || seq != 1 || !bytes.Equal(pt, msg) {
		t.Fatalf("open: pt=%q seq=%d err=%v", pt, seq, err)
	}
	// Directional keys: a record sealed by Bob must not open under Bob's
	// own opening key (i.e. reflected traffic fails).
	recB := bobKeys.Seal(nil, 1, msg)
	if _, _, err := bobKeys.Open(nil, recB); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("reflected record: got %v", err)
	}
	pt, _, err = aliceKeys.Open(nil, recB)
	if err != nil || !bytes.Equal(pt, msg) {
		t.Fatalf("bob->alice record: %v", err)
	}
	// Tampered ciphertext fails.
	rec[len(rec)-1] ^= 1
	if _, _, err := bobKeys.Open(nil, rec); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered record: got %v", err)
	}
}

func TestLinkExchangeAdversarial(t *testing.T) {
	ca, _ := NewAuthority()
	alice, _ := ca.Issue("pool/alice")
	bob, _ := ca.Issue("pool/bob")
	mallory, _ := Generate("pool/mallory")
	ts := ca.TrustStore()

	// Offer signed by an untrusted identity is rejected by the acceptor.
	badOffer, err := OfferLink(mallory, "pool/alice", "pool/bob", 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := AcceptLink(bob, ts, "pool/alice", "pool/bob", 3, badOffer.Blob()); !errors.Is(err, ErrUnknownIdentity) {
		t.Fatalf("untrusted offer: got %v", err)
	}

	// An offer re-targeted at another channel fails the signature (channel
	// binding).
	offer, _ := OfferLink(alice, "pool/alice", "pool/bob", 3)
	if _, _, err := AcceptLink(bob, ts, "pool/alice", "pool/bob", 4, offer.Blob()); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("re-targeted offer: got %v", err)
	}

	// An answer from a different exchange does not complete this offer
	// (the answer signature covers the exact offer blob).
	offer2, _ := OfferLink(alice, "pool/alice", "pool/bob", 3)
	_, answer2, err := AcceptLink(bob, ts, "pool/alice", "pool/bob", 3, offer2.Blob())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := offer.CompleteLink(ts, answer2); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("mixed-exchange answer: got %v", err)
	}

	// Garbage blobs are malformed, not a panic.
	if _, _, err := AcceptLink(bob, ts, "a", "b", 0, []byte{0xff, 0x01}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("garbage offer: got %v", err)
	}
	if _, err := offer.CompleteLink(ts, []byte{0x00}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("garbage answer: got %v", err)
	}
}

func TestSignedRecords(t *testing.T) {
	ca, _ := NewAuthority()
	relay, _ := ca.Issue("relay-a")
	other, _ := ca.Issue("relay-b")
	ts := ca.TrustStore()

	key := "overlay/relay/relay-a"
	sealed := SealRecord(relay, key, []byte("10.0.0.1:4500"))
	val, err := VerifyRecord(ts, "relay-a", key, sealed)
	if err != nil || string(val) != "10.0.0.1:4500" {
		t.Fatalf("verify: val=%q err=%v", val, err)
	}
	// A different (valid!) identity cannot claim the record.
	forged := SealRecord(other, key, []byte("6.6.6.6:4500"))
	if _, err := VerifyRecord(ts, "relay-a", key, forged); !errors.Is(err, ErrUnknownIdentity) {
		t.Fatalf("foreign-signed record: got %v", err)
	}
	// A record copied under a different key fails (key is in the
	// transcript).
	if _, err := VerifyRecord(ts, "relay-a", "overlay/relay/other", sealed); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("cross-key replay: got %v", err)
	}
	// Raw values surface as unsigned.
	if _, err := VerifyRecord(ts, "relay-a", key, []byte("raw")); !errors.Is(err, ErrUnsignedRecord) {
		t.Fatalf("raw record: got %v", err)
	}
	if got := UnwrapRecord(sealed); string(got) != "10.0.0.1:4500" {
		t.Fatalf("unwrap sealed: %q", got)
	}
	if got := UnwrapRecord([]byte("raw")); string(got) != "raw" {
		t.Fatalf("unwrap raw: %q", got)
	}
}

func TestRegistryVerifier(t *testing.T) {
	ca, _ := NewAuthority()
	relay, _ := ca.Issue("relay-a")
	node, _ := ca.Issue("pool/alice")
	outsider, _ := Generate("relay-x")
	ts := ca.TrustStore()
	verify := RegistryVerifier(ts)

	if err := verify("overlay/relay/relay-a", SealRecord(relay, "overlay/relay/relay-a", []byte("addr"))); err != nil {
		t.Fatalf("valid relay record: %v", err)
	}
	if err := verify("overlay/relay/relay-a", []byte("addr")); !errors.Is(err, ErrUnsignedRecord) {
		t.Fatalf("unsigned relay record: got %v", err)
	}
	if err := verify("overlay/relay/relay-a", SealRecord(node, "overlay/relay/relay-a", []byte("addr"))); !errors.Is(err, ErrUnknownIdentity) {
		t.Fatalf("relay record signed by a node identity: got %v", err)
	}
	if err := verify("overlay/relay/relay-x", SealRecord(outsider, "overlay/relay/relay-x", []byte("addr"))); !errors.Is(err, ErrUnknownIdentity) {
		t.Fatalf("relay record signed by untrusted identity: got %v", err)
	}
	if err := verify("pool/node/alice", SealRecord(node, "pool/node/alice", []byte("rec"))); err != nil {
		t.Fatalf("valid node record: %v", err)
	}
	if err := verify("pool/node/alice", []byte("rec")); !errors.Is(err, ErrUnsignedRecord) {
		t.Fatalf("unsigned node record: got %v", err)
	}
	// App-level records may stay raw.
	if err := verify("pool/port/result", []byte("alice")); err != nil {
		t.Fatalf("raw app record: %v", err)
	}
	// But a sealed app record must verify.
	sealed := SealRecord(node, "pool/port/result", []byte("alice"))
	if err := verify("pool/port/result", sealed); err != nil {
		t.Fatalf("sealed app record: %v", err)
	}
	tampered := append([]byte(nil), sealed...)
	tampered[len(tampered)-1] ^= 1
	if err := verify("pool/port/result", tampered); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered app record: got %v", err)
	}
}

func TestRecordSigner(t *testing.T) {
	cases := []struct {
		key       string
		signer    string
		mandatory bool
	}{
		{"overlay/relay/relay-0", "relay-0", true},
		{"mypool/node/alice", "mypool/alice", true},
		{"mypool/port/results", "", false},
		{"overlay/relay/", "", false},
		{"unrelated", "", false},
	}
	for _, c := range cases {
		signer, mandatory := RecordSigner(c.key)
		if signer != c.signer || mandatory != c.mandatory {
			t.Errorf("RecordSigner(%q) = (%q, %v), want (%q, %v)", c.key, signer, mandatory, c.signer, c.mandatory)
		}
	}
}
