package identity

// End-to-end key agreement for relay-routed virtual links. The two
// endpoints of a routed link run an identity-signed X25519 exchange
// carried inside the open/open-OK bodies (which relays forward opaquely)
// and derive one AEAD subkey per direction. Routed payload frames sealed
// under those keys cross every relay of the mesh as ciphertext: the
// relays keep forwarding by the cleartext (dst, channel) header exactly
// as before, blind to the payload.
//
// Offer (appended to the routed open body, after the receive window):
//
//	ephPub   bytes    X25519 ephemeral public key
//	nonce    bytes    fresh random
//	announce          identity public key + cert
//	sig      bytes    Sign(ctxLinkOffer, H(initID ‖ respID ‖ channel ‖ ephPub ‖ nonce ‖ pub))
//
// Answer (appended to the open-OK body, same layout); its signature
// additionally covers the SHA-256 of the complete offer blob, so a
// middleman cannot mix and match halves of different exchanges:
//
//	sig = Sign(ctxLinkAccept, H(H(offer) ‖ initID ‖ respID ‖ channel ‖ ephPub ‖ nonce ‖ pub))
//
// There is one kind of exchange and one record format, so nothing is
// negotiated: a peer that can seal seals, and one that meets an open or
// open-OK without its half fails (package relay).
//
// Key schedule: HKDF-SHA256(ikm = X25519 shared secret,
// salt = nonceI ‖ nonceR, info = "netibis/link-aead/v1 " + direction)
// yields a 32-byte AES-256-GCM key per direction, and with info
// "netibis/link-aead/v1 exporter" a third output that keys nothing on the
// link itself: Export derives the keys for uses outside it.
//
// Record format (the sealed payload of a routed data frame):
//
//	seq uint64 big-endian ‖ AES-GCM ciphertext (nonce = 0⁴ ‖ seq)
//
// The sequence number is explicit so the link survives relay failover:
// frames lost with a dead relay leave a gap, and the receiver accepts
// any strictly increasing sequence (rejecting equal-or-older, which
// blocks replays and reorders) instead of desynchronising a counter.

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hkdf"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"

	"netibis/internal/wire"
)

// SealOverhead is the per-record byte overhead of a sealed link frame:
// the explicit sequence number plus the AEAD tag.
const SealOverhead = 8 + 16

// LinkOffer is the initiator's half-open exchange: the ephemeral private
// key is kept here until the answer arrives.
type LinkOffer struct {
	initID  string
	respID  string
	channel uint64
	eph     *ecdh.PrivateKey
	nonce   []byte
	blob    []byte // the encoded offer, hashed into the answer signature
}

// Blob returns the offer's wire encoding (appended to the open body).
func (o *LinkOffer) Blob() []byte { return o.blob }

// linkTranscript is the byte string a link signature covers (minus the
// answer's offer-hash prefix).
func linkTranscript(initID, respID string, channel uint64, ephPub, nonce []byte, pub []byte) []byte {
	t := wire.AppendString(nil, initID)
	t = wire.AppendString(t, respID)
	t = wire.AppendUvarint(t, channel)
	t = wire.AppendBytes(t, ephPub)
	t = wire.AppendBytes(t, nonce)
	t = wire.AppendBytes(t, pub)
	return t
}

// linkBlob is the decoded form of an offer or answer blob.
type linkBlob struct {
	ephPub   []byte
	nonce    []byte
	announce Announce
	sig      []byte
}

func appendLinkBlob(dst []byte, ephPub, nonce []byte, a Announce, sig []byte) []byte {
	dst = wire.AppendBytes(dst, ephPub)
	dst = wire.AppendBytes(dst, nonce)
	dst = AppendAnnounce(dst, a)
	dst = wire.AppendBytes(dst, sig)
	return dst
}

func decodeLinkBlob(p []byte) (linkBlob, error) {
	d := wire.NewDecoder(p)
	var b linkBlob
	b.ephPub = append([]byte(nil), d.Bytes()...)
	b.nonce = append([]byte(nil), d.Bytes()...)
	a, err := DecodeAnnounce(d)
	if err != nil {
		return linkBlob{}, err
	}
	b.announce = a
	b.sig = append([]byte(nil), d.Bytes()...)
	if d.Err() != nil || d.Remaining() != 0 {
		return linkBlob{}, ErrMalformed
	}
	return b, nil
}

// OfferLink starts the initiator's half of the exchange for the link
// (initID -> respID, channel).
func OfferLink(id *Identity, initID, respID string, channel uint64) (*LinkOffer, error) {
	if id == nil {
		return nil, ErrNoIdentity
	}
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	nonce, err := NewNonce()
	if err != nil {
		return nil, err
	}
	sig := id.sign(ctxLinkOffer, linkTranscript(initID, respID, channel, eph.PublicKey().Bytes(), nonce, id.Public))
	blob := appendLinkBlob(nil, eph.PublicKey().Bytes(), nonce, id.Announce(), sig)
	return &LinkOffer{initID: initID, respID: respID, channel: channel, eph: eph, nonce: nonce, blob: blob}, nil
}

// LinkKeys is a routed link's established end-to-end state: one sealing
// AEAD (our sends), one opening AEAD (the peer's sends), the exporter
// secret (see Export) and the authenticated peer key for diagnostics.
//
// Each direction keeps its nonce in the struct (a local would escape
// into the AEAD interface, one allocation per record), so Seal calls must
// not run concurrently with each other, nor Open calls with each other; a
// routed link serialises its sends under its send lock and its receives
// under its link lock.
type LinkKeys struct {
	seal      cipher.AEAD
	open      cipher.AEAD
	sealNonce [12]byte
	openNonce [12]byte
	exporter  []byte
	// PeerPublic is the peer's authenticated identity key.
	PeerPublic []byte
}

// deriveLinkKeys computes the two directional AEADs from the X25519
// shared secret and the exchange nonces.
func deriveLinkKeys(shared, nonceI, nonceR []byte, initiator bool) (*LinkKeys, error) {
	salt := append(append([]byte(nil), nonceI...), nonceR...)
	mk := func(dir string) (cipher.AEAD, error) {
		key, err := hkdf.Key(sha256.New, shared, salt, "netibis/link-aead/v1 "+dir, 32)
		if err != nil {
			return nil, err
		}
		block, err := aes.NewCipher(key)
		if err != nil {
			return nil, err
		}
		return cipher.NewGCM(block)
	}
	i2r, err := mk("i2r")
	if err != nil {
		return nil, err
	}
	r2i, err := mk("r2i")
	if err != nil {
		return nil, err
	}
	exporter, err := hkdf.Key(sha256.New, shared, salt, "netibis/link-aead/v1 exporter", 32)
	if err != nil {
		return nil, err
	}
	if initiator {
		return &LinkKeys{seal: i2r, open: r2i, exporter: exporter}, nil
	}
	return &LinkKeys{seal: r2i, open: i2r, exporter: exporter}, nil
}

// Export derives a 32-byte key, bound to label, for a use outside the
// link. Both ends of the link compute the same bytes; no other link, not
// even another one between the same two nodes, does. It is nil if the
// derivation fails, which every consumer treats as "no key".
func (k *LinkKeys) Export(label string) []byte {
	key, _ := hkdf.Key(sha256.New, k.exporter, nil, "netibis/link-export/v1 "+label, 32)
	return key // nil on error
}

// AcceptLink runs the acceptor's half: verify the offer's identity and
// signature against the acceptor's own view of (initID, respID, channel),
// derive the directional keys and produce the signed answer blob for the
// open-OK body.
func AcceptLink(id *Identity, ts *TrustStore, initID, respID string, channel uint64, offerBlob []byte) (*LinkKeys, []byte, error) {
	if id == nil {
		return nil, nil, ErrNoIdentity
	}
	offer, err := decodeLinkBlob(offerBlob)
	if err != nil {
		return nil, nil, err
	}
	if err := ts.VerifyPeer(initID, offer.announce.Public, offer.announce.Cert); err != nil {
		return nil, nil, err
	}
	if !verifySig(offer.announce.Public, ctxLinkOffer,
		linkTranscript(initID, respID, channel, offer.ephPub, offer.nonce, offer.announce.Public), offer.sig) {
		return nil, nil, ErrBadSignature
	}
	peerEph, err := ecdh.X25519().NewPublicKey(offer.ephPub)
	if err != nil {
		return nil, nil, ErrMalformed
	}
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, err
	}
	shared, err := eph.ECDH(peerEph)
	if err != nil {
		return nil, nil, ErrMalformed
	}
	nonce, err := NewNonce()
	if err != nil {
		return nil, nil, err
	}
	offerSum := sha256.Sum256(offerBlob)
	t := wire.AppendBytes(nil, offerSum[:])
	t = append(t, linkTranscript(initID, respID, channel, eph.PublicKey().Bytes(), nonce, id.Public)...)
	sig := id.sign(ctxLinkAccept, t)
	answer := appendLinkBlob(nil, eph.PublicKey().Bytes(), nonce, id.Announce(), sig)
	keys, err := deriveLinkKeys(shared, offer.nonce, nonce, false)
	if err != nil {
		return nil, nil, err
	}
	keys.PeerPublic = offer.announce.Public
	return keys, answer, nil
}

// CompleteLink runs the initiator's final step: verify the answer's
// identity and signature (which covers the hash of our exact offer) and
// derive the directional keys.
func (o *LinkOffer) CompleteLink(ts *TrustStore, answerBlob []byte) (*LinkKeys, error) {
	answer, err := decodeLinkBlob(answerBlob)
	if err != nil {
		return nil, err
	}
	if err := ts.VerifyPeer(o.respID, answer.announce.Public, answer.announce.Cert); err != nil {
		return nil, err
	}
	offerSum := sha256.Sum256(o.blob)
	t := wire.AppendBytes(nil, offerSum[:])
	t = append(t, linkTranscript(o.initID, o.respID, o.channel, answer.ephPub, answer.nonce, answer.announce.Public)...)
	if !verifySig(answer.announce.Public, ctxLinkAccept, t, answer.sig) {
		return nil, ErrBadSignature
	}
	peerEph, err := ecdh.X25519().NewPublicKey(answer.ephPub)
	if err != nil {
		return nil, ErrMalformed
	}
	shared, err := o.eph.ECDH(peerEph)
	if err != nil {
		return nil, ErrMalformed
	}
	keys, err := deriveLinkKeys(shared, o.nonce, answer.nonce, true)
	if err != nil {
		return nil, err
	}
	keys.PeerPublic = answer.announce.Public
	return keys, nil
}

// Seal encrypts one outgoing record and returns it appended to dst
// (allocation-free when dst has capacity for len(plaintext)+SealOverhead
// more bytes — the hot path seals into a pooled buffer sized exactly
// so). seq must be strictly increasing per link direction; the caller
// owns the counter.
func (k *LinkKeys) Seal(dst []byte, seq uint64, plaintext []byte) []byte {
	binary.BigEndian.PutUint64(k.sealNonce[4:], seq)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	return k.seal.Seal(dst, k.sealNonce[:], plaintext, nil)
}

// Open authenticates and decrypts one incoming record, appending the
// plaintext to dst and returning it together with the record's sequence
// number. It is the caller's job to enforce that sequences are strictly
// increasing (Open has no memory). record[8:8] as dst opens the record
// in place.
func (k *LinkKeys) Open(dst []byte, record []byte) (plaintext []byte, seq uint64, err error) {
	if len(record) < 8 {
		return nil, 0, ErrMalformed
	}
	seq = binary.BigEndian.Uint64(record[:8])
	binary.BigEndian.PutUint64(k.openNonce[4:], seq)
	pt, err := k.open.Open(dst, k.openNonce[:], record[8:], nil)
	if err != nil {
		return nil, seq, ErrBadSignature
	}
	return pt, seq, nil
}
