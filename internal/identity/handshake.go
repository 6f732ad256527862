package identity

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"net"
	"time"

	"netibis/internal/wire"
)

// Handshake frame kinds, in the driver-private range and disjoint from
// the relay, overlay and mux kinds that share it. The frame that opens
// an exchange is the caller's own (relay.KindAttach, the overlay's peer
// hello): it carries the initiator's hello.
const (
	KindHello   = wire.KindUser + 0x30 + iota // responder -> initiator: its hello
	KindProof                                 // initiator -> responder: its proof
	KindVerdict                               // responder -> initiator: uvarint verdict code
)

// HandshakeTimeout bounds one whole exchange, so a stalled or hostile
// peer cannot pin a goroutine between hello and proof.
const HandshakeTimeout = 10 * time.Second

// Authentication modes of a hello, written as a uvarint ahead of the
// sender's identity section, so a decoder never infers "no identity"
// from a body that merely ends early.
const (
	// AuthAnonymous: the sender has no identity and nothing follows.
	AuthAnonymous = 0
	// AuthVersion: the sender's identity section follows. Any other
	// value is malformed.
	AuthVersion = 1
)

// Purpose says which handshake a proof belongs to.
type Purpose uint8

const (
	Attach   Purpose = iota // a node attaching to a relay
	PeerLink                // a relay linking to a peer relay
)

// Role says which end of an exchange a proof comes from.
type Role uint8

const (
	Initiator Role = iota
	Responder
)

// proofContexts are the four signing contexts, one per purpose and role:
// a proof made for one can never be presented as another.
var proofContexts = [2][2]string{
	Attach:   {Initiator: "netibis/attach-initiator/v2", Responder: "netibis/attach-responder/v2"},
	PeerLink: {Initiator: "netibis/peer-initiator/v2", Responder: "netibis/peer-responder/v2"},
}

// Transcript is one exchange as a side sees it: the purpose, both
// claimed IDs and both nonces (empty when that side asked for no proof).
type Transcript struct {
	Purpose        Purpose
	InitID, RespID string
	NonceI, NonceR []byte
}

// bytes is the channel-binding string a proof signs the hash of.
func (t Transcript) bytes(signer ed25519.PublicKey) []byte {
	b := wire.AppendString(nil, t.InitID)
	b = wire.AppendString(b, t.RespID)
	b = wire.AppendBytes(b, t.NonceI)
	b = wire.AppendBytes(b, t.NonceR)
	return wire.AppendBytes(b, signer)
}

// Sign returns id's proof over the transcript, made as the side in role.
func (t Transcript) Sign(id *Identity, role Role) []byte {
	return id.sign(proofContexts[t.Purpose][role], t.bytes(id.Public))
}

// Verify checks the proof of the side in role: the trust store must bind
// that side's claimed ID to the announced key, and sig must be that
// key's proof over the transcript.
func (t Transcript) Verify(ts *TrustStore, role Role, a Announce, sig []byte) error {
	name := t.InitID
	if role == Responder {
		name = t.RespID
	}
	if err := ts.VerifyPeer(name, a.Public, a.Cert); err != nil {
		return err
	}
	if !verifySig(a.Public, proofContexts[t.Purpose][role], t.bytes(a.Public), sig) {
		return ErrBadSignature
	}
	return nil
}

// Hello is one side's opening message:
//
//	string id ‖ bytes nonce ‖ uvarint mode [‖ announce ‖ bytes sig]
//
// A nonce (empty or NonceSize bytes) asks the other side for a proof
// over it. The bracketed section follows mode AuthVersion; sig is the
// responder's proof when it was asked for one, and empty otherwise.
type Hello struct {
	ID       string
	Nonce    []byte
	Announce Announce
	Sig      []byte
}

// AppendHello appends h's encoding.
func AppendHello(dst []byte, h Hello) []byte {
	dst = wire.AppendString(dst, h.ID)
	dst = wire.AppendBytes(dst, h.Nonce)
	if len(h.Announce.Public) == 0 {
		return wire.AppendUvarint(dst, AuthAnonymous)
	}
	dst = wire.AppendUvarint(dst, AuthVersion)
	dst = AppendAnnounce(dst, h.Announce)
	return wire.AppendBytes(dst, h.Sig)
}

// DecodeHello parses a hello. Its slices are copies.
func DecodeHello(p []byte) (Hello, error) {
	d := wire.NewDecoder(p)
	h := Hello{ID: d.String(), Nonce: append([]byte(nil), d.Bytes()...)}
	switch d.Uvarint() { // 0 on a decode error, which the final check reports
	case AuthAnonymous:
	case AuthVersion:
		a, err := DecodeAnnounce(d)
		if err != nil || len(a.Public) == 0 {
			return Hello{}, ErrMalformed
		}
		h.Announce = a
		h.Sig = append([]byte(nil), d.Bytes()...)
	default:
		return Hello{}, ErrMalformed
	}
	if d.Err() != nil || d.Remaining() != 0 || (len(h.Nonce) != 0 && len(h.Nonce) != NonceSize) {
		return Hello{}, ErrMalformed
	}
	return h, nil
}

// Proof is the initiator's answer to a responder that asked for one:
// bytes echo ‖ bytes sig, the echo being the nonce it signed.
type Proof struct {
	Echo, Sig []byte
}

// AppendProof appends p's encoding.
func AppendProof(dst []byte, p Proof) []byte {
	return wire.AppendBytes(wire.AppendBytes(dst, p.Echo), p.Sig)
}

// DecodeProof parses a proof. Its slices are copies.
func DecodeProof(p []byte) (Proof, error) {
	d := wire.NewDecoder(p)
	pr := Proof{Echo: append([]byte(nil), d.Bytes()...), Sig: append([]byte(nil), d.Bytes()...)}
	if d.Err() != nil || d.Remaining() != 0 {
		return Proof{}, ErrMalformed
	}
	return pr, nil
}

// NumVerdicts is the number of verdict codes: 0 accepts, the others
// name the check a refused handshake failed.
const NumVerdicts = 7

var (
	verdictErrs  = [NumVerdicts]error{nil, ErrAuthRequired, ErrUnknownIdentity, ErrIdentityMismatch, ErrBadSignature, ErrReplayedNonce, ErrMalformed}
	verdictNames = [NumVerdicts]string{"ok", "auth_required", "unknown_identity", "identity_mismatch", "bad_signature", "replay", "malformed"}
)

// VerdictName names verdict code c, for metrics and traces.
func VerdictName(c int) string { return verdictNames[c] }

// VerdictCode returns the verdict code a handshake error is refused
// with, and false for an error no verdict names (a broken connection).
func VerdictCode(err error) (int, bool) {
	for c := 1; c < NumVerdicts; c++ {
		if errors.Is(err, verdictErrs[c]) {
			return c, true
		}
	}
	return 0, false
}

// sendVerdict writes the verdict on err and returns err, or the write's
// error when it accepted. Only a nil err accepts: one no verdict names
// refuses as a bad signature.
func sendVerdict(w *wire.Writer, err error) error {
	c, named := VerdictCode(err)
	if err != nil && !named {
		c, _ = VerdictCode(ErrBadSignature)
	}
	werr := w.WriteFrame(KindVerdict, 0, wire.AppendUvarint(nil, uint64(c)))
	if err == nil {
		return werr
	}
	return err
}

// verdictErr decodes a verdict: nil when it accepts, the typed error of
// the failed check when it refuses.
func verdictErr(p []byte) error {
	d := wire.NewDecoder(p)
	c := d.Uvarint()
	if d.Err() != nil || d.Remaining() != 0 || c >= NumVerdicts {
		return ErrMalformed
	}
	if c == 0 {
		return nil
	}
	return fmt.Errorf("identity: handshake refused: %w", verdictErrs[c])
}

// Side is one end's part in a handshake: the ID it claims, the identity
// that proves it (nil: anonymous) and the trust store the other end
// must prove a trusted identity to (nil: no proof is asked for).
type Side struct {
	ID       string
	Identity *Identity
	Trust    *TrustStore
}

// hello builds the side's hello without a proof.
func (s Side) hello() (Hello, error) {
	h := Hello{ID: s.ID}
	if s.Trust != nil {
		n, err := NewNonce()
		if err != nil {
			return Hello{}, err
		}
		h.Nonce = n
	}
	if s.Identity != nil {
		h.Announce = s.Identity.Announce()
	}
	return h, nil
}

// Initiate runs the initiator's side of an exchange on c: it opens with
// a frame of kind open carrying self's hello, reads the responder's hello
// (or a refusal), checks the responder's proof when self holds a trust
// store, and when asked sends its own proof and reads the verdict. It
// returns the responder's claimed ID, proven when self.Trust is set. The
// read deadline it arms stays armed: reads the caller makes to close its
// side of the exchange fall under it, and the caller clears it.
//
//netibis:preauth
func Initiate(c net.Conn, r *wire.Reader, w *wire.Writer, open byte, p Purpose, self Side) (string, error) {
	c.SetReadDeadline(time.Now().Add(HandshakeTimeout))
	mine, err := self.hello()
	if err != nil {
		return "", err
	}
	if err := w.WriteFrame(open, 0, AppendHello(nil, mine)); err != nil {
		return "", err
	}
	f, err := r.ReadFrame()
	if err != nil {
		return "", err
	}
	if f.Kind == KindVerdict { // refused on sight of our hello
		if err := verdictErr(f.Payload); err != nil {
			return "", err
		}
		return "", ErrMalformed
	}
	if f.Kind != KindHello {
		return "", ErrMalformed
	}
	peer, err := DecodeHello(f.Payload)
	if err != nil {
		return "", err
	}
	t := Transcript{Purpose: p, InitID: self.ID, RespID: peer.ID, NonceI: mine.Nonce, NonceR: peer.Nonce}
	if self.Trust != nil {
		if len(peer.Announce.Public) == 0 {
			return "", ErrAuthRequired
		}
		if err := t.Verify(self.Trust, Responder, peer.Announce, peer.Sig); err != nil {
			return "", err
		}
	}
	if len(peer.Nonce) == 0 {
		return peer.ID, nil // no proof asked for
	}
	if self.Identity == nil {
		return "", ErrNoIdentity
	}
	if err := w.WriteFrame(KindProof, 0, AppendProof(nil, Proof{Echo: peer.Nonce, Sig: t.Sign(self.Identity, Initiator)})); err != nil {
		return "", err
	}
	if f, err = r.ReadFrame(); err != nil {
		return "", err
	}
	if f.Kind != KindVerdict {
		return "", ErrMalformed
	}
	return peer.ID, verdictErr(f.Payload)
}

// Respond runs the responder's side of an exchange whose opening frame,
// carrying the initiator's hello, was read from c. A hello it refuses on
// sight (malformed, or anonymous before a trust store) gets a refusal
// verdict; any other gets self's hello, with self's proof when the
// initiator asked for one. When self holds a trust store it then reads
// the initiator's proof, checks it against its own view of the exchange
// and ends with a verdict. It returns the initiator's claimed ID, proven
// when self.Trust is set. Like Initiate, it leaves its deadline armed.
//
//netibis:preauth
func Respond(c net.Conn, r *wire.Reader, w *wire.Writer, opening []byte, p Purpose, self Side) (string, error) {
	c.SetReadDeadline(time.Now().Add(HandshakeTimeout))
	peer, err := DecodeHello(opening)
	if err != nil || peer.ID == "" {
		return "", sendVerdict(w, ErrMalformed)
	}
	if self.Trust != nil && len(peer.Announce.Public) == 0 {
		return peer.ID, sendVerdict(w, ErrAuthRequired)
	}
	mine, err := self.hello()
	if err != nil {
		return "", err
	}
	t := Transcript{Purpose: p, InitID: peer.ID, RespID: self.ID, NonceI: peer.Nonce, NonceR: mine.Nonce}
	if self.Identity != nil && len(peer.Nonce) > 0 {
		mine.Sig = t.Sign(self.Identity, Responder)
	}
	if err := w.WriteFrame(KindHello, 0, AppendHello(nil, mine)); err != nil {
		return "", err
	}
	if self.Trust == nil {
		return peer.ID, nil
	}
	f, err := r.ReadFrame()
	if err != nil {
		return "", err
	}
	proof, err := DecodeProof(f.Payload)
	switch {
	case err != nil || f.Kind != KindProof:
		err = ErrMalformed
	case !bytes.Equal(proof.Echo, mine.Nonce):
		// A proof made for another exchange: a replayed capture. (One
		// forged for this exchange fails the check below; the echo only
		// tells the two apart.)
		err = ErrReplayedNonce
	default:
		err = t.Verify(self.Trust, Initiator, peer.Announce, proof.Sig)
	}
	return peer.ID, sendVerdict(w, err)
}
