package relay

// Authenticated attach and end-to-end link security. Three concerns live
// here, all built on package identity:
//
//  1. The attach challenge/response: a relay configured with a trust
//     store demands that every attaching node prove possession of a key
//     bound to the node ID it claims (KindChallenge/KindAuth), and — when
//     the relay has an identity of its own — proves itself to the node in
//     the same exchange. Resume runs the identical handshake, so a
//     failover re-authenticates on the surviving relay.
//
//  2. Typed attach failures: KindAttachFail carries a machine-readable
//     code, so a rejected client surfaces exactly which check failed
//     (unknown identity, spoofed ID, replayed nonce, ...) instead of a
//     generic connection error.
//
//  3. End-to-end sealed routed links: the open/open-OK bodies carry an
//     identity-signed X25519 exchange (identity.OfferLink/AcceptLink),
//     and data frames on a completed link travel as AEAD records sealed
//     in pooled wire.Bufs *before* they enter the relay path. Relays
//     forward them through the ordinary cut-through/egress/credit
//     machinery untouched: routing headers and credit frames stay
//     cleartext, payloads are ciphertext end to end.

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"time"

	"netibis/internal/identity"
	"netibis/internal/wire"
)

// AuthConfig configures a relay server's or client's security posture.
type AuthConfig struct {
	// Identity is the local Ed25519 identity. A server uses it to prove
	// itself in attach challenges; a client uses it to answer challenges
	// and to sign end-to-end link offers.
	Identity *identity.Identity
	// Trust is the set of trusted peers. On a server, a non-nil Trust
	// makes authentication mandatory: unauthenticated or unverifiable
	// attaches are rejected with a typed failure. On a client, a non-nil
	// Trust demands the relay prove a trusted identity during attach
	// (the challenge must carry a valid relay signature) and, with an
	// Identity, seals every routed link end to end (see e2eCapable).
	Trust *identity.TrustStore
}

// e2eCapable reports whether this side can offer/accept the end-to-end
// link exchange (it needs a signing identity and a verifier for the
// peer's). A capable client seals every routed link or fails it: it
// refuses an open without an offer and fails a dial answered without
// one with identity.ErrDowngraded.
func (a *AuthConfig) e2eCapable() bool {
	return a != nil && a.Identity != nil && a.Trust != nil
}

// authHandshakeTimeout bounds the attach authentication exchange, so a
// stalled or malicious client cannot pin a relay goroutine forever
// between challenge and response.
const authHandshakeTimeout = 10 * time.Second

// serverNonceSize is the relay-side challenge nonce.
const serverNonceSize = 32

// Attach failure codes carried by KindAttachFail.
const (
	attachFailAuthRequired = 1 // relay demands authentication, none offered
	attachFailUnknown      = 2 // identity not trusted
	attachFailMismatch     = 3 // proven key bound to a different node ID
	attachFailBadSig       = 4 // challenge signature did not verify
	attachFailReplay       = 5 // response echoed a stale nonce
	attachFailMalformed    = 6 // handshake frame did not decode
)

// attachFailCode maps a verification error to its wire code.
func attachFailCode(err error) uint64 {
	switch {
	case errors.Is(err, identity.ErrIdentityMismatch):
		return attachFailMismatch
	case errors.Is(err, identity.ErrUnknownIdentity):
		return attachFailUnknown
	case errors.Is(err, identity.ErrReplayedNonce):
		return attachFailReplay
	case errors.Is(err, identity.ErrBadSignature):
		return attachFailBadSig
	case errors.Is(err, identity.ErrMalformed):
		return attachFailMalformed
	case errors.Is(err, identity.ErrAuthRequired):
		return attachFailAuthRequired
	}
	return attachFailBadSig
}

// attachFailErr maps a wire code back to the typed error surfaced by the
// client.
func attachFailErr(code uint64) error {
	switch code {
	case attachFailAuthRequired:
		return identity.ErrAuthRequired
	case attachFailUnknown:
		return identity.ErrUnknownIdentity
	case attachFailMismatch:
		return identity.ErrIdentityMismatch
	case attachFailReplay:
		return identity.ErrReplayedNonce
	case attachFailMalformed:
		return identity.ErrMalformed
	}
	return identity.ErrBadSignature
}

// attachAuth is the identity section of an authenticated attach.
type attachAuth struct {
	clientNonce []byte
	announce    identity.Announce
}

// appendAttachAuth appends the authentication mode of an attach and, when
// the node has an identity, its identity section. The attach body is
// string(nodeID) ‖ uvarint(mode) ‖ [bytes(clientNonce) ‖ announce].
func appendAttachAuth(dst []byte, id *identity.Identity, clientNonce []byte) []byte {
	if id == nil {
		return wire.AppendUvarint(dst, identity.AuthAnonymous)
	}
	dst = wire.AppendUvarint(dst, identity.AuthVersion)
	dst = wire.AppendBytes(dst, clientNonce)
	return identity.AppendAnnounce(dst, id.Announce())
}

// decodeAttachAuth parses what follows the attach node ID. A nil result
// with nil error is an anonymous attach.
func decodeAttachAuth(d *wire.Decoder) (*attachAuth, error) {
	var ext *attachAuth
	switch d.Uvarint() { // 0 on a decode error, which the final check reports
	case identity.AuthAnonymous:
	case identity.AuthVersion:
		ext = &attachAuth{clientNonce: append([]byte(nil), d.Bytes()...)}
		a, err := identity.DecodeAnnounce(d)
		if err != nil {
			return nil, identity.ErrMalformed
		}
		ext.announce = a
	default:
		return nil, identity.ErrMalformed
	}
	if d.Err() != nil || d.Remaining() != 0 {
		return nil, identity.ErrMalformed
	}
	return ext, nil
}

// challengeBody is the decoded payload of a KindChallenge frame.
type challengeBody struct {
	serverNonce []byte
	serverID    string
	announce    identity.Announce // zero when the relay is anonymous
	sig         []byte
}

// encodeChallenge builds a challenge: bytes(serverNonce) ‖ string(serverID)
// ‖ uvarint(mode) ‖ [announce ‖ bytes(sig)], the bracketed section present
// when the relay has an identity to prove.
func encodeChallenge(serverNonce []byte, serverID string, id *identity.Identity, sig []byte) []byte {
	b := wire.AppendBytes(nil, serverNonce)
	b = wire.AppendString(b, serverID)
	if id == nil {
		return wire.AppendUvarint(b, identity.AuthAnonymous)
	}
	b = wire.AppendUvarint(b, identity.AuthVersion)
	b = identity.AppendAnnounce(b, id.Announce())
	return wire.AppendBytes(b, sig)
}

func decodeChallenge(p []byte) (challengeBody, error) {
	d := wire.NewDecoder(p)
	var cb challengeBody
	cb.serverNonce = append([]byte(nil), d.Bytes()...)
	cb.serverID = d.String()
	switch d.Uvarint() { // 0 on a decode error, which the final check reports
	case identity.AuthAnonymous:
	case identity.AuthVersion:
		a, err := identity.DecodeAnnounce(d)
		if err != nil {
			return challengeBody{}, identity.ErrMalformed
		}
		cb.announce = a
		cb.sig = append([]byte(nil), d.Bytes()...)
	default:
		return challengeBody{}, identity.ErrMalformed
	}
	if d.Err() != nil || d.Remaining() != 0 {
		return challengeBody{}, identity.ErrMalformed
	}
	return cb, nil
}

// authResponse is the decoded payload of a KindAuth frame.
type authResponse struct {
	echoNonce []byte
	sig       []byte
}

func encodeAuthResponse(echoNonce, sig []byte) []byte {
	b := wire.AppendBytes(nil, echoNonce)
	b = wire.AppendBytes(b, sig)
	return b
}

func decodeAuthResponse(p []byte) (authResponse, error) {
	d := wire.NewDecoder(p)
	var ar authResponse
	ar.echoNonce = append([]byte(nil), d.Bytes()...)
	ar.sig = append([]byte(nil), d.Bytes()...)
	if d.Err() != nil || d.Remaining() != 0 {
		return authResponse{}, identity.ErrMalformed
	}
	return ar, nil
}

// --- server side -----------------------------------------------------------------

// SetAuth configures the relay's security posture. With a non-nil trust
// store every attaching node must complete the challenge/response
// handshake and prove a key the store binds to the claimed node ID;
// anonymous and unverifiable attaches are rejected with a typed
// KindAttachFail. With an identity, the relay additionally proves itself
// to attaching nodes inside the challenge. SetAuth is meant to be called
// before Serve.
func (s *Server) SetAuth(cfg AuthConfig) {
	s.mu.Lock()
	s.auth = cfg
	s.mu.Unlock()
}

func (s *Server) authConfig() AuthConfig {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.auth
}

// sendAttachFail reports a typed attach rejection to the client. Write
// errors are irrelevant: the connection is being dropped either way.
func sendAttachFail(w *wire.Writer, code uint64, msg string) {
	body := wire.AppendUvarint(nil, code)
	body = wire.AppendString(body, msg)
	w.WriteFrame(KindAttachFail, 0, body)
}

// attachOutcomeNames labels attach verdicts for metrics and traces:
// index 0 is success, the rest mirror the attachFail* codes.
var attachOutcomeNames = [attachFailMalformed + 1]string{
	"ok",
	"auth_required",
	"unknown_identity",
	"identity_mismatch",
	"bad_signature",
	"replay",
	"malformed",
}

// rejectAttach counts, traces and sends a typed attach rejection for
// the node claiming id.
func (s *Server) rejectAttach(w *wire.Writer, id string, code uint64, msg string) {
	if code >= 1 && code <= attachFailMalformed {
		s.attachOutcomes[code].Add(1)
		s.trace().Eventf("relay", "attach of %s rejected (%s): %s", id, attachOutcomeNames[code], msg)
	}
	sendAttachFail(w, code, msg)
}

// authenticateNode runs the server half of the attach handshake on a
// connection whose attach frame carried ext (nil for an anonymous attach).
// It reports whether the node proved a trusted identity for id; on any
// failure it has already written the typed rejection.
//
//netibis:preauth
func (s *Server) authenticateNode(c net.Conn, r *wire.Reader, w *wire.Writer, id string, ext *attachAuth) bool {
	cfg := s.authConfig()
	if cfg.Trust == nil {
		return true // authentication not enforced
	}
	if ext == nil {
		s.rejectAttach(w, id, attachFailAuthRequired, "relay requires authenticated attach")
		return false
	}
	serverNonce := make([]byte, serverNonceSize)
	if _, err := rand.Read(serverNonce); err != nil {
		s.rejectAttach(w, id, attachFailMalformed, "relay nonce generation failed")
		return false
	}
	var relaySig []byte
	if cfg.Identity != nil {
		relaySig = identity.SignAttachRelay(cfg.Identity, ext.clientNonce, serverNonce, s.ID(), id)
	}
	if err := w.WriteFrame(KindChallenge, 0, encodeChallenge(serverNonce, s.ID(), cfg.Identity, relaySig)); err != nil {
		return false
	}
	// The response must arrive promptly: an attacker (or wedged client)
	// must not pin this goroutine between challenge and response.
	c.SetReadDeadline(time.Now().Add(authHandshakeTimeout))
	defer c.SetReadDeadline(time.Time{})
	f, err := r.ReadFrame()
	if err != nil {
		return false
	}
	if f.Kind != KindAuth {
		s.rejectAttach(w, id, attachFailMalformed, "expected auth response")
		return false
	}
	resp, err := decodeAuthResponse(f.Payload)
	if err != nil {
		s.rejectAttach(w, id, attachFailMalformed, "malformed auth response")
		return false
	}
	if !bytes.Equal(resp.echoNonce, serverNonce) {
		// The response was produced for a different challenge — a replayed
		// capture. (A response forged for this challenge would fail the
		// signature check below; the echo exists to tell the two apart.)
		s.rejectAttach(w, id, attachFailReplay, "stale challenge nonce")
		return false
	}
	// Verify against the server's own view of the exchange: the nonce it
	// issued, the ID it announced — never attacker-controlled echoes.
	if err := identity.VerifyAttachNode(cfg.Trust, id, ext.announce, ext.clientNonce, serverNonce, s.ID(), resp.sig); err != nil {
		s.rejectAttach(w, id, attachFailCode(err), err.Error())
		return false
	}
	return true
}

// --- client side -----------------------------------------------------------------

// AttachAuth is Attach with a security configuration: the client
// authenticates itself when challenged (auth.Identity), verifies the
// relay's counter-signature (auth.Trust, which makes an unauthenticated
// relay a fatal attach error), and arms end-to-end sealing for routed
// links (see AuthConfig). A nil auth is exactly Attach.
func AttachAuth(conn net.Conn, nodeID string, auth *AuthConfig) (*Client, error) {
	return AttachProbed(conn, nil, nodeID, auth)
}

// AttachProbed is AttachAuth on a connection that has a Reader already:
// r is the one ProbeRTT returned, or nil for a connection never probed.
func AttachProbed(conn net.Conn, r *wire.Reader, nodeID string, auth *AuthConfig) (*Client, error) {
	w, r, serverID, err := handshake(conn, r, nodeID, auth)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c := &Client{
		id:       nodeID,
		conn:     conn,
		w:        w,
		serverID: serverID,
		auth:     auth,
		links:    make(map[linkID]*routedConn),
		accepts:  make(chan *routedConn, 64),
		pending:  make(map[linkID]*pendingDial),
		opening:  make(map[linkID]*routedConn),
		window:   DefaultWindowBytes,
		gen:      1,
	}
	go c.readLoop(r, 1)
	return c, nil
}

// clientAuthExchange runs the client half of the challenge/response
// after the attach frame was sent: it waits for the relay's challenge,
// verifies the relay's proof when trust is configured, and answers with
// the node's signature. It consumes frames up to (but not including) the
// final attach verdict. It performs no reads itself; the caller's
// handshake deadline bounds the exchange.
//
//netibis:preauth
func clientAuthExchange(r *wire.Reader, w *wire.Writer, nodeID string, auth *AuthConfig, clientNonce []byte, challenge wire.Frame) error {
	cb, err := decodeChallenge(challenge.Payload)
	if err != nil {
		return fmt.Errorf("relay: bad challenge: %w", err)
	}
	if auth == nil || auth.Identity == nil {
		// Challenged but unable to answer: surface the policy mismatch.
		return fmt.Errorf("relay: relay demands authentication: %w", identity.ErrNoIdentity)
	}
	if auth.Trust != nil {
		// Mutual authentication: the relay must prove a trusted identity
		// for the server ID it announced. Without this, a poisoned
		// registry record could steer the node to an impostor relay that
		// happily forwards (and records) all its traffic.
		if len(cb.announce.Public) == 0 {
			return fmt.Errorf("relay: relay did not authenticate: %w", identity.ErrAuthRequired)
		}
		if err := identity.VerifyAttachRelay(auth.Trust, cb.serverID, cb.announce, clientNonce, cb.serverNonce, nodeID, cb.sig); err != nil {
			return fmt.Errorf("relay: relay authentication failed: %w", err)
		}
	}
	sig := identity.SignAttachNode(auth.Identity, clientNonce, cb.serverNonce, cb.serverID, nodeID)
	if err := w.WriteFrame(KindAuth, 0, encodeAuthResponse(cb.serverNonce, sig)); err != nil {
		return err
	}
	return nil
}
