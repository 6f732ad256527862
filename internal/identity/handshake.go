package identity

// Attach and peer-link handshake transcripts: the exact byte strings the
// challenge/response signatures cover. Both handshakes follow the same
// shape — a fresh nonce from each side, signatures over the pair of
// nonces plus the channel-binding fields (who is talking to whom, over
// which server) — so a signature captured from one exchange can never be
// replayed into another: the verifier contributed a fresh nonce the
// attacker cannot have had a signature for.
//
// Attach (node -> relay, with mutual authentication):
//
//	node  -> relay  KindAttach    id, authV, clientNonce, announce
//	relay -> node   KindChallenge serverNonce, serverID, authV, relayAnnounce, relaySig
//	node  -> relay  KindAuth      echo(serverNonce), nodeSig
//	relay -> node   KindAttachOK | KindAttachFail(code)
//
//	relaySig = Sign(ctxRelayAuth, H(clientNonce ‖ serverNonce ‖ serverID ‖ nodeID ‖ relayPub))
//	nodeSig  = Sign(ctxNodeAuth,  H(clientNonce ‖ serverNonce ‖ serverID ‖ nodeID ‖ nodePub))
//
// Peer link (relay A dials relay B):
//
//	A -> B  kindPeerHello    idA, authV, nonceA, announceA
//	B -> A  kindPeerHelloOK  idB, authV, nonceB, announceB, acceptSig
//	A -> B  kindPeerAuth     authSig
//
//	acceptSig = Sign(ctxPeerAccept, H(idA ‖ idB ‖ nonceA ‖ nonceB ‖ pubB))
//	authSig   = Sign(ctxPeerAuth,   H(idA ‖ idB ‖ nonceA ‖ nonceB ‖ pubA))
//
// The side that verifies a signature always re-derives the transcript
// from its own view of the exchange (the nonce it issued, the server ID
// it announced), never from attacker-controlled echoes: the echo fields
// exist only to distinguish a replay (ErrReplayedNonce) from a forgery
// (ErrBadSignature) in the failure surface.

import (
	"crypto/ed25519"

	"netibis/internal/wire"
)

// Authentication modes. Attach, challenge and peer-hello bodies carry one
// as a uvarint ahead of the sender's identity section, so a decoder never
// infers "no identity" from a body that merely ends early.
const (
	// AuthAnonymous: the sender has no identity and nothing follows.
	AuthAnonymous = 0
	// AuthVersion is the current handshake version: the sender's identity
	// section follows. Any other value is malformed.
	AuthVersion = 1
)

// attachTranscript is the channel-binding byte string both attach
// signatures cover (relay and node sign it under different contexts and
// with their own public key appended).
func attachTranscript(clientNonce, serverNonce []byte, serverID, nodeID string, signerPub ed25519.PublicKey) []byte {
	t := wire.AppendBytes(nil, clientNonce)
	t = wire.AppendBytes(t, serverNonce)
	t = wire.AppendString(t, serverID)
	t = wire.AppendString(t, nodeID)
	t = wire.AppendBytes(t, signerPub)
	return t
}

// SignAttachRelay produces the relay's challenge signature: proof to the
// attaching node that the challenge came from a relay holding a trusted
// identity (so a poisoned registry record cannot silently redirect the
// attachment to an impostor).
func SignAttachRelay(relay *Identity, clientNonce, serverNonce []byte, serverID, nodeID string) []byte {
	return relay.sign(ctxRelayAuth, attachTranscript(clientNonce, serverNonce, serverID, nodeID, relay.Public))
}

// VerifyAttachRelay checks the relay's challenge signature against the
// node's view of the exchange.
func VerifyAttachRelay(ts *TrustStore, serverID string, a Announce, clientNonce, serverNonce []byte, nodeID string, sig []byte) error {
	if err := ts.VerifyPeer(serverID, a.Public, a.Cert); err != nil {
		return err
	}
	if !verifySig(a.Public, ctxRelayAuth, attachTranscript(clientNonce, serverNonce, serverID, nodeID, a.Public), sig) {
		return ErrBadSignature
	}
	return nil
}

// SignAttachNode produces the node's response signature: proof of
// possession of the announced key, bound to this connection's nonces,
// the relay's announced ID and the node ID being attached.
func SignAttachNode(node *Identity, clientNonce, serverNonce []byte, serverID, nodeID string) []byte {
	return node.sign(ctxNodeAuth, attachTranscript(clientNonce, serverNonce, serverID, nodeID, node.Public))
}

// VerifyAttachNode checks the node's response signature against the
// relay's view of the exchange (the nonce it issued, never the echo) and
// the trust store's binding of nodeID to the announced key.
func VerifyAttachNode(ts *TrustStore, nodeID string, a Announce, clientNonce, serverNonce []byte, serverID string, sig []byte) error {
	if err := ts.VerifyPeer(nodeID, a.Public, a.Cert); err != nil {
		return err
	}
	if !verifySig(a.Public, ctxNodeAuth, attachTranscript(clientNonce, serverNonce, serverID, nodeID, a.Public), sig) {
		return ErrBadSignature
	}
	return nil
}

// peerTranscript is the channel-binding byte string both peer-link
// signatures cover.
func peerTranscript(dialerID, acceptorID string, nonceA, nonceB []byte, signerPub ed25519.PublicKey) []byte {
	t := wire.AppendString(nil, dialerID)
	t = wire.AppendString(t, acceptorID)
	t = wire.AppendBytes(t, nonceA)
	t = wire.AppendBytes(t, nonceB)
	t = wire.AppendBytes(t, signerPub)
	return t
}

// SignPeerAccept produces the accepting relay's hello-OK signature.
func SignPeerAccept(acceptor *Identity, dialerID, acceptorID string, nonceA, nonceB []byte) []byte {
	return acceptor.sign(ctxPeerAccept, peerTranscript(dialerID, acceptorID, nonceA, nonceB, acceptor.Public))
}

// VerifyPeerAccept checks the accepting relay's hello-OK signature.
func VerifyPeerAccept(ts *TrustStore, dialerID, acceptorID string, a Announce, nonceA, nonceB []byte, sig []byte) error {
	if err := ts.VerifyPeer(acceptorID, a.Public, a.Cert); err != nil {
		return err
	}
	if !verifySig(a.Public, ctxPeerAccept, peerTranscript(dialerID, acceptorID, nonceA, nonceB, a.Public), sig) {
		return ErrBadSignature
	}
	return nil
}

// SignPeerAuth produces the dialing relay's final signature.
func SignPeerAuth(dialer *Identity, dialerID, acceptorID string, nonceA, nonceB []byte) []byte {
	return dialer.sign(ctxPeerAuth, peerTranscript(dialerID, acceptorID, nonceA, nonceB, dialer.Public))
}

// VerifyPeerAuth checks the dialing relay's final signature.
func VerifyPeerAuth(ts *TrustStore, dialerID, acceptorID string, a Announce, nonceA, nonceB []byte, sig []byte) error {
	if err := ts.VerifyPeer(dialerID, a.Public, a.Cert); err != nil {
		return err
	}
	if !verifySig(a.Public, ctxPeerAuth, peerTranscript(dialerID, acceptorID, nonceA, nonceB, a.Public), sig) {
		return ErrBadSignature
	}
	return nil
}
