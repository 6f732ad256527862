package relay

// Authenticated attach and end-to-end link security, both built on
// package identity:
//
//  1. Attach runs identity's handshake (identity.Initiate/Respond) opened
//     by KindAttach: a relay configured with a trust store demands that
//     every attaching node prove possession of a key bound to the node ID
//     it claims, and a relay with an identity proves itself to a node
//     that holds a trust store. Refusals are typed verdicts, so a
//     rejected client surfaces exactly which check failed. Resume runs
//     the identical handshake, so a failover re-authenticates on the
//     surviving relay.
//
//  2. End-to-end sealed routed links: the open/open-OK bodies carry an
//     identity-signed X25519 exchange (identity.OfferLink/AcceptLink),
//     and data frames on a completed link travel as AEAD records sealed
//     in pooled wire.Bufs *before* they enter the relay path. Relays
//     forward them through the ordinary cut-through/egress/credit
//     machinery untouched: routing headers and credit frames stay
//     cleartext, payloads are ciphertext end to end.

import (
	"net"

	"netibis/internal/identity"
	"netibis/internal/wire"
)

// AuthConfig configures a relay server's or client's security posture.
type AuthConfig struct {
	// Identity is the local Ed25519 identity. A server proves itself
	// with it to a client that asks; a client proves itself to a server
	// that asks and signs end-to-end link offers with it.
	Identity *identity.Identity
	// Trust is the set of trusted peers. On a server, a non-nil Trust
	// makes authentication mandatory: unauthenticated or unverifiable
	// attaches are refused with a typed verdict. On a client, a non-nil
	// Trust demands the relay prove a trusted identity during attach
	// and, with an Identity, seals every routed link end to end (see
	// e2eCapable).
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

// --- server side -----------------------------------------------------------------

// SetAuth configures the relay's security posture. With a non-nil trust
// store every attaching node must prove a key the store binds to the
// claimed node ID; anonymous and unverifiable attaches are refused with
// a typed verdict. With an identity, the relay proves itself to nodes
// that ask. SetAuth is meant to be called before Serve.
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

// side is one end's part in the attach handshake.
func (a *AuthConfig) side(id string) identity.Side {
	if a == nil {
		return identity.Side{ID: id}
	}
	return identity.Side{ID: id, Identity: a.Identity, Trust: a.Trust}
}

// --- client side -----------------------------------------------------------------

// AttachAuth is Attach with a security configuration: the client
// proves itself when asked (auth.Identity), demands the relay's proof
// (auth.Trust, which makes an unauthenticated relay a fatal attach
// error), and arms end-to-end sealing for routed links (see
// AuthConfig). A nil auth is exactly Attach.
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
