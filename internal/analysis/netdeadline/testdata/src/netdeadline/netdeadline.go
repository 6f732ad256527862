// Fixture package for the netdeadline analyzer: pre-auth functions with
// and without armed deadlines, handoffs, and the authentication gate.
package netdeadline

import (
	"net"
	"time"

	"netibis/internal/identity"
	"netibis/internal/wire"
)

// sessionLoop is deliberately not marked pre-auth.
func sessionLoop(c net.Conn) {}

// rejectPeer writes a rejection; the reject* prefix exempts it from the
// handoff rule.
func rejectPeer(c net.Conn) {}

//netibis:preauth
func unarmedRead(c net.Conn) {
	buf := make([]byte, 16)
	c.Read(buf) // want "pre-auth read without a preceding SetReadDeadline in unarmedRead"
}

//netibis:preauth
func armedRead(c net.Conn) {
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 16)
	c.Read(buf) // allowed: deadline armed above
}

//netibis:preauth
func clearDoesNotArm(c net.Conn) {
	c.SetReadDeadline(time.Time{})
	buf := make([]byte, 16)
	c.Read(buf) // want "pre-auth read without a preceding SetReadDeadline in clearDoesNotArm"
}

//netibis:preauth
func deferredClearDoesNotArm(c net.Conn) {
	defer c.SetReadDeadline(time.Time{})
	buf := make([]byte, 16)
	c.Read(buf) // want "pre-auth read without a preceding SetReadDeadline in deferredClearDoesNotArm"
}

//netibis:preauth
func readerUnarmed(r *wire.Reader) {
	r.ReadFrame() // want "pre-auth read without a preceding SetReadDeadline in readerUnarmed"
}

//netibis:preauth
func readerMethodsUnarmed(r *wire.Reader, p []byte) {
	r.Peek(4)       // want "pre-auth read without a preceding SetReadDeadline in readerMethodsUnarmed"
	r.Next(4)       // want "pre-auth read without a preceding SetReadDeadline in readerMethodsUnarmed"
	r.ReadFull(p)   // want "pre-auth read without a preceding SetReadDeadline in readerMethodsUnarmed"
	r.ReadUvarint() // want "pre-auth read without a preceding SetReadDeadline in readerMethodsUnarmed"
	r.Discard(4)    // allowed: consumes what a read returned, reads nothing
}

//netibis:preauth
func readerMethodsArmed(c net.Conn, r *wire.Reader, p []byte) {
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	r.Peek(4)       // allowed: deadline armed above
	r.Next(4)       // allowed
	r.ReadFull(p)   // allowed
	r.ReadUvarint() // allowed
}

//netibis:preauth
func handsOff(c net.Conn) {
	sessionLoop(c) // want "pre-auth function handsOff passes its conn/reader to sessionLoop, which is not marked //netibis:preauth"
}

//netibis:preauth
func rejecting(c net.Conn) {
	rejectPeer(c) // allowed: reject* helpers write, they do not read
}

//netibis:preauth
func authenticate(c net.Conn) error {
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 16)
	_, err := c.Read(buf)
	return err
}

//netibis:preauth
func gatedHandler(c net.Conn) {
	if err := authenticate(c); err != nil {
		return
	}
	buf := make([]byte, 16)
	c.Read(buf)    // allowed: past the authentication gate
	sessionLoop(c) // allowed: past the gate the peer has proven itself
}

//netibis:preauth
func identityGated(c net.Conn, ts *identity.TrustStore, a identity.Announce, sig []byte) {
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 16)
	if _, err := c.Read(buf); err != nil {
		return
	}
	if (identity.Transcript{InitID: "a", RespID: "b"}).Verify(ts, identity.Initiator, a, sig) != nil {
		return
	}
	sessionLoop(c) // allowed: identity.Verify* gates the rest of the body
}

//netibis:preauth
func handshakeGated(c net.Conn, r *wire.Reader, w *wire.Writer, opening []byte) {
	if _, err := identity.Respond(c, r, w, opening, identity.PeerLink, identity.Side{ID: "b"}); err != nil {
		return
	}
	r.ReadFrame()  // allowed: identity's handshake gates the rest of the body
	sessionLoop(c) // allowed likewise
}

func notPreauth(c net.Conn) {
	buf := make([]byte, 16)
	c.Read(buf) // allowed: not marked pre-auth
}
