package relay

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"

	"netibis/internal/identity"
	"netibis/internal/wire"
)

// Frame kinds of the relay protocol (in the driver-private range). They
// are exported because the overlay mesh speaks the same framing when it
// forwards routed frames between relays.
const (
	KindAttach   = wire.KindUser + iota // node -> relay: opens the attach handshake (payload: the node's identity.Hello)
	KindAttachOK                        // relay -> node: attached and routable (empty payload)
	KindOpen                            // open a virtual link: src, dst, channel
	KindOpenOK                          // accept of a virtual link
	KindOpenFail                        // open failed (unknown node, refused)
	KindData                            // data on a virtual link
	KindShut                            // half-close of a virtual link
	KindAbandon                         // discard a virtual link opened for a lost establishment race
	KindCredit                          // flow control: the reader returns drained window bytes to the sender
)

// Errors.
var (
	// ErrUnknownPeer is returned when dialing a node ID that is not
	// attached to the relay.
	ErrUnknownPeer = errors.New("relay: unknown peer")
	// ErrClosed is returned after the client or server shut down.
	ErrClosed = errors.New("relay: closed")
	// ErrRefused is returned when the peer is attached but did not
	// accept the virtual link.
	ErrRefused = errors.New("relay: connection refused by peer")
	// ErrDetached is returned while the client has lost its relay
	// connection and has not yet been resumed on a new one.
	ErrDetached = errors.New("relay: detached from relay")
	// ErrAbandoned is returned on a virtual link whose peer discarded it
	// with an abandon frame: the link was opened for a connection
	// establishment that lost a race, and its far side must not treat it
	// as a usable (or half-open) connection.
	ErrAbandoned = errors.New("relay: link abandoned by peer")
	// ErrDialCanceled is returned by DialCancel when the caller withdrew
	// the open before the peer answered.
	ErrDialCanceled = errors.New("relay: dial canceled")
	// ErrE2E is returned on a sealed routed link when an incoming record
	// fails authentication or replays an already-seen sequence number:
	// the link fails closed rather than deliver forged or replayed bytes.
	ErrE2E = errors.New("relay: end-to-end record verification failed")
	// ErrWindowExceeded is returned on a routed link whose peer sent data
	// past the receive window it was granted (beyond the slack a relay
	// failover allows): the link fails rather than buffer without limit.
	ErrWindowExceeded = errors.New("relay: peer sent past the receive window")
)

// maxDataFrame bounds the payload of a single routed data frame; larger
// writes are split. Keeping frames moderate prevents one virtual link
// from hogging the relay connection.
const maxDataFrame = 32 * 1024

// DefaultWindowBytes is the default receive window of a routed virtual
// link: the number of bytes the peer may send beyond what the local
// reader has drained. A sender facing a slow (or stalled) reader blocks
// at the window instead of buffering unboundedly — on the reader, on the
// sender, and in every relay egress queue along the route. The default
// covers eight maxDataFrame frames in flight, enough to keep a WAN pipe
// busy while bounding a stalled link's memory to a quarter megabyte.
const DefaultWindowBytes = 256 * 1024

// AppendRouted builds a routed frame payload addressed to dst. It is
// exported for the overlay mesh, which synthesises open-failure frames
// when a forwarded open cannot be delivered.
func AppendRouted(buf []byte, dst string, channel uint64, body []byte) []byte {
	buf = wire.AppendString(buf, dst)
	buf = wire.AppendUvarint(buf, channel)
	buf = append(buf, body...)
	return buf
}

// ParseRouted splits a routed payload into its routing header (the
// destination node ID and the channel number within that pair of nodes)
// and its body, in place: dst and body alias p and are valid while p is.
// It is exported for the overlay mesh, which routes forwarded frames by
// the same header.
func ParseRouted(p []byte) (dst []byte, channel uint64, body []byte, ok bool) {
	d := wire.NewDecoder(p)
	dst = d.Bytes()
	channel = d.Uvarint()
	if d.Err() != nil {
		return nil, 0, nil, false
	}
	return dst, channel, p[len(p)-d.Remaining():], true
}

// routedSrc extracts the source-node field that leads the body of every
// routed frame except open-failures, in place: src aliases body.
func routedSrc(body []byte) (src []byte, ok bool) {
	d := wire.NewDecoder(body)
	src = d.Bytes()
	return src, d.Err() == nil
}

// Link purposes: the byte an open may end with, saying what the link is
// for to the node that accepts it (see routedConn.Purpose). A data link's
// purpose is followed by the number of the establishment it is for, in
// the accepting node's connect. Relays forward both unread with the rest
// of the body.
const (
	PurposeService byte = 1 // a service link: brokering requests
	PurposeData    byte = 2 // a data link an establishment of the accepting node waits for
)

// appendOpenBody builds the body of an open or an open-OK, which share
// one layout: the sender's node ID, its receive window in bytes (always
// positive) and its end-to-end exchange blob — the signed offer in an
// open, the answer in an open-OK, empty when the sender does not seal.
// An open may append a purpose (appendPurpose).
func appendOpenBody(buf []byte, from string, window int, blob []byte) []byte {
	buf = wire.AppendString(buf, from)
	buf = wire.AppendUvarint(buf, uint64(window))
	return wire.AppendBytes(buf, blob)
}

// appendPurpose appends an open's purpose (0: none): PurposeService
// alone, PurposeData and the establishment conv.
func appendPurpose(buf []byte, purpose byte, conv uint64) []byte {
	if purpose == 0 {
		return buf
	}
	buf = append(buf, purpose)
	if purpose == PurposeData {
		buf = wire.AppendUvarint(buf, conv)
	}
	return buf
}

// decodeOpenBody parses an open or open-OK body; blob aliases body, and
// purpose is 0 when the body ends without one. It accepts exactly one
// encoding: what appendOpenBody and appendPurpose make of the result. A
// truncated body, a purpose that is not PurposeService or PurposeData, a
// data purpose without its establishment, trailing bytes, a varint that
// is not minimal, an empty sender or a window that is zero or beyond int
// is malformed. On error from is still returned when it decoded, so the
// caller can answer the sender.
func decodeOpenBody(body []byte) (from string, window int, blob []byte, purpose byte, conv uint64, err error) {
	d := wire.NewDecoder(body)
	from = d.String()
	if d.Err() != nil || from == "" {
		return "", 0, nil, 0, 0, identity.ErrMalformed
	}
	w := d.Uvarint()
	blob = d.Bytes()
	if tail := body[len(body)-d.Remaining():]; len(tail) > 0 {
		purpose = tail[0]
		conv, _ = binary.Uvarint(tail[1:]) // a missing or cut establishment reads 0, which the re-encoding below catches
	}
	ok := d.Err() == nil && w > 0 && w <= math.MaxInt && (purpose == 0 || purpose == PurposeService || purpose == PurposeData)
	if !ok || !bytes.Equal(appendPurpose(appendOpenBody(nil, from, int(w), blob), purpose, conv), body) {
		return from, 0, nil, 0, 0, identity.ErrMalformed
	}
	return from, int(w), blob, purpose, conv, nil
}
