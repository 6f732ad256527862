package relay

// Native fuzz targets for the relay protocol's hand-rolled decoders:
// routed headers, the attach body, the challenge/auth handshake frames
// and the open/open-OK bodies (window + end-to-end exchange blob). These parse bytes written by arbitrary, possibly hostile
// nodes; none may panic, over-read or accept a malformed handshake.

import (
	"bytes"
	"testing"

	"netibis/internal/identity"
	"netibis/internal/wire"
)

func FuzzParseRouted(f *testing.F) {
	f.Add(AppendRouted(nil, "pool/bob", 7, []byte("body")))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		dst, channel, body, ok := ParseRouted(data)
		if !ok {
			return
		}
		// The in-place parse splits the payload: the body is its tail, and
		// the header (at least one length byte, dst, one channel byte)
		// fits in front of it.
		if !bytes.HasSuffix(data, body) || 2+len(dst)+len(body) > len(data) {
			t.Fatalf("ParseRouted(%x) = %q, %d, %x does not split the input", data, dst, channel, body)
		}
	})
}

func FuzzDecodeAttach(f *testing.F) {
	f.Add(appendAttachAuth(wire.AppendString(nil, "pool/alice"), nil, nil))
	if id, err := identity.Generate("pool/alice"); err == nil {
		nonce, _ := identity.NewNonce()
		f.Add(appendAttachAuth(wire.AppendString(nil, "pool/alice"), id, nonce))
	}
	f.Add([]byte{})
	f.Add([]byte{0x05, 'a', 'l', 'i', 'c', 'e', 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := wire.NewDecoder(data)
		id := d.String()
		if d.Err() != nil || id == "" {
			return
		}
		if _, err := decodeAttachAuth(d); err == nil && d.Remaining() != 0 {
			t.Fatal("accepted an attach body with trailing bytes")
		}
	})
}

func FuzzDecodeChallenge(f *testing.F) {
	nonce := make([]byte, serverNonceSize)
	f.Add(encodeChallenge(nonce, "relay-0", nil, nil))
	if id, err := identity.Generate("relay-0"); err == nil {
		f.Add(encodeChallenge(nonce, "relay-0", id, []byte("sig")))
	}
	f.Add([]byte{})
	f.Add([]byte{0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := decodeChallenge(data); err != nil {
			return
		}
	})
}

func FuzzDecodeAuthResponse(f *testing.F) {
	f.Add(encodeAuthResponse(make([]byte, serverNonceSize), []byte("sig")))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := decodeAuthResponse(data); err != nil {
			return
		}
	})
}

// FuzzOpenBody fuzzes the open/open-OK body decode exactly as dispatch
// performs it: originator ID, window, end-to-end exchange blob, purpose.
// A body is either rejected or yields a positive window and a known
// purpose, and the result encodes to exactly the body it arrived as —
// one encoding per open, never an unbounded sender, never a link of
// unknown use.
func FuzzOpenBody(f *testing.F) {
	f.Add(wire.AppendString(nil, "pool/alice")) // truncated: no window
	f.Add(appendOpenBody(nil, "pool/alice", 256<<10, nil))
	if id, err := identity.Generate("pool/alice"); err == nil {
		if offer, err := identity.OfferLink(id, "pool/alice", "pool/bob", 3); err == nil {
			f.Add(appendPurpose(appendOpenBody(nil, "pool/alice", DefaultWindowBytes, offer.Blob()), PurposeData, 3))
		}
	}
	f.Add(append(appendOpenBody(nil, "pool/alice", 256<<10, nil), PurposeService))
	f.Add([]byte{})
	f.Add([]byte{0x02, 'h', 'i', 0x80})

	f.Fuzz(func(t *testing.T, data []byte) {
		from, window, blob, purpose, conv, err := decodeOpenBody(data)
		if err != nil {
			return
		}
		if enc := appendPurpose(appendOpenBody(nil, from, window, blob), purpose, conv); !bytes.Equal(enc, data) {
			t.Fatalf("%x decodes to a body that encodes to %x", data, enc)
		}
		if window <= 0 {
			t.Fatalf("accepted a body with window %d", window)
		}
		if purpose != 0 && purpose != PurposeService && purpose != PurposeData {
			t.Fatalf("accepted a body with purpose %d", purpose)
		}
		if len(blob) > 0 {
			// The blob decode inside AcceptLink must never panic either;
			// verification failures are expected.
			bob, err := identity.Generate("pool/bob")
			if err != nil {
				t.Skip()
			}
			ts := identity.NewTrustStore()
			_, _, _ = identity.AcceptLink(bob, ts, from, "pool/bob", 1, blob)
		}
	})
}
