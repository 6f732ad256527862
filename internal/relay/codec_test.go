package relay

import (
	"errors"
	"net"
	"testing"
	"time"

	"netibis/internal/emunet"
	"netibis/internal/identity"
	"netibis/internal/wire"
)

// TestStrictDecode: every control-frame body has one layout. For each,
// the canonical encoding decodes, and the same bytes minus the last
// field, plus one trailing byte, or (open bodies) with a zero window are
// an error — never a valid body of some other shape.
func TestStrictDecode(t *testing.T) {
	id, err := identity.Generate("pool/alice")
	if err != nil {
		t.Fatal(err)
	}
	nonce, _ := identity.NewNonce()
	offer, err := identity.OfferLink(id, "pool/alice", "pool/bob", 3)
	if err != nil {
		t.Fatal(err)
	}
	sig := []byte("signature")

	attach := func(p []byte) error {
		d := wire.NewDecoder(p)
		if d.String() == "" || d.Err() != nil {
			return identity.ErrMalformed
		}
		_, err := decodeAttachAuth(d)
		return err
	}
	ack := func(p []byte) error { _, err := parseAttachAck(p); return err }
	challenge := func(p []byte) error { _, err := decodeChallenge(p); return err }
	authResp := func(p []byte) error { _, err := decodeAuthResponse(p); return err }
	open := func(p []byte) error { _, _, _, _, err := decodeOpenBody(p); return err }

	// Fresh slices each time: the cases below append to them.
	name := func() []byte { return wire.AppendString(nil, "pool/alice") }
	chal := func() []byte { return wire.AppendString(wire.AppendBytes(nil, nonce), "relay-0") }
	authAttach := wire.AppendBytes(wire.AppendUvarint(name(), identity.AuthVersion), nonce)
	authChal := identity.AppendAnnounce(wire.AppendUvarint(chal(), identity.AuthVersion), id.Announce())
	windowed := wire.AppendUvarint(name(), DefaultWindowBytes)

	// last is the canonical body's final field; the body is prefix ‖ last.
	cases := []struct {
		body         string
		prefix, last []byte
		decode       func([]byte) error
	}{
		{"attach/anonymous", name(), wire.AppendUvarint(nil, identity.AuthAnonymous), attach},
		{"attach/authenticated", authAttach, identity.AppendAnnounce(nil, id.Announce()), attach},
		{"attach-ack", nil, wire.AppendString(nil, "relay-0"), ack},
		{"challenge/anonymous", chal(), wire.AppendUvarint(nil, identity.AuthAnonymous), challenge},
		{"challenge/signed", authChal, wire.AppendBytes(nil, sig), challenge},
		{"auth-response", wire.AppendBytes(nil, nonce), wire.AppendBytes(nil, sig), authResp},
		{"open/plain", windowed, wire.AppendBytes(nil, nil), open},
		{"open/sealed", windowed, wire.AppendBytes(nil, offer.Blob()), open},
	}
	for _, tc := range cases {
		full := append(append([]byte(nil), tc.prefix...), tc.last...)
		if err := tc.decode(full); err != nil {
			t.Errorf("%s: canonical body rejected: %v", tc.body, err)
		}
		if err := tc.decode(tc.prefix); err == nil {
			t.Errorf("%s: body without its last field accepted", tc.body)
		}
		if err := tc.decode(append(full, 0)); err == nil {
			t.Errorf("%s: body with a trailing byte accepted", tc.body)
		}
	}
	if err := attach(wire.AppendUvarint(name(), identity.AuthVersion+1)); err == nil {
		t.Error("attach with an unknown authentication mode accepted")
	}
	if err := open(appendOpenBody(nil, "pool/alice", 0, offer.Blob())); err == nil {
		t.Error("open body with a zero window accepted")
	}
	if err := open(wire.AppendBytes(wire.AppendUvarint(name(), 1<<63), nil)); err == nil {
		t.Error("open body with a window beyond int accepted")
	}
}

// TestOpenPurposeTag: an open body ends in at most one purpose byte, and
// only a known one. Without it the link is untagged; an unknown tag, an
// explicit zero or a byte after the tag make the body malformed, and so
// does a tag on an open-OK, which answers for no purpose.
func TestOpenPurposeTag(t *testing.T) {
	body := func(tail ...byte) []byte {
		return append(appendOpenBody(nil, "pool/alice", DefaultWindowBytes, nil), tail...)
	}
	for _, tc := range []struct {
		name string
		body []byte
		want byte // the decoded purpose, when ok
		ok   bool
	}{
		{"missing", body(), 0, true},
		{"service", body(PurposeService), PurposeService, true},
		{"data", body(PurposeData), PurposeData, true},
		{"unknown", body(9), 0, false},
		{"explicit zero", body(0), 0, false},
		{"trailing byte", body(PurposeData, 0), 0, false},
	} {
		_, _, _, purpose, err := decodeOpenBody(tc.body)
		if (err == nil) != tc.ok || purpose != tc.want {
			t.Errorf("%s: purpose %d, err %v; want purpose %d, ok %v", tc.name, purpose, err, tc.want, tc.ok)
		}
	}

	// End to end: the tag reaches the accepting side's link; an untagged
	// Dial still works; an unknown tag is refused; a tagged open-OK fails
	// the dial and abandons the far half.
	w := newRelayWorld(t)
	a := w.attach(t, "a", emunet.NoNAT)
	defer a.Close()
	b := w.attach(t, "b", emunet.NoNAT)
	defer b.Close()
	for _, purpose := range []byte{0, PurposeService, PurposeData} {
		conn, err := a.DialPurpose("b", purpose, 2*time.Second, nil)
		if err != nil {
			t.Fatalf("dial with purpose %d: %v", purpose, err)
		}
		in, err := b.Accept()
		if err != nil {
			t.Fatal(err)
		}
		if got := in.(*routedConn).Purpose(); got != purpose {
			t.Errorf("open with purpose %d accepted as %d", purpose, got)
		}
		if got := conn.(*routedConn).Purpose(); got != 0 {
			t.Errorf("the dialing side's link reports purpose %d", got)
		}
		conn.Close()
		in.Close()
	}
	if _, err := a.DialPurpose("b", 9, 2*time.Second, nil); !errors.Is(err, ErrRefused) {
		t.Errorf("open with an unknown purpose: %v, want ErrRefused", err)
	}

	raw := w.attachRaw(t, "raw")
	dialed := make(chan error, 1)
	go func() {
		_, err := a.Dial("raw", 2*time.Second)
		dialed <- err
	}()
	open := raw.read(t)
	if open.Kind != KindOpen {
		t.Fatalf("expected the dial's open, got kind %d", open.Kind)
	}
	_, channel, _, _ := ParseRouted(open.Payload)
	tagged := append(appendOpenBody(nil, "raw", DefaultWindowBytes, nil), PurposeData)
	if err := raw.w.WriteFrame(KindOpenOK, 0, AppendRouted(nil, "a", channel, tagged)); err != nil {
		t.Fatal(err)
	}
	if err := <-dialed; !errors.Is(err, identity.ErrMalformed) {
		t.Fatalf("dial answered by a tagged open-OK: %v, want ErrMalformed", err)
	}
	if f := raw.read(t); f.Kind != KindAbandon {
		t.Fatalf("tagged open-OK: far half got kind %d, want an abandon", f.Kind)
	}
}

// rawNode attaches to the relay by hand, so a test can put arbitrary
// routed frames on the wire and see exactly what comes back.
type rawNode struct {
	conn net.Conn
	w    *wire.Writer
	r    *wire.Reader
}

func (w *relayWorld) attachRaw(t *testing.T, id string) *rawNode {
	t.Helper()
	w.nextID++
	h := w.fabric.AddSite("raw-"+id, emunet.SiteConfig{Firewall: emunet.Stateful}).AddHost(id)
	conn, err := h.Dial(emunet.Endpoint{Addr: w.relay.Address(), Port: 4500})
	if err != nil {
		t.Fatalf("dial relay: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	n := &rawNode{conn: conn, w: wire.NewWriter(conn), r: wire.NewReader(conn)}
	if err := n.w.WriteFrame(KindAttach, 0, appendAttachAuth(wire.AppendString(nil, id), nil, nil)); err != nil {
		t.Fatal(err)
	}
	if f := n.read(t); f.Kind != KindAttachOK {
		t.Fatalf("raw attach answered with kind %d", f.Kind)
	}
	return n
}

func (n *rawNode) read(t *testing.T) wire.Frame {
	t.Helper()
	n.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	f, err := n.r.ReadFrame()
	if err != nil {
		t.Fatalf("raw node read: %v", err)
	}
	return f
}

// TestMalformedOpenFailsClosed drives the open handshake against a real
// client with bodies that are truncated, padded or carry a zero window:
// an open is refused and creates no link, an open-OK fails the dial and
// abandons the far half — neither yields a link with an unbounded sender.
func TestMalformedOpenFailsClosed(t *testing.T) {
	w := newRelayWorld(t)
	good := w.attach(t, "good", emunet.NoNAT)
	defer good.Close()
	raw := w.attachRaw(t, "raw")

	bodies := map[string][]byte{
		"no window":     wire.AppendString(nil, "raw"),
		"no blob":       wire.AppendUvarint(wire.AppendString(nil, "raw"), DefaultWindowBytes),
		"zero window":   appendOpenBody(nil, "raw", 0, nil),
		"trailing byte": append(appendOpenBody(nil, "raw", DefaultWindowBytes, nil), 0),
	}
	for what, body := range bodies {
		// As an open: refused.
		if err := raw.w.WriteFrame(KindOpen, 0, AppendRouted(nil, "good", 9, body)); err != nil {
			t.Fatal(err)
		}
		if f := raw.read(t); f.Kind != KindOpenFail {
			t.Fatalf("open with %s answered with kind %d, want an open-failure", what, f.Kind)
		}
		if n := good.LinkCount(); n != 0 {
			t.Fatalf("open with %s left %d links", what, n)
		}

		// As the answer to a dial: the dial fails, the far half is abandoned.
		dialed := make(chan error, 1)
		go func() {
			_, err := good.Dial("raw", 2*time.Second)
			dialed <- err
		}()
		open := raw.read(t)
		if open.Kind != KindOpen {
			t.Fatalf("expected the dial's open, got kind %d", open.Kind)
		}
		_, channel, _, _ := ParseRouted(open.Payload)
		if err := raw.w.WriteFrame(KindOpenOK, 0, AppendRouted(nil, "good", channel, body)); err != nil {
			t.Fatal(err)
		}
		if err := <-dialed; !errors.Is(err, identity.ErrMalformed) {
			t.Fatalf("dial answered by an open-OK with %s = %v, want ErrMalformed", what, err)
		}
		if f := raw.read(t); f.Kind != KindAbandon {
			t.Fatalf("open-OK with %s: far half got kind %d, want an abandon", what, f.Kind)
		}
		if n := good.LinkCount(); n != 0 {
			t.Fatalf("open-OK with %s left %d links", what, n)
		}
	}
}
