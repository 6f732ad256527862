package relay

// Adversarial test suite for the authenticated attach handshake and the
// end-to-end sealed routed links: every spoof, replay, downgrade and
// garbage case must fail closed with a typed error — and leak neither
// goroutines nor links while doing so.

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"netibis/internal/identity"
	"netibis/internal/testutil"
	"netibis/internal/wire"
)

// authWorld is a relay plus a deployment CA with issued identities,
// served over an in-process TCP listener.
type authWorld struct {
	t     *testing.T
	ca    *identity.Authority
	trust *identity.TrustStore
	srv   *Server
	ln    net.Listener
	ids   map[string]*identity.Identity
}

func newAuthWorld(t *testing.T, relayID string) *authWorld {
	t.Helper()
	ca, err := identity.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	w := &authWorld{t: t, ca: ca, trust: ca.TrustStore(), ids: make(map[string]*identity.Identity)}
	w.srv = NewServer()
	w.srv.SetID(relayID)
	relayIdent, err := ca.Issue(relayID)
	if err != nil {
		t.Fatal(err)
	}
	w.srv.SetAuth(AuthConfig{Identity: relayIdent, Trust: w.trust})
	w.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go w.srv.Serve(w.ln)
	t.Cleanup(func() {
		w.ln.Close()
		w.srv.Close()
	})
	return w
}

func (w *authWorld) issue(name string) *identity.Identity {
	w.t.Helper()
	id, err := w.ca.Issue(name)
	if err != nil {
		w.t.Fatal(err)
	}
	w.ids[name] = id
	return id
}

func (w *authWorld) dial() net.Conn {
	w.t.Helper()
	conn, err := net.Dial("tcp", w.ln.Addr().String())
	if err != nil {
		w.t.Fatal(err)
	}
	return conn
}

// attach attaches a node with full auth + e2e configuration.
func (w *authWorld) attach(name string, id *identity.Identity, require bool) *Client {
	w.t.Helper()
	cli, err := AttachAuth(w.dial(), name, &AuthConfig{Identity: id, Trust: w.trust, RequireE2E: require})
	if err != nil {
		w.t.Fatalf("attach %s: %v", name, err)
	}
	w.t.Cleanup(func() { cli.Close() })
	return cli
}

func TestAuthenticatedAttachAndSealedLink(t *testing.T) {
	check := testutil.LeakCheck(t, 3)
	w := newAuthWorld(t, "relay-0")
	alice := w.attach("alice", w.issue("alice"), true)
	bob := w.attach("bob", w.issue("bob"), true)

	done := make(chan net.Conn, 1)
	go func() {
		conn, err := bob.Accept()
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		done <- conn
	}()
	ac, err := alice.Dial("bob", 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	bc := <-done
	if bc == nil {
		t.Fatal("accept failed")
	}

	msg := []byte("sealed end to end, relay-blind")
	if _, err := ac.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(bc, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q want %q", got, msg)
	}
	// And the other direction (distinct directional keys).
	if _, err := bc.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	got = make([]byte, 4)
	if _, err := io.ReadFull(ac, got); err != nil {
		t.Fatal(err)
	}
	ac.Close()
	bc.Close()
	alice.Close()
	bob.Close()
	check()
}

func TestAttachWrongKey(t *testing.T) {
	check := testutil.LeakCheck(t, 3)
	w := newAuthWorld(t, "relay-0")
	// An identity generated outside the deployment CA: possession is
	// proven, trust is not.
	rogue, _ := identity.Generate("alice")
	_, err := AttachAuth(w.dial(), "alice", &AuthConfig{Identity: rogue, Trust: w.trust})
	if !errors.Is(err, identity.ErrUnknownIdentity) {
		t.Fatalf("wrong key: got %v", err)
	}
	check()
}

func TestAttachSpoofedIdentity(t *testing.T) {
	check := testutil.LeakCheck(t, 3)
	w := newAuthWorld(t, "relay-0")
	bobID := w.issue("bob")
	// Node B holds a perfectly valid identity — and tries to attach as A.
	_, err := AttachAuth(w.dial(), "alice", &AuthConfig{Identity: bobID, Trust: w.trust})
	if err == nil {
		t.Fatal("spoofed attach accepted")
	}
	if !errors.Is(err, identity.ErrUnknownIdentity) && !errors.Is(err, identity.ErrIdentityMismatch) {
		t.Fatalf("spoofed attach: got %v", err)
	}
	// With the key pinned (not CA-certified) the failure is the precise
	// mismatch error.
	pinTrust := identity.NewTrustStore()
	alice, _ := identity.Generate("alice")
	bob, _ := identity.Generate("bob")
	pinTrust.Pin("alice", alice.Public)
	pinTrust.Pin("bob", bob.Public)
	w.srv.SetAuth(AuthConfig{Trust: pinTrust})
	_, err = AttachAuth(w.dial(), "alice", &AuthConfig{Identity: bob})
	if !errors.Is(err, identity.ErrIdentityMismatch) {
		t.Fatalf("pinned spoofed attach: got %v", err)
	}
	check()
}

func TestAttachAnonymousRejected(t *testing.T) {
	check := testutil.LeakCheck(t, 3)
	w := newAuthWorld(t, "relay-0")
	_, err := Attach(w.dial(), "alice")
	if !errors.Is(err, identity.ErrAuthRequired) {
		t.Fatalf("anonymous attach: got %v", err)
	}
	check()
}

func TestAttachReplayedNonce(t *testing.T) {
	check := testutil.LeakCheck(t, 3)
	w := newAuthWorld(t, "relay-0")
	alice := w.issue("alice")

	// Run the handshake manually, answering the fresh challenge with a
	// response captured for a *previous* exchange (a stale nonce): the
	// relay must detect the replay, not just a bad signature.
	conn := w.dial()
	defer conn.Close()
	fw := wire.NewWriter(conn)
	fr := wire.NewReader(conn)
	clientNonce, _ := identity.NewNonce()
	body := wire.AppendString(nil, "alice")
	body = appendAttachAuth(body, alice, clientNonce)
	if err := fw.WriteFrame(KindAttach, 0, body); err != nil {
		t.Fatal(err)
	}
	f, err := fr.ReadFrame()
	if err != nil || f.Kind != KindChallenge {
		t.Fatalf("expected challenge, got %v %v", f, err)
	}
	cb, err := decodeChallenge(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	// Replay: sign and echo an *old* server nonce instead of the fresh one.
	stale := make([]byte, serverNonceSize)
	sig := identity.SignAttachNode(alice, clientNonce, stale, cb.serverID, "alice")
	if err := fw.WriteFrame(KindAuth, 0, encodeAuthResponse(stale, sig)); err != nil {
		t.Fatal(err)
	}
	f, err = fr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != KindAttachFail {
		t.Fatalf("expected attach failure, got kind %d", f.Kind)
	}
	d := wire.NewDecoder(f.Payload)
	if code := d.Uvarint(); code != attachFailReplay {
		t.Fatalf("expected replay code, got %d", code)
	}
	check()
}

func TestAttachGarbageHandshakeFrames(t *testing.T) {
	check := testutil.LeakCheck(t, 3)
	w := newAuthWorld(t, "relay-0")
	alice := w.issue("alice")

	// Garbage attach extension: must be rejected as malformed, not
	// panic or hang.
	conn := w.dial()
	fw := wire.NewWriter(conn)
	fr := wire.NewReader(conn)
	body := wire.AppendString(nil, "alice")
	body = append(body, 0xff, 0xff, 0xff) // truncated extension
	if err := fw.WriteFrame(KindAttach, 0, body); err != nil {
		t.Fatal(err)
	}
	f, err := fr.ReadFrame()
	if err != nil || f.Kind != KindAttachFail {
		t.Fatalf("garbage extension: got %v %v", f, err)
	}
	conn.Close()

	// Garbage auth response after a valid challenge.
	conn = w.dial()
	fw = wire.NewWriter(conn)
	fr = wire.NewReader(conn)
	clientNonce, _ := identity.NewNonce()
	body = wire.AppendString(nil, "alice")
	body = appendAttachAuth(body, alice, clientNonce)
	fw.WriteFrame(KindAttach, 0, body)
	if f, err = fr.ReadFrame(); err != nil || f.Kind != KindChallenge {
		t.Fatalf("expected challenge: %v %v", f, err)
	}
	fw.WriteFrame(KindAuth, 0, []byte{0x01})
	if f, err = fr.ReadFrame(); err != nil || f.Kind != KindAttachFail {
		t.Fatalf("garbage auth response: got %v %v", f, err)
	}
	conn.Close()

	// A wrong frame kind instead of the auth response.
	conn = w.dial()
	fw = wire.NewWriter(conn)
	fr = wire.NewReader(conn)
	clientNonce, _ = identity.NewNonce()
	body = wire.AppendString(nil, "alice")
	body = appendAttachAuth(body, alice, clientNonce)
	fw.WriteFrame(KindAttach, 0, body)
	if f, err = fr.ReadFrame(); err != nil || f.Kind != KindChallenge {
		t.Fatalf("expected challenge: %v %v", f, err)
	}
	fw.WriteFrame(KindData, 0, []byte("nope"))
	if f, err = fr.ReadFrame(); err != nil || f.Kind != KindAttachFail {
		t.Fatalf("wrong-kind auth response: got %v %v", f, err)
	}
	conn.Close()
	check()
}

func TestClientRejectsUnauthenticatedRelay(t *testing.T) {
	check := testutil.LeakCheck(t, 3)
	// A relay with no identity and no trust store accepts anonymously —
	// but a client that carries a trust store refuses to attach to it.
	srv := NewServer()
	srv.SetID("anonymous")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() { ln.Close(); srv.Close() }()

	ca, _ := identity.NewAuthority()
	alice, _ := ca.Issue("alice")
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_, err = AttachAuth(conn, "alice", &AuthConfig{Identity: alice, Trust: ca.TrustStore()})
	if !errors.Is(err, identity.ErrAuthRequired) {
		t.Fatalf("unauthenticated relay: got %v", err)
	}
	check()
}

func TestRelayImpostorRejected(t *testing.T) {
	check := testutil.LeakCheck(t, 3)
	// The relay authenticates — with an identity outside the client's
	// trust. The client must refuse (the poisoned-registry scenario: a
	// redirect to an impostor relay).
	ca, _ := identity.NewAuthority()
	otherCA, _ := identity.NewAuthority()
	impostorID, _ := otherCA.Issue("relay-0")
	srv := NewServer()
	srv.SetID("relay-0")
	srv.SetAuth(AuthConfig{Identity: impostorID, Trust: otherCA.TrustStore()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() { ln.Close(); srv.Close() }()

	alice, _ := ca.Issue("alice")
	// The impostor's relay would accept alice? No — its trust differs
	// too; but the client-side check fires first on the relay's own
	// proof.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_, err = AttachAuth(conn, "alice", &AuthConfig{Identity: alice, Trust: ca.TrustStore()})
	if !errors.Is(err, identity.ErrUnknownIdentity) {
		t.Fatalf("impostor relay: got %v", err)
	}
	check()
}

// proxyFrame is one frame a tamperProxy rewrite emits.
type proxyFrame struct {
	kind, flags byte
	payload     []byte
}

// tamperProxy forwards frames between a client and the relay, letting a
// test rewrite frames in flight — the man-in-the-middle (or malicious
// relay) the end-to-end layer must defeat. The rewrite returns the
// frames to emit in place of the input: one (possibly modified), none
// (drop), or several (inject/duplicate).
type tamperProxy struct {
	ln      net.Listener
	backend string
	rewrite func(kind byte, flags byte, payload []byte) []proxyFrame
}

func newTamperProxy(t *testing.T, backend string, rewrite func(kind, flags byte, payload []byte) []proxyFrame) *tamperProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &tamperProxy{ln: ln, backend: backend, rewrite: rewrite}
	go p.serve()
	t.Cleanup(func() { ln.Close() })
	return p
}

func (p *tamperProxy) serve() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		b, err := net.Dial("tcp", p.backend)
		if err != nil {
			c.Close()
			continue
		}
		// Client -> relay leg is rewritten; relay -> client copied raw.
		go func() {
			defer c.Close()
			defer b.Close()
			io.Copy(c, b)
		}()
		go func() {
			defer c.Close()
			defer b.Close()
			r := wire.NewReader(c)
			w := wire.NewWriter(b)
			for {
				f, err := r.ReadFrame()
				if err != nil {
					return
				}
				for _, out := range p.rewrite(f.Kind, f.Flags, f.Payload) {
					if w.WriteFrame(out.kind, out.flags, out.payload) != nil {
						return
					}
				}
			}
		}()
	}
}

// passFrame forwards a frame unchanged.
func passFrame(kind, flags byte, payload []byte) []proxyFrame {
	return []proxyFrame{{kind: kind, flags: flags, payload: payload}}
}

// stripE2EBlob rewrites the routed open / open-OK frames of the given
// kind, blanking the e2e exchange blob — the classic capability-stripping
// downgrade: the body stays well-formed, it just says "no offer".
func stripE2EBlob(strip byte) func(kind, flags byte, payload []byte) []proxyFrame {
	return func(kind, flags byte, payload []byte) []proxyFrame {
		if kind != strip {
			return passFrame(kind, flags, payload)
		}
		dst, channel, body, ok := ParseRouted(payload)
		if !ok {
			return passFrame(kind, flags, payload)
		}
		from, window, _, purpose, err := decodeOpenBody(body)
		if err != nil {
			return passFrame(kind, flags, payload)
		}
		body = appendOpenBody(nil, from, window, nil)
		if purpose != 0 {
			body = append(body, purpose)
		}
		return []proxyFrame{{kind: kind, flags: flags, payload: AppendRouted(nil, string(dst), channel, body)}}
	}
}

func TestDowngradeStrippedOfferFailsClosed(t *testing.T) {
	check := testutil.LeakCheck(t, 4)
	w := newAuthWorld(t, "relay-0")
	proxy := newTamperProxy(t, w.ln.Addr().String(), stripE2EBlob(KindOpen))

	bob := w.attach("bob", w.issue("bob"), true)
	go func() {
		// Bob never sees a valid secure open; it refuses each one, so
		// nothing arrives here. The Accept unblocks on Close.
		for {
			if _, err := bob.Accept(); err != nil {
				return
			}
		}
	}()

	// Alice attaches *through the tampering proxy* with RequireE2E.
	aliceID := w.issue("alice")
	conn, err := net.Dial("tcp", proxy.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	alice, err := AttachAuth(conn, "alice", &AuthConfig{Identity: aliceID, Trust: w.trust, RequireE2E: true})
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()

	// The stripped open reaches Bob as a plaintext open; Bob
	// requires e2e and refuses it, so the dial fails — and must *not*
	// produce a usable cleartext link.
	_, err = alice.Dial("bob", time.Second)
	if err == nil {
		t.Fatal("stripped-capability open produced a link")
	}
	if !errors.Is(err, ErrRefused) && !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("stripped offer: got %v", err)
	}
	if n := alice.LinkCount(); n != 0 {
		t.Fatalf("stripped offer left %d links", n)
	}
	alice.Close()
	bob.Close()
	check()
}

func TestDowngradeStrippedAnswerFailsClosed(t *testing.T) {
	check := testutil.LeakCheck(t, 4)
	w := newAuthWorld(t, "relay-0")
	// Bob's OpenOK travels to the relay through the tampering proxy,
	// which blanks the answer: the initiator offered security, the path
	// pretends the acceptor declined.
	proxy := newTamperProxy(t, w.ln.Addr().String(), stripE2EBlob(KindOpenOK))

	bobID := w.issue("bob")
	bconn, err := net.Dial("tcp", proxy.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	bob, err := AttachAuth(bconn, "bob", &AuthConfig{Identity: bobID, Trust: w.trust})
	if err != nil {
		t.Fatal(err)
	}
	defer bob.Close()
	go func() {
		for {
			if _, err := bob.Accept(); err != nil {
				return
			}
		}
	}()

	alice := w.attach("alice", w.issue("alice"), true)
	_, err = alice.Dial("bob", time.Second)
	if !errors.Is(err, identity.ErrDowngraded) {
		t.Fatalf("stripped answer: got %v", err)
	}
	if n := alice.LinkCount(); n != 0 {
		t.Fatalf("stripped answer left %d links on alice", n)
	}
	if why := testutil.Settle(func() (bool, string) {
		n := bob.LinkCount()
		return n == 0, "bob still holds links"
	}); why != "" {
		t.Fatalf("abandon did not clean bob's half: %s", why)
	}
	alice.Close()
	bob.Close()
	check()
}

func TestRelayDropsSourceSpoofedFrames(t *testing.T) {
	check := testutil.LeakCheck(t, 4)
	w := newAuthWorld(t, "relay-0")
	alice := w.attach("alice", w.issue("alice"), true)
	bob := w.attach("bob", w.issue("bob"), true)
	// Mallory authenticates legitimately — then forges data frames
	// claiming to come from alice on alice's link to bob. A
	// trust-enforcing relay pins the embedded source to the
	// authenticated attachment, so the forgeries are dropped at the
	// edge: they never reach bob and cannot reset the sealed link.
	mallory := w.attach("mallory", w.issue("mallory"), false)

	accepted := make(chan net.Conn, 1)
	go func() {
		conn, _ := bob.Accept()
		accepted <- conn
	}()
	ac, err := alice.Dial("bob", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	bc := <-accepted
	if bc == nil {
		t.Fatal("no accept")
	}
	if _, err := ac.Write([]byte("legit")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(bc, buf); err != nil {
		t.Fatal(err)
	}

	// Forge a KindData frame from=alice on the live channel.
	chAN := ac.(*routedConn).channel
	body := wire.AppendString(nil, "alice")
	body = wire.AppendUvarint(body, uint64(roleInitiator))
	body = wire.AppendBytes(body, []byte("injected plaintext"))
	mallory.send(KindData, AppendRouted(nil, "bob", chAN, body))
	// And a forged shutdown, the cheapest link-reset primitive.
	shut := wire.AppendString(nil, "alice")
	shut = wire.AppendUvarint(shut, uint64(roleInitiator))
	mallory.send(KindShut, AppendRouted(nil, "bob", chAN, shut))

	// The link stays perfectly healthy: the next legitimate transfer
	// arrives intact, no ErrE2E, no EOF.
	if _, err := ac.Write([]byte("after")); err != nil {
		t.Fatal(err)
	}
	bc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(bc, buf); err != nil {
		t.Fatalf("link damaged by spoofed frames: %v", err)
	}
	if string(buf) != "after" {
		t.Fatalf("got %q", buf)
	}
	ac.Close()
	bc.Close()
	alice.Close()
	bob.Close()
	mallory.Close()
	check()
}

func TestSealedLinkRejectsTamperedRecords(t *testing.T) {
	check := testutil.LeakCheck(t, 4)
	w := newAuthWorld(t, "relay-0")

	// The attacker is the path itself (a compromised relay hop): it
	// corrupts one sealed record from alice in flight. The source field
	// is genuine, so edge pinning passes — the end-to-end AEAD is the
	// layer that must catch it, killing the link with the typed error
	// instead of delivering attacker-controlled bytes.
	tampered := false
	corrupt := func(kind, flags byte, payload []byte) []proxyFrame {
		if kind == KindData && !tampered {
			tampered = true
			mangled := append([]byte(nil), payload...)
			mangled[len(mangled)-1] ^= 0x01
			return []proxyFrame{{kind: kind, flags: flags, payload: mangled}}
		}
		return passFrame(kind, flags, payload)
	}
	proxy := newTamperProxy(t, w.ln.Addr().String(), corrupt)

	bob := w.attach("bob", w.issue("bob"), true)
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, _ := bob.Accept()
		accepted <- conn
	}()

	aliceID := w.issue("alice")
	conn, err := net.Dial("tcp", proxy.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	alice, err := AttachAuth(conn, "alice", &AuthConfig{Identity: aliceID, Trust: w.trust, RequireE2E: true})
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()

	ac, err := alice.Dial("bob", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	bc := <-accepted
	if _, err := ac.Write([]byte("first")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	bc.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := bc.Read(buf)
	if err == nil || !errors.Is(err, ErrE2E) {
		t.Fatalf("tampered record: read returned n=%d err=%v", n, err)
	}
	ac.Close()
	bc.Close()
	alice.Close()
	bob.Close()
	check()
}

func TestSealedLinkRejectsReplayedRecords(t *testing.T) {
	check := testutil.LeakCheck(t, 4)
	w := newAuthWorld(t, "relay-0")

	// The path duplicates a sealed record in flight (source field
	// genuine, so edge pinning passes): the strictly-increasing
	// sequence rule must kill the link rather than deliver the
	// duplicate.
	duplicated := false
	duplicate := func(kind, flags byte, payload []byte) []proxyFrame {
		if kind == KindData && !duplicated {
			duplicated = true
			return []proxyFrame{
				{kind: kind, flags: flags, payload: payload},
				{kind: kind, flags: flags, payload: append([]byte(nil), payload...)},
			}
		}
		return passFrame(kind, flags, payload)
	}
	proxy := newTamperProxy(t, w.ln.Addr().String(), duplicate)

	bob := w.attach("bob", w.issue("bob"), true)
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, _ := bob.Accept()
		accepted <- conn
	}()

	aliceID := w.issue("alice")
	conn, err := net.Dial("tcp", proxy.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	alice, err := AttachAuth(conn, "alice", &AuthConfig{Identity: aliceID, Trust: w.trust, RequireE2E: true})
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()

	ac, err := alice.Dial("bob", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	bc := <-accepted
	if _, err := ac.Write([]byte("first")); err != nil {
		t.Fatal(err)
	}
	// The first copy delivers fine; the duplicate kills the link.
	buf := make([]byte, 5)
	bc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(bc, buf); err != nil {
		t.Fatalf("first copy: %v", err)
	}
	n, err := bc.Read(buf)
	if err == nil || !errors.Is(err, ErrE2E) {
		t.Fatalf("replayed record: read returned n=%d err=%v", n, err)
	}
	ac.Close()
	bc.Close()
	alice.Close()
	bob.Close()
	check()
}

func TestResumeReauthenticates(t *testing.T) {
	check := testutil.LeakCheck(t, 4)
	w := newAuthWorld(t, "relay-0")
	aliceID := w.issue("alice")
	alice := w.attach("alice", aliceID, true)

	detached := make(chan error, 1)
	alice.SetDetachHandler(func(err error) { detached <- err })

	// Second relay with the same trust (a surviving mesh member) —
	// resume onto it must run the full authenticated handshake.
	srv2 := NewServer()
	srv2.SetID("relay-1")
	relay1ID, _ := w.ca.Issue("relay-1")
	srv2.SetAuth(AuthConfig{Identity: relay1ID, Trust: w.trust})
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(ln2)
	defer func() { ln2.Close(); srv2.Close() }()

	w.ln.Close()
	w.srv.Close()
	<-detached

	conn, err := net.Dial("tcp", ln2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.Resume(conn); err != nil {
		t.Fatalf("authenticated resume: %v", err)
	}
	if got := alice.ServerID(); got != "relay-1" {
		t.Fatalf("resumed onto %q", got)
	}
	if !strings.Contains(srv2.AttachedNodes()[0], "alice") {
		t.Fatalf("alice not attached after resume: %v", srv2.AttachedNodes())
	}
	// (A resume onto an impostor relay fails with the same typed error
	// as TestRelayImpostorRejected: Attach and Resume share the
	// handshake path.)
	alice.Close()
	check()
}

// TestExportKeyBindsLink: both ends of a sealed link export the same key
// for a label, and nothing else does — not a second link between the same
// two nodes, not a link to a third node, not another label. A plaintext
// link exports nil.
func TestExportKeyBindsLink(t *testing.T) {
	w := newAuthWorld(t, "relay-0")
	alice := w.attach("alice", w.issue("alice"), true)
	bob := w.attach("bob", w.issue("bob"), true)
	carol := w.attach("carol", w.issue("carol"), true)

	type exporter interface{ ExportKey(label string) []byte }
	link := func(from, to *Client) (dialed, accepted exporter) {
		t.Helper()
		accepts := make(chan net.Conn, 1)
		go func() {
			conn, err := to.Accept()
			if err != nil {
				t.Error(err)
			}
			accepts <- conn
		}()
		conn, err := from.Dial(to.ID(), 2*time.Second)
		if err != nil {
			t.Fatalf("dial %s: %v", to.ID(), err)
		}
		t.Cleanup(func() { conn.Close() })
		accepted, ok := (<-accepts).(exporter)
		if !ok {
			t.Fatalf("%s accepted no link", to.ID())
		}
		return conn.(exporter), accepted
	}

	ab, ba := link(alice, bob)
	key := ab.ExportKey("x")
	if len(key) != 32 || !bytes.Equal(key, ba.ExportKey("x")) {
		t.Fatalf("the two ends export %x and %x, want one 32-byte key", key, ba.ExportKey("x"))
	}
	ab2, _ := link(alice, bob)
	ac, _ := link(alice, carol)
	for what, other := range map[string][]byte{
		"a second link between the same nodes": ab2.ExportKey("x"),
		"a link to a third node":               ac.ExportKey("x"),
		"another label":                        ab.ExportKey("y"),
	} {
		if len(other) != 32 || bytes.Equal(other, key) {
			t.Errorf("%s exports %x; the first link's key is %x", what, other, key)
		}
	}

	// No identities, no handshake, no key.
	plain := NewServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go plain.Serve(ln)
	defer plain.Close()
	defer ln.Close()
	anon := func(id string) *Client {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		cli, err := Attach(conn, id)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cli.Close() })
		return cli
	}
	pd, pa := link(anon("dave"), anon("erin"))
	if pd.ExportKey("x") != nil || pa.ExportKey("x") != nil {
		t.Fatal("a plaintext link exported a key")
	}
}
