package relay

// Adversarial test suite for the authenticated attach handshake and the
// end-to-end sealed routed links: every spoof, replay, downgrade and
// garbage case must fail closed with a typed error — and leak neither
// goroutines nor links while doing so.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
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

// attach attaches a node with its identity and the deployment's trust:
// a client that seals every routed link.
func (w *authWorld) attach(name string, id *identity.Identity) *Client {
	w.t.Helper()
	return w.attachWith(name, &AuthConfig{Identity: id, Trust: w.trust})
}

func (w *authWorld) attachWith(name string, auth *AuthConfig) *Client {
	w.t.Helper()
	cli, err := AttachAuth(w.dial(), name, auth)
	if err != nil {
		w.t.Fatalf("attach %s: %v", name, err)
	}
	w.t.Cleanup(func() { cli.Close() })
	return cli
}

// acceptUsed accepts cli's next link and writes nothing on it: a first
// use, which answers a sealed open without sending a data frame, so the
// dial completes.
func acceptUsed(t *testing.T, cli *Client) <-chan net.Conn {
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := cli.Accept()
		if err == nil {
			_, err = conn.Write(nil)
		}
		if err != nil {
			t.Error(err)
		}
		accepted <- conn
	}()
	return accepted
}

func TestAuthenticatedAttachAndSealedLink(t *testing.T) {
	check := testutil.LeakCheck(t, 3)
	w := newAuthWorld(t, "relay-0")
	alice := w.attach("alice", w.issue("alice"))
	bob := w.attach("bob", w.issue("bob"))

	done := acceptUsed(t, bob)
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

// TestSealedOpenByPurpose: every open is sealed one way, whatever its
// purpose (none, service, data). Between two clients that can seal, an
// accepted link is answered on its first use — once, however many
// goroutines use it at once — and then both ends export one key; closed
// unused it is refused; abandoned unanswered it says so and never reads.
// A capable acceptor refuses an open that carries no offer, a capable
// dialer fails an open-OK that carries no answer with
// identity.ErrDowngraded, and only two clients that cannot seal link in
// plaintext. An open waiting for its answer holds up no other link:
// frames of a live link cross meanwhile. Nothing is left registered.
func TestSealedOpenByPurpose(t *testing.T) {
	check := testutil.LeakCheck(t, 3)
	w := newAuthWorld(t, "relay-0")
	sealA := w.attach("seal-a", w.issue("seal-a"))
	sealB := w.attach("seal-b", w.issue("seal-b"))
	// An identity without a trust store authenticates the attach but
	// cannot verify a peer, so it cannot seal.
	plainA := w.attachWith("plain-a", &AuthConfig{Identity: w.issue("plain-a")})
	plainB := w.attachWith("plain-b", &AuthConfig{Identity: w.issue("plain-b")})

	type dialed struct {
		conn net.Conn
		err  error
	}
	dial := func(from, to *Client, purpose byte, conv uint64, cancel <-chan struct{}) <-chan dialed {
		res := make(chan dialed, 1)
		go func() {
			conn, err := from.DialPurpose(to.ID(), purpose, conv, 2*time.Second, cancel)
			res <- dialed{conn, err}
		}()
		return res
	}
	accept := func(t *testing.T, to *Client, purpose byte, conv uint64) net.Conn {
		t.Helper()
		conn, err := to.Accept()
		if err != nil {
			t.Fatal(err)
		}
		if p, k := conn.(*routedConn).Purpose(); p != purpose || k != conv {
			t.Fatalf("accepted purpose %d, establishment %d; want %d, %d", p, k, purpose, conv)
		}
		return conn
	}
	type exporter interface{ ExportKey(label string) []byte }

	// A live sealed link from seal-a to seal-b, whose frames seal-b's read
	// loop dispatches while an open waits for its answer.
	liveRes := dial(sealA, sealB, 0, 0, nil)
	liveIn := accept(t, sealB, 0, 0)
	liveIn.Write(nil)
	live := <-liveRes
	if live.err != nil {
		t.Fatal(live.err)
	}
	crosses := func(t *testing.T) {
		t.Helper()
		if _, err := live.conn.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 4)
		liveIn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := io.ReadFull(liveIn, got); err != nil || string(got) != "ping" {
			t.Fatalf("a live link's frame did not cross while an open waited: %q, %v", got, err)
		}
	}

	for _, p := range []struct {
		name    string
		purpose byte
		conv    uint64
	}{{"none", 0, 0}, {"service", PurposeService, 0}, {"data", PurposeData, 5}} {
		t.Run(p.name, func(t *testing.T) {
			t.Run("answered on first use", func(t *testing.T) {
				res := dial(sealA, sealB, p.purpose, p.conv, nil)
				in := accept(t, sealB, p.purpose, p.conv)
				crosses(t)
				// answerOpen takes an open out of opening before it acks
				// it, so one still held there is unanswered.
				rc := in.(*routedConn)
				sealB.mu.Lock()
				held := sealB.opening[linkID{peer: rc.peer, channel: rc.channel}] == rc
				sealB.mu.Unlock()
				if !held {
					t.Fatal("open answered before the link was used")
				}
				var wg sync.WaitGroup
				for range 4 {
					wg.Add(2)
					go func() {
						defer wg.Done()
						if _, err := in.Write([]byte("y")); err != nil {
							t.Error(err)
						}
					}()
					go func() {
						defer wg.Done()
						if len(in.(exporter).ExportKey("x")) != 32 {
							t.Error("a concurrent first use exports no key")
						}
					}()
				}
				wg.Wait()
				d := <-res
				if d.err != nil {
					t.Fatalf("dial after use: %v", d.err)
				}
				got := make([]byte, 4)
				if _, err := io.ReadFull(d.conn, got); err != nil || string(got) != "yyyy" {
					t.Fatalf("read %q, %v", got, err)
				}
				if key := in.(exporter).ExportKey("x"); len(key) != 32 || !bytes.Equal(key, d.conn.(exporter).ExportKey("x")) {
					t.Fatal("the two ends of the used link derive no common key")
				}
				in.Close()
				d.conn.Close()
			})
			t.Run("closed unused", func(t *testing.T) {
				res := dial(sealA, sealB, p.purpose, p.conv, nil)
				accept(t, sealB, p.purpose, p.conv).Close()
				if d := <-res; !errors.Is(d.err, ErrRefused) {
					t.Fatalf("dial of a link closed unused: %v, want ErrRefused", d.err)
				}
			})
			t.Run("abandoned unanswered", func(t *testing.T) {
				cancel := make(chan struct{})
				res := dial(sealA, sealB, p.purpose, p.conv, cancel)
				in := accept(t, sealB, p.purpose, p.conv)
				close(cancel)
				if d := <-res; !errors.Is(d.err, ErrDialCanceled) {
					t.Fatalf("canceled dial: %v", d.err)
				}
				if why := testutil.Settle(func() (bool, string) {
					return in.(*routedConn).Abandoned(), "a link abandoned unanswered does not say so"
				}); why != "" {
					t.Fatal(why)
				}
				if _, err := in.Read(make([]byte, 1)); err == nil {
					t.Fatal("an abandoned link reads")
				}
				in.Close()
			})
			t.Run("offer-less open to a capable acceptor", func(t *testing.T) {
				if d := <-dial(plainA, sealB, p.purpose, p.conv, nil); !errors.Is(d.err, ErrRefused) {
					t.Fatalf("dial without an offer: %v, want ErrRefused", d.err)
				}
			})
			t.Run("answer-less open-OK to a capable dialer", func(t *testing.T) {
				res := dial(sealA, plainB, p.purpose, p.conv, nil)
				in := accept(t, plainB, p.purpose, p.conv)
				if d := <-res; !errors.Is(d.err, identity.ErrDowngraded) {
					t.Fatalf("dial answered without an answer: %v, want ErrDowngraded", d.err)
				}
				if why := testutil.Settle(func() (bool, string) {
					return in.(*routedConn).Abandoned(), "the acceptor's plaintext half was not abandoned"
				}); why != "" {
					t.Fatal(why)
				}
				in.Close()
			})
			t.Run("neither side capable", func(t *testing.T) {
				res := dial(plainA, plainB, p.purpose, p.conv, nil)
				in := accept(t, plainB, p.purpose, p.conv)
				d := <-res
				if d.err != nil {
					t.Fatalf("plaintext dial: %v", d.err)
				}
				if _, err := d.conn.Write([]byte("clear")); err != nil {
					t.Fatal(err)
				}
				got := make([]byte, 5)
				if _, err := io.ReadFull(in, got); err != nil || string(got) != "clear" {
					t.Fatalf("read %q, %v", got, err)
				}
				if d.conn.(exporter).ExportKey("x") != nil || in.(exporter).ExportKey("x") != nil {
					t.Fatal("a plaintext link exported a key")
				}
				in.Close()
				d.conn.Close()
			})
		})
	}

	live.conn.Close()
	liveIn.Close()
	for _, c := range []*Client{sealA, sealB, plainA, plainB} {
		if why := testutil.Settle(func() (bool, string) {
			c.mu.Lock()
			opening := len(c.opening)
			c.mu.Unlock()
			return opening == 0 && c.LinkCount() == 0,
				fmt.Sprintf("%s: %d unanswered and %d registered links left", c.ID(), opening, c.LinkCount())
		}); why != "" {
			t.Fatal(why)
		}
		c.Close()
	}
	check()
}

// TestTimedOutSealedDialLeavesNoHalf: a sealed service open whose dial
// times out is withdrawn like a canceled one. The acceptor, which holds
// the open unanswered and uses it only after the dialer gave up, fails
// that use with ErrAbandoned — whether the abandon came first or the use
// answered the open and the abandon then tore the link down — instead of
// writing into the void, and neither client keeps a link.
func TestTimedOutSealedDialLeavesNoHalf(t *testing.T) {
	w := newAuthWorld(t, "relay-0")
	a := w.attach("seal-a", w.issue("seal-a"))
	b := w.attach("seal-b", w.issue("seal-b"))
	check := testutil.LeakCheck(t, 0)
	if _, err := a.DialPurpose(b.ID(), PurposeService, 0, 100*time.Millisecond, nil); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("an unanswered dial after its timeout: %v, want ErrUnknownPeer", err)
	}
	in, err := b.Accept()
	if err != nil {
		t.Fatal(err)
	}
	// The abandon and this use race; whichever lands first, the use fails
	// once the abandon is in.
	if why := testutil.Settle(func() (bool, string) {
		_, err := in.Write([]byte("late"))
		return errors.Is(err, ErrAbandoned), fmt.Sprintf("the acceptor's use after the dialer gave up: %v, want ErrAbandoned", err)
	}); why != "" {
		t.Fatal(why)
	}
	in.Close()
	if why := testutil.Settle(func() (bool, string) {
		na, nb := a.LinkCount(), b.LinkCount()
		return na == 0 && nb == 0, fmt.Sprintf("links: dialer %d, acceptor %d; want none", na, nb)
	}); why != "" {
		t.Fatal(why)
	}
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

	// Run the handshake manually, answering the fresh hello with a proof
	// captured for a *previous* exchange (a stale nonce): the relay must
	// detect the replay, not just a bad signature.
	conn := w.dial()
	defer conn.Close()
	fw := wire.NewWriter(conn)
	fr := wire.NewReader(conn)
	clientNonce, _ := identity.NewNonce()
	hello := identity.Hello{ID: "alice", Nonce: clientNonce, Announce: alice.Announce()}
	if err := fw.WriteFrame(KindAttach, 0, identity.AppendHello(nil, hello)); err != nil {
		t.Fatal(err)
	}
	f, err := fr.ReadFrame()
	if err != nil || f.Kind != identity.KindHello {
		t.Fatalf("expected the relay's hello, got %v %v", f, err)
	}
	rh, err := identity.DecodeHello(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	// Replay: sign and echo an *old* relay nonce instead of the fresh one.
	stale := make([]byte, identity.NonceSize)
	tr := identity.Transcript{Purpose: identity.Attach, InitID: "alice", RespID: rh.ID, NonceI: clientNonce, NonceR: stale}
	proof := identity.Proof{Echo: stale, Sig: tr.Sign(alice, identity.Initiator)}
	if err := fw.WriteFrame(identity.KindProof, 0, identity.AppendProof(nil, proof)); err != nil {
		t.Fatal(err)
	}
	f, err = fr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != identity.KindVerdict {
		t.Fatalf("expected a verdict, got kind %d", f.Kind)
	}
	d := wire.NewDecoder(f.Payload)
	if code, replay := d.Uvarint(), verdictOf(identity.ErrReplayedNonce); code != replay {
		t.Fatalf("expected replay code %d, got %d", replay, code)
	}
	check()
}

// verdictOf is the verdict code a relay refuses with for err.
func verdictOf(err error) uint64 {
	c, _ := identity.VerdictCode(err)
	return uint64(c)
}

func TestAttachGarbageHandshakeFrames(t *testing.T) {
	check := testutil.LeakCheck(t, 3)
	w := newAuthWorld(t, "relay-0")
	alice := w.issue("alice")

	// Garbage attach hello: must be refused as malformed, not panic or
	// hang.
	conn := w.dial()
	fw := wire.NewWriter(conn)
	fr := wire.NewReader(conn)
	body := wire.AppendString(nil, "alice")
	body = append(body, 0xff, 0xff, 0xff) // truncated hello
	if err := fw.WriteFrame(KindAttach, 0, body); err != nil {
		t.Fatal(err)
	}
	f, err := fr.ReadFrame()
	if err != nil || f.Kind != identity.KindVerdict {
		t.Fatalf("garbage hello: got %v %v", f, err)
	}
	conn.Close()

	// Garbage proof after a valid hello.
	conn = w.dial()
	fw = wire.NewWriter(conn)
	fr = wire.NewReader(conn)
	clientNonce, _ := identity.NewNonce()
	body = identity.AppendHello(nil, identity.Hello{ID: "alice", Nonce: clientNonce, Announce: alice.Announce()})
	fw.WriteFrame(KindAttach, 0, body)
	if f, err = fr.ReadFrame(); err != nil || f.Kind != identity.KindHello {
		t.Fatalf("expected the relay's hello: %v %v", f, err)
	}
	fw.WriteFrame(identity.KindProof, 0, []byte{0x01})
	if f, err = fr.ReadFrame(); err != nil || f.Kind != identity.KindVerdict {
		t.Fatalf("garbage proof: got %v %v", f, err)
	}
	conn.Close()

	// A wrong frame kind instead of the proof.
	conn = w.dial()
	fw = wire.NewWriter(conn)
	fr = wire.NewReader(conn)
	fw.WriteFrame(KindAttach, 0, body)
	if f, err = fr.ReadFrame(); err != nil || f.Kind != identity.KindHello {
		t.Fatalf("expected the relay's hello: %v %v", f, err)
	}
	fw.WriteFrame(KindData, 0, []byte("nope"))
	if f, err = fr.ReadFrame(); err != nil || f.Kind != identity.KindVerdict {
		t.Fatalf("wrong-kind proof: got %v %v", f, err)
	}
	conn.Close()
	check()
}

// TestCloseCutsStalledAttach: a node that opens an identity attach and
// never answers the relay's hello holds up no part of Close, which
// closes a connection still in its handshake rather than waiting out the
// handshake's deadline.
func TestCloseCutsStalledAttach(t *testing.T) {
	check := testutil.LeakCheck(t, 3)
	w := newAuthWorld(t, "relay-0")
	alice := w.issue("alice")
	conn := w.dial()
	defer conn.Close()
	fw, fr := wire.NewWriter(conn), wire.NewReader(conn)
	fw.WriteFrame(KindAttach, 0, identity.AppendHello(nil, identity.Hello{ID: "alice", Announce: alice.Announce()}))
	if f, err := fr.ReadFrame(); err != nil || f.Kind != identity.KindHello {
		t.Fatalf("expected the relay's hello: %v %v", f, err)
	}
	// The relay now waits for a proof that never comes.
	start := time.Now()
	w.srv.Close()
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %v behind a stalled attach", took)
	}
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
		from, window, _, purpose, conv, err := decodeOpenBody(body)
		if err != nil {
			return passFrame(kind, flags, payload)
		}
		body = appendPurpose(appendOpenBody(nil, from, window, nil), purpose, conv)
		return []proxyFrame{{kind: kind, flags: flags, payload: AppendRouted(nil, string(dst), channel, body)}}
	}
}

func TestDowngradeStrippedOfferFailsClosed(t *testing.T) {
	check := testutil.LeakCheck(t, 4)
	w := newAuthWorld(t, "relay-0")
	proxy := newTamperProxy(t, w.ln.Addr().String(), stripE2EBlob(KindOpen))

	bob := w.attach("bob", w.issue("bob"))
	go func() {
		// Bob never sees a valid secure open; it refuses each one, so
		// nothing arrives here. The Accept unblocks on Close.
		for {
			if _, err := bob.Accept(); err != nil {
				return
			}
		}
	}()

	// Alice attaches *through the tampering proxy*.
	aliceID := w.issue("alice")
	conn, err := net.Dial("tcp", proxy.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	alice, err := AttachAuth(conn, "alice", &AuthConfig{Identity: aliceID, Trust: w.trust})
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()

	// The stripped open reaches Bob as a plaintext open; Bob can seal
	// and refuses it, so the dial fails — and must *not* produce a
	// usable cleartext link.
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
			conn, err := bob.Accept()
			if err != nil {
				return
			}
			conn.Write(nil) // the first use answers; the proxy strips the answer
		}
	}()

	alice := w.attach("alice", w.issue("alice"))
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
	alice := w.attach("alice", w.issue("alice"))
	bob := w.attach("bob", w.issue("bob"))
	// Mallory authenticates legitimately — then forges data frames
	// claiming to come from alice on alice's link to bob. A
	// trust-enforcing relay pins the embedded source to the
	// authenticated attachment, so the forgeries are dropped at the
	// edge: they never reach bob and cannot reset the sealed link.
	mallory := w.attach("mallory", w.issue("mallory"))

	accepted := acceptUsed(t, bob)
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

	bob := w.attach("bob", w.issue("bob"))
	accepted := acceptUsed(t, bob)

	aliceID := w.issue("alice")
	conn, err := net.Dial("tcp", proxy.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	alice, err := AttachAuth(conn, "alice", &AuthConfig{Identity: aliceID, Trust: w.trust})
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

	bob := w.attach("bob", w.issue("bob"))
	accepted := acceptUsed(t, bob)

	aliceID := w.issue("alice")
	conn, err := net.Dial("tcp", proxy.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	alice, err := AttachAuth(conn, "alice", &AuthConfig{Identity: aliceID, Trust: w.trust})
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
	alice := w.attach("alice", aliceID)

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
	if err := alice.Resume(conn, nil); err != nil {
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
	alice := w.attach("alice", w.issue("alice"))
	bob := w.attach("bob", w.issue("bob"))
	carol := w.attach("carol", w.issue("carol"))

	type exporter interface{ ExportKey(label string) []byte }
	link := func(from, to *Client) (dialed, accepted exporter) {
		t.Helper()
		accepts := acceptUsed(t, to)
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
