package overlay

// Live-TCP end-to-end security test: a two-relay mesh over real TCP
// listeners (the same servers the netibis-relay/netibis-nameserver
// daemons run), with the relay-to-relay forwarding path instrumented to
// capture every routed payload it carries. The captured bytes must
// contain none of the application plaintext — the relays are blind —
// and killing one relay must re-authenticate the failed-over node on
// the survivor and resume the sealed link intact.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"netibis/internal/identity"
	"netibis/internal/nameservice"
	"netibis/internal/relay"
	"netibis/internal/testutil"
	"netibis/internal/wire"
)

// captureForwarder wraps the overlay's Forwarder and records the routed
// payload of every data frame handed to the mesh — exactly the bytes an
// untrusted (or compromised) relay operator could log.
type captureForwarder struct {
	inner relay.Forwarder

	mu     sync.Mutex
	frames [][]byte
}

func (c *captureForwarder) ForwardFrame(srcNode string, dstNode []byte, kind byte, payload []byte, owner *wire.Buf) (string, bool) {
	if kind == relay.KindData {
		c.mu.Lock()
		c.frames = append(c.frames, append([]byte(nil), payload...))
		c.mu.Unlock()
	}
	return c.inner.ForwardFrame(srcNode, dstNode, kind, payload, owner)
}

func (c *captureForwarder) NodeAttached(id string) { c.inner.NodeAttached(id) }
func (c *captureForwarder) NodeDetached(id string) { c.inner.NodeDetached(id) }

func (c *captureForwarder) captured() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.frames...)
}

// tcpRelay is one live relay daemon: server + overlay over a real TCP
// listener, with the forwarding path instrumented.
type tcpRelay struct {
	id      string
	srv     *relay.Server
	ov      *Relay
	ln      net.Listener
	capture *captureForwarder
}

func (r *tcpRelay) addr() string { return r.ln.Addr().String() }

func (r *tcpRelay) kill() {
	r.ov.Kill()
	r.ln.Close()
	r.srv.Close()
}

func startTCPRelay(t *testing.T, id string, ca *identity.Authority, trust *identity.TrustStore, nsAddr string) *tcpRelay {
	t.Helper()
	ident, err := ca.Issue(id)
	if err != nil {
		t.Fatal(err)
	}
	srv := relay.NewServer()
	srv.SetAuth(relay.AuthConfig{Identity: ident, Trust: trust})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	nsConn, err := net.Dial("tcp", nsAddr)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := New(Config{
		ID:        id,
		Server:    srv,
		Advertise: ln.Addr().String(),
		Registry:  nameservice.NewClient(nsConn),
		Dial: func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 2*time.Second)
		},
		RescanInterval: 25 * time.Millisecond,
		Identity:       ident,
		Trust:          trust,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Instrument the forwarding path *after* the overlay installed
	// itself: every frame handed to the mesh is recorded first.
	cap := &captureForwarder{inner: ov}
	srv.SetForwarder(cap)
	return &tcpRelay{id: id, srv: srv, ov: ov, ln: ln, capture: cap}
}

// dialAttach attaches a node to a relay over live TCP with full security.
func dialAttach(t *testing.T, addr, nodeID string, auth *relay.AuthConfig) *relay.Client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := relay.AttachAuth(conn, nodeID, auth)
	if err != nil {
		t.Fatalf("attach %s: %v", nodeID, err)
	}
	return cli
}

// dialRetry dials a routed link, retrying refusals while directory
// gossip crosses the mesh.
func dialRetry(t *testing.T, cli *relay.Client, peer string, timeout time.Duration) net.Conn {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		conn, err := cli.Dial(peer, time.Until(deadline))
		if err == nil {
			return conn
		}
		if !errors.Is(err, relay.ErrRefused) && !errors.Is(err, relay.ErrDetached) || time.Now().After(deadline) {
			t.Fatalf("dial %s: %v", peer, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestLiveTCPRelayBlindMeshWithFailover(t *testing.T) {
	// Registered before the deferred shutdowns, so it runs after them.
	t.Cleanup(testutil.LeakCheck(t, 3))
	ca, err := identity.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	trust := ca.TrustStore()

	// Live name service daemon, enforcing the signed-record policy.
	ns := nameservice.NewServer()
	ns.SetVerifier(identity.RegistryVerifier(trust))
	nsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ns.Serve(nsLn)
	defer func() {
		nsLn.Close()
		ns.Close()
	}()

	relayA := startTCPRelay(t, "relay-a", ca, trust, nsLn.Addr().String())
	relayB := startTCPRelay(t, "relay-b", ca, trust, nsLn.Addr().String())
	defer relayB.kill()
	relayAKilled := false
	defer func() {
		if !relayAKilled {
			relayA.kill()
		}
	}()

	if why := testutil.Settle(func() (bool, string) {
		return len(relayA.ov.Peers()) == 1 && len(relayB.ov.Peers()) == 1,
			fmt.Sprintf("mesh not formed: A=%v B=%v", relayA.ov.Peers(), relayB.ov.Peers())
	}); why != "" {
		t.Fatal(why)
	}

	aliceID, _ := ca.Issue("pool/alice")
	bobID, _ := ca.Issue("pool/bob")
	alice := dialAttach(t, relayA.addr(), "pool/alice",
		&relay.AuthConfig{Identity: aliceID, Trust: trust})
	defer alice.Close()
	bob := dialAttach(t, relayB.addr(), "pool/bob",
		&relay.AuthConfig{Identity: bobID, Trust: trust})
	defer bob.Close()

	// Alice's failover policy: resume on relay B when her relay dies.
	resumed := make(chan error, 1)
	alice.SetDetachHandler(func(error) {
		conn, err := net.Dial("tcp", relayB.addr())
		if err != nil {
			resumed <- err
			return
		}
		resumed <- alice.Resume(conn, nil)
	})

	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := bob.Accept()
		if err == nil {
			// A sealed open is answered on the link's first use; a write
			// of nothing is one, and sends no frame.
			_, err = conn.Write(nil)
		}
		if err != nil {
			accepted <- nil
			return
		}
		accepted <- conn
	}()

	ac := dialRetry(t, alice, "pool/bob", 5*time.Second)
	bc := <-accepted
	if bc == nil {
		t.Fatal("accept failed")
	}

	// A distinctive plaintext, larger than one relay frame, so multiple
	// sealed records cross the mesh.
	marker := []byte("TOP-SECRET-GRID-PAYLOAD")
	plaintext := bytes.Repeat(marker, 4096) // ~92 KiB
	recvDone := make(chan []byte, 1)
	go func() {
		buf := make([]byte, len(plaintext))
		if _, err := io.ReadFull(bc, buf); err != nil {
			t.Errorf("receive: %v", err)
			recvDone <- nil
			return
		}
		recvDone <- buf
	}()
	if _, err := ac.Write(plaintext); err != nil {
		t.Fatal(err)
	}
	got := <-recvDone
	if !bytes.Equal(got, plaintext) {
		t.Fatal("transfer corrupted")
	}

	// The mesh carried the transfer — and saw only ciphertext. Check
	// every captured forwarded frame (either direction, both relays)
	// for any fragment of the plaintext; even an 8-byte window of the
	// marker must not appear.
	capturedFrames := append(relayA.capture.captured(), relayB.capture.captured()...)
	if len(capturedFrames) == 0 {
		t.Fatal("instrumented relays captured no forwarded data frames")
	}
	captured := bytes.Join(capturedFrames, nil)
	for i := 0; i+8 <= len(marker); i++ {
		if bytes.Contains(captured, marker[i:i+8]) {
			t.Fatalf("plaintext fragment %q visible in forwarded frames", marker[i:i+8])
		}
	}
	t.Logf("relay-blindness: %d forwarded data frames (%d bytes) captured, zero plaintext",
		len(capturedFrames), len(captured))

	// Kill alice's relay. She must re-authenticate on relay B (Resume
	// runs the full handshake against relay B's identity) and
	// the sealed link must survive: the explicit record sequence
	// tolerates the frames lost with relay A.
	relayAKilled = true
	relayA.kill()
	if err := <-resumed; err != nil {
		t.Fatalf("authenticated resume: %v", err)
	}
	if got := alice.ServerID(); got != "relay-b" {
		t.Fatalf("alice resumed onto %q", got)
	}

	after := []byte("POST-FAILOVER-STILL-SEALED")
	go func() {
		buf := make([]byte, len(after))
		if _, err := io.ReadFull(bc, buf); err != nil {
			t.Errorf("post-failover receive: %v", err)
			recvDone <- nil
			return
		}
		recvDone <- buf
	}()
	if _, err := ac.Write(after); err != nil {
		t.Fatalf("post-failover write: %v", err)
	}
	if got := <-recvDone; !bytes.Equal(got, after) {
		t.Fatalf("post-failover transfer corrupted: %q", got)
	}

	ac.Close()
	bc.Close()
	alice.Close()
	bob.Close()
}

// TestLiveTCPRogueRelayCannotJoinMesh: a relay with an identity outside
// the deployment trust tries to federate with a trusted relay — the
// peer link must be refused in both directions, and the rogue's
// registry record must be denied, so it can never become a hop on
// anyone's route.
func TestLiveTCPRogueRelayCannotJoinMesh(t *testing.T) {
	// Registered before the deferred shutdowns, so it runs after them.
	t.Cleanup(testutil.LeakCheck(t, 3))
	ca, _ := identity.NewAuthority()
	trust := ca.TrustStore()

	ns := nameservice.NewServer()
	ns.SetVerifier(identity.RegistryVerifier(trust))
	nsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ns.Serve(nsLn)
	defer func() {
		nsLn.Close()
		ns.Close()
	}()

	good := startTCPRelay(t, "relay-good", ca, trust, nsLn.Addr().String())
	defer good.kill()

	// The rogue relay: self-issued CA, so its identity and signatures
	// are well-formed but untrusted.
	rogueCA, _ := identity.NewAuthority()
	rogueIdent, _ := rogueCA.Issue("relay-rogue")
	rogueSrv := relay.NewServer()
	rogueLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rogueSrv.Serve(rogueLn)
	defer func() {
		rogueLn.Close()
		rogueSrv.Close()
	}()
	rogueTrust := rogueCA.TrustStore()
	rogueTrust.AddAuthority(ca.Public) // the rogue even trusts the deployment!
	rogueOv, err := New(Config{
		ID:        "relay-rogue",
		Server:    rogueSrv,
		Advertise: rogueLn.Addr().String(),
		Dial: func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 2*time.Second)
		},
		Identity: rogueIdent,
		Trust:    rogueTrust,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rogueOv.Kill()

	// Its registry record is denied (signed by an untrusted identity).
	nsConn, err := net.Dial("tcp", nsLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	rogueReg := nameservice.NewClient(nsConn)
	defer rogueReg.Close()
	err = rogueReg.Register(RegistryPrefix+"relay-rogue",
		identity.SealRecord(rogueIdent, RegistryPrefix+"relay-rogue", []byte(rogueLn.Addr().String())))
	if !errors.Is(err, nameservice.ErrDenied) {
		t.Fatalf("rogue registry record: got %v", err)
	}

	// A direct peer-link attempt is refused by the trusted relay, and the
	// dialer learns why before AddPeer returns: the verdict names the
	// failed check. Neither side ever held the link.
	if err := rogueOv.AddPeer(good.addr()); !errors.Is(err, identity.ErrUnknownIdentity) {
		t.Fatalf("rogue peer link: got %v, want ErrUnknownIdentity", err)
	}
	if len(good.ov.Peers()) != 0 || len(rogueOv.Peers()) != 0 {
		t.Fatalf("rogue peer link admitted: good=%v rogue=%v", good.ov.Peers(), rogueOv.Peers())
	}
}

// TestCloseCutsStalledPeerHello: a dialer that opens a peer hello to a
// relay that holds a trust store and never answers its hello holds up no
// part of the relay server's Close, which closes a connection still in
// its handshake rather than waiting out the handshake's deadline.
func TestCloseCutsStalledPeerHello(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t, 3))
	ca, _ := identity.NewAuthority()
	ident, _ := ca.Issue("relay-0")
	dialer, _ := ca.Issue("relay-1")
	srv := relay.NewServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	ov, err := New(Config{
		ID:       "relay-0",
		Server:   srv,
		Dial:     func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) },
		Identity: ident,
		Trust:    ca.TrustStore(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ov.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fw, fr := wire.NewWriter(conn), wire.NewReader(conn)
	fw.WriteFrame(kindPeerHello, 0, identity.AppendHello(nil, identity.Hello{ID: "relay-1", Announce: dialer.Announce()}))
	if f, err := fr.ReadFrame(); err != nil || f.Kind != identity.KindHello {
		t.Fatalf("expected the relay's hello: %v %v", f, err)
	}
	// The relay now waits for a proof that never comes.
	start := time.Now()
	srv.Close()
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %v behind a stalled peer hello", took)
	}
}

// TestCloseCutsPendingAddPeer: a peer-link dial to a listener that reads
// the hello and never answers holds up no part of the overlay's Close,
// neither a rescan's dial, which Close waits for, nor a direct AddPeer,
// which returns ErrClosed: Close closes a connection still in its
// handshake rather than waiting out the handshake's deadline.
func TestCloseCutsPendingAddPeer(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t, 3))
	mute, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	accepted := make(chan struct{}, 2)
	go func() {
		for {
			c, err := mute.Accept()
			if err != nil {
				return
			}
			accepted <- struct{}{}
			go func() {
				io.Copy(io.Discard, c)
				c.Close()
			}()
		}
	}()

	ns := nameservice.NewServer()
	nsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ns.Serve(nsLn)
	defer func() {
		nsLn.Close()
		ns.Close()
	}()
	nsConn, err := net.Dial("tcp", nsLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	reg := nameservice.NewClient(nsConn)
	defer reg.Close()
	srv := relay.NewServer()
	defer srv.Close()
	ov, err := New(Config{
		ID:             "relay-a",
		Server:         srv,
		Advertise:      "127.0.0.1:1",
		Registry:       reg,
		Dial:           func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) },
		RescanInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Registered after New's first scan, so a rescan dials it.
	if err := reg.Register(RegistryPrefix+"relay-z", []byte(mute.Addr().String())); err != nil {
		t.Fatal(err)
	}
	<-accepted
	added := make(chan error, 1)
	go func() { added <- ov.AddPeer(mute.Addr().String()) }()
	<-accepted

	start := time.Now()
	ov.Close()
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %v behind a pending peer handshake", took)
	}
	select {
	case err := <-added:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("pending AddPeer returned %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("pending AddPeer still running a second after Close")
	}
}

// ListRelays, the one reader of relay records for nodes and relays alike,
// returns under a trust store only the records signed by the relay they
// name, and without one every record, a sealed one unwrapped.
func TestListRelaysVerifiesUnderTrust(t *testing.T) {
	w := newMeshWorld(t, 0)
	conn, err := w.gwSite.AddHost("lister").Dial(w.nsEP)
	if err != nil {
		t.Fatal(err)
	}
	reg := nameservice.NewClient(conn)
	defer reg.Close()
	ca, err := identity.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	stranger, err := identity.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	trust := identity.NewTrustStore()
	trust.AddAuthority(ca.Public)
	issue := func(a *identity.Authority, name string) *identity.Identity {
		id, err := a.Issue(name)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	relayA := issue(ca, "relay-a")
	// relay-b's record is signed by another relay, relay-c's by no one
	// and relay-d's by an identity the trust store does not know.
	records := map[string][]byte{
		"relay-a": identity.SealRecord(relayA, RegistryPrefix+"relay-a", []byte("addr-a")),
		"relay-b": identity.SealRecord(relayA, RegistryPrefix+"relay-b", []byte("addr-b")),
		"relay-c": []byte("addr-c"),
		"relay-d": identity.SealRecord(issue(stranger, "relay-d"), RegistryPrefix+"relay-d", []byte("addr-d")),
	}
	for id, val := range records {
		if err := reg.Register(RegistryPrefix+id, val); err != nil {
			t.Fatal(err)
		}
	}
	list := func(trust *identity.TrustStore) string {
		ads, err := ListRelays(reg, trust)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, ad := range ads {
			got = append(got, ad.ID+"="+ad.Addr)
		}
		sort.Strings(got)
		return strings.Join(got, " ")
	}
	if got, want := list(trust), "relay-a=addr-a"; got != want {
		t.Errorf("under trust: %q, want %q", got, want)
	}
	if got, want := list(nil), "relay-a=addr-a relay-b=addr-b relay-c=addr-c relay-d=addr-d"; got != want {
		t.Errorf("without trust: %q, want %q", got, want)
	}
}
