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
		&relay.AuthConfig{Identity: aliceID, Trust: trust, RequireE2E: true})
	defer alice.Close()
	bob := dialAttach(t, relayB.addr(), "pool/bob",
		&relay.AuthConfig{Identity: bobID, Trust: trust, RequireE2E: true})
	defer bob.Close()

	// Alice's failover policy: resume on relay B when her relay dies.
	resumed := make(chan error, 1)
	alice.SetDetachHandler(func(error) {
		conn, err := net.Dial("tcp", relayB.addr())
		if err != nil {
			resumed <- err
			return
		}
		resumed <- alice.Resume(conn)
	})

	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := bob.Accept()
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
	// runs the full challenge/response against relay B's identity) and
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

	// A direct peer-link attempt is rejected by the trusted relay: the
	// dialer cannot tell synchronously (its own half of the handshake
	// succeeds before the acceptor's verdict arrives), but the trusted
	// relay never admits the link and the rogue's half dies with the
	// closed connection.
	rogueOv.AddPeer(good.addr())
	if why := testutil.Settle(func() (bool, string) {
		return len(good.ov.Peers()) == 0 && len(rogueOv.Peers()) == 0,
			fmt.Sprintf("rogue peer link survived: good=%v rogue=%v", good.ov.Peers(), rogueOv.Peers())
	}); why != "" {
		t.Fatal(why)
	}
}
