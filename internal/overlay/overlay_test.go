package overlay

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"netibis/internal/emunet"
	"netibis/internal/nameservice"
	"netibis/internal/relay"
	"netibis/internal/wire"
)

// --- directory unit tests ----------------------------------------------------------

func TestDirectoryVersioning(t *testing.T) {
	d := newDirectory("observer")

	e1 := d.localUpdate("n1", "relay-0", true)
	if e1.Version != 1 || !e1.Present {
		t.Fatalf("first attach entry = %+v", e1)
	}
	if home, ok := d.lookup([]byte("n1")); !ok || home != "relay-0" {
		t.Fatalf("lookup after attach = %q %v", home, ok)
	}

	// A reattach elsewhere carries a higher version and wins.
	if !d.merge(Entry{Node: "n1", Home: "relay-1", Version: 2, Present: true}) {
		t.Fatal("higher-version entry should be adopted")
	}
	if home, _ := d.lookup([]byte("n1")); home != "relay-1" {
		t.Fatalf("home after merge = %q", home)
	}

	// Stale lower-version gossip is rejected.
	if d.merge(Entry{Node: "n1", Home: "relay-9", Version: 1, Present: true}) {
		t.Fatal("lower-version entry must not be adopted")
	}

	// A tombstone is authoritative only about its own relay: a foreign
	// detach record must not kill the attachment at relay-1, even with a
	// higher version (the old home's version can race ahead of the new
	// home's by exactly the gossip in flight during a failover).
	if d.merge(Entry{Node: "n1", Home: "relay-0", Version: 5, Present: false}) {
		t.Fatal("foreign tombstone must not retract another relay's attachment")
	}
	if home, ok := d.lookup([]byte("n1")); !ok || home != "relay-1" {
		t.Fatalf("present record should survive a foreign tombstone: %q %v", home, ok)
	}
	// The home relay's own newer tombstone does retract it.
	if !d.merge(Entry{Node: "n1", Home: "relay-1", Version: 3, Present: false}) {
		t.Fatal("own-home tombstone should be adopted")
	}
	if _, ok := d.lookup([]byte("n1")); ok {
		t.Fatal("retracted node should not resolve")
	}
	// And a presence claim beats the foreign tombstone when the node
	// reattaches elsewhere, even at a lower version.
	if !d.merge(Entry{Node: "n1", Home: "relay-2", Version: 2, Present: true}) {
		t.Fatal("presence claim should override a foreign tombstone")
	}
	if home, _ := d.lookup([]byte("n1")); home != "relay-2" {
		t.Fatalf("home after reattach = %q", home)
	}
}

func TestDirectoryLateDetachDoesNotKillNewHome(t *testing.T) {
	d := newDirectory("observer")
	d.localUpdate("n1", "relay-0", true) // v1: attached to relay-0

	// The node resumes on relay-1; that gossip arrives first.
	if !d.merge(Entry{Node: "n1", Home: "relay-1", Version: 2, Present: true}) {
		t.Fatal("reattach record should be adopted")
	}
	// relay-0 only now notices the old connection died: the local detach
	// must be a no-op, not a v3 tombstone that would override relay-1.
	if _, ok := d.localDetach("n1", "relay-0"); ok {
		t.Fatal("late detach after a reattach must not produce a tombstone")
	}
	if home, ok := d.lookup([]byte("n1")); !ok || home != "relay-1" {
		t.Fatalf("new home lost: %q %v", home, ok)
	}

	// A detach while we are still the home does tombstone.
	if e, ok := d.localDetach("n1", "relay-1"); !ok || e.Present || e.Version != 3 {
		t.Fatalf("genuine detach = %+v %v", e, ok)
	}
}

func TestDirectoryInvalidateAndDropRelay(t *testing.T) {
	d := newDirectory("observer")
	d.localUpdate("a", "relay-0", true)
	d.localUpdate("b", "relay-1", true)

	// invalidate only hits the claimed home.
	if d.invalidate("a", "relay-9") {
		t.Fatal("invalidate with wrong home should be a no-op")
	}
	if !d.invalidate("a", "relay-0") {
		t.Fatal("invalidate with matching home should repair")
	}
	if _, ok := d.lookup([]byte("a")); ok {
		t.Fatal("invalidated route should not resolve")
	}

	d.localUpdate("c", "relay-1", true)
	d.dropRelay("relay-1")
	for _, n := range []string{"b", "c"} {
		if _, ok := d.lookup([]byte(n)); ok {
			t.Fatalf("node %s should be dropped with its relay", n)
		}
	}
}

// A dropRelay/invalidate tombstone does not bump the version, so the
// unchanged home re-claiming the node at the same version (its snapshot
// after a transient peer-link drop) must win — otherwise the node stays
// unroutable forever, since no delta gossip will ever mention it again.
func TestDirectorySnapshotRepairsDroppedRelay(t *testing.T) {
	d := newDirectory("observer")
	d.merge(Entry{Node: "a", Home: "relay-1", Version: 3, Present: true})
	d.dropRelay("relay-1")
	if _, ok := d.lookup([]byte("a")); ok {
		t.Fatal("dropRelay should tombstone the entry")
	}
	if !d.merge(Entry{Node: "a", Home: "relay-1", Version: 3, Present: true}) {
		t.Fatal("re-received same-home same-version presence should repair the drop")
	}
	if home, ok := d.lookup([]byte("a")); !ok || home != "relay-1" {
		t.Fatal("entry should resolve again after the snapshot merge")
	}
	// The symmetric direction: another relay's snapshot echoing the
	// equal-version repair tombstone must not clobber the presence — a
	// genuine detach would have bumped the version.
	if d.merge(Entry{Node: "a", Home: "relay-1", Version: 3, Present: false}) {
		t.Fatal("equal-version repair tombstone must not beat a live presence")
	}
	if home, ok := d.lookup([]byte("a")); !ok || home != "relay-1" {
		t.Fatal("presence should survive an echoed equal-version tombstone")
	}
	// The home's own newer tombstone (a real detach bumps the version)
	// still retracts the presence.
	if !d.merge(Entry{Node: "a", Home: "relay-1", Version: 4, Present: false}) {
		t.Fatal("the home's own newer tombstone should stand")
	}
	if _, ok := d.lookup([]byte("a")); ok {
		t.Fatal("newer tombstone should win over the older presence")
	}
}

// Only the relay itself may retract its own attachments: a gossiped
// tombstone naming this relay as home (a peer's invalidate/dropRelay
// echo after a transient link loss) must not kill a live local record.
func TestDirectorySelfAuthority(t *testing.T) {
	d := newDirectory("relay-0")
	d.localUpdate("n1", "relay-0", true)
	if d.merge(Entry{Node: "n1", Home: "relay-0", Version: 1, Present: false}) {
		t.Fatal("echoed tombstone must not retract a live local attachment")
	}
	if home, ok := d.lookup([]byte("n1")); !ok || home != "relay-0" {
		t.Fatalf("local attachment lost: %q %v", home, ok)
	}
	// The local detach itself still works and its tombstone survives
	// being re-echoed.
	if _, ok := d.localDetach("n1", "relay-0"); !ok {
		t.Fatal("genuine local detach should tombstone")
	}
	if _, ok := d.lookup([]byte("n1")); ok {
		t.Fatal("detached node should not resolve")
	}
}

// A peer link superseded by a reconnect must not tear down the peer's
// directory entries when its deferred removePeer finally runs: the peer
// relay is still alive, and dropRelay after the fresh link's snapshot
// merge would be unrepairable (dropRelay does not bump versions, so the
// re-received snapshot loses to the tombstones).
func TestSupersededPeerLinkKeepsDirectory(t *testing.T) {
	srv := relay.NewServer()
	o, err := New(Config{
		ID:     "relay-a",
		Server: srv,
		Dial:   func(string) (net.Conn, error) { return nil, fmt.Errorf("unused") },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		o.Close()
		srv.Close()
	})

	pipePeer := func() net.Conn {
		local, far := net.Pipe()
		go io.Copy(io.Discard, far)
		if err := o.startPeer("relay-b", local, wire.NewWriter(local), wire.NewReader(local)); err != nil {
			t.Fatal(err)
		}
		return local
	}

	pipePeer()
	stale := o.peer("relay-b")
	o.dir.merge(Entry{Node: "n1", Home: "relay-b", Version: 1, Present: true})

	// A reconnect replaces the stale link; its teardown (racing after the
	// new link's snapshot merge) must leave relay-b's entries intact.
	fresh := pipePeer()
	o.removePeer(stale)
	if home, ok := o.dir.lookup([]byte("n1")); !ok || home != "relay-b" {
		t.Fatalf("superseded link teardown dropped relay-b's entries (home=%q ok=%v)", home, ok)
	}
	if p := o.peer("relay-b"); p == nil || p.conn != fresh {
		t.Fatal("replacement link should stay registered")
	}

	// The current link dying is a real peer loss: entries must drop.
	o.removePeer(o.peer("relay-b"))
	if _, ok := o.dir.lookup([]byte("n1")); ok {
		t.Fatal("losing the live peer link should drop its entries")
	}
}

// --- mesh fixture ------------------------------------------------------------------

const (
	testRelayPort = 4500
	testNSPort    = 4000
)

type meshRelay struct {
	id      string
	host    *emunet.Host
	server  *relay.Server
	overlay *Relay
	regCli  *nameservice.Client
	ep      emunet.Endpoint
}

func (mr *meshRelay) kill() {
	mr.overlay.Kill()
	mr.server.Close()
	mr.regCli.Close()
}

type meshWorld struct {
	t        *testing.T
	fabric   *emunet.Fabric
	gwSite   *emunet.Site
	ns       *nameservice.Server
	nsEP     emunet.Endpoint
	relays   []*meshRelay
	nextSite int
}

func newMeshWorld(t *testing.T, relayCount int) *meshWorld {
	t.Helper()
	f := emunet.NewFabric(emunet.WithSeed(11))
	gwSite := f.AddSite("gateway", emunet.SiteConfig{Firewall: emunet.Open})
	nsHost := gwSite.AddHost("ns")
	nsL, err := nsHost.Listen(testNSPort)
	if err != nil {
		t.Fatal(err)
	}
	ns := nameservice.NewServer()
	go ns.Serve(nsL)

	w := &meshWorld{
		t:      t,
		fabric: f,
		gwSite: gwSite,
		ns:     ns,
		nsEP:   emunet.Endpoint{Addr: nsHost.Address(), Port: testNSPort},
	}
	t.Cleanup(func() {
		for _, mr := range w.relays {
			mr.overlay.Close()
			mr.server.Close()
			mr.regCli.Close()
		}
		ns.Close()
		f.Close()
	})
	for i := 0; i < relayCount; i++ {
		w.addRelay()
	}
	w.waitMesh(relayCount - 1)
	return w
}

func (w *meshWorld) addRelay() *meshRelay {
	w.t.Helper()
	id := fmt.Sprintf("relay-%d", len(w.relays))
	host := w.gwSite.AddHost(id)
	l, err := host.Listen(testRelayPort)
	if err != nil {
		w.t.Fatal(err)
	}
	srv := relay.NewServer()
	go srv.Serve(l)
	regConn, err := host.Dial(w.nsEP)
	if err != nil {
		w.t.Fatal(err)
	}
	regCli := nameservice.NewClient(regConn)
	ep := emunet.Endpoint{Addr: host.Address(), Port: testRelayPort}
	ov, err := New(Config{
		ID:        id,
		Server:    srv,
		Advertise: ep.String(),
		Registry:  regCli,
		Dial: func(addr string) (net.Conn, error) {
			dep, ok := emunet.ParseEndpoint(addr)
			if !ok {
				return nil, fmt.Errorf("bad addr %q", addr)
			}
			return host.Dial(dep)
		},
		RescanInterval: 20 * time.Millisecond,
	})
	if err != nil {
		w.t.Fatal(err)
	}
	mr := &meshRelay{id: id, host: host, server: srv, overlay: ov, regCli: regCli, ep: ep}
	w.relays = append(w.relays, mr)
	return mr
}

// waitMesh waits until every relay has at least want peers.
func (w *meshWorld) waitMesh(want int) {
	w.t.Helper()
	w.waitFor(func() bool {
		for _, mr := range w.relays {
			if len(mr.overlay.Peers()) < want {
				return false
			}
		}
		return true
	}, "relay mesh did not form")
}

func (w *meshWorld) waitFor(cond func() bool, msg string) {
	w.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			w.t.Fatal(msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// attach connects a node in a fresh firewalled site to the given relay.
func (w *meshWorld) attach(relayIdx int, nodeID string) *relay.Client {
	w.t.Helper()
	w.nextSite++
	site := w.fabric.AddSite(fmt.Sprintf("site-%d-%s", w.nextSite, nodeID),
		emunet.SiteConfig{Firewall: emunet.Stateful})
	host := site.AddHost(nodeID)
	conn, err := host.Dial(w.relays[relayIdx].ep)
	if err != nil {
		w.t.Fatalf("dial relay: %v", err)
	}
	c, err := relay.Attach(conn, nodeID)
	if err != nil {
		w.t.Fatalf("attach %s: %v", nodeID, err)
	}
	return c
}

// dialConnFor returns a fresh connection from the client's perspective to
// the given relay (used to resume after a failover).
func (w *meshWorld) dialFromSite(nodeHostSite string, relayIdx int) net.Conn {
	w.t.Helper()
	site := w.fabric.Site(nodeHostSite)
	if site == nil {
		w.t.Fatalf("no site %s", nodeHostSite)
	}
	hosts := site.Hosts()
	conn, err := hosts[0].Dial(w.relays[relayIdx].ep)
	if err != nil {
		w.t.Fatal(err)
	}
	return conn
}

// directoryKnows reports whether the relay's directory resolves node.
func directoryKnows(mr *meshRelay, node, home string) bool {
	for _, e := range mr.overlay.Directory() {
		if e.Node == node && e.Present && e.Home == home {
			return true
		}
	}
	return false
}

// --- mesh behaviour tests ----------------------------------------------------------

func TestMeshFormsViaNameservice(t *testing.T) {
	w := newMeshWorld(t, 3)
	for _, mr := range w.relays {
		if got := len(mr.overlay.Peers()); got != 2 {
			t.Fatalf("%s has %d peers, want 2", mr.id, got)
		}
	}
}

func TestCrossRelayDialAndData(t *testing.T) {
	w := newMeshWorld(t, 2)
	a := w.attach(0, "node-a")
	b := w.attach(1, "node-b")
	defer a.Close()
	defer b.Close()

	// Wait until relay-0's directory has learned where node-b lives.
	w.waitFor(func() bool { return directoryKnows(w.relays[0], "node-b", "relay-1") },
		"attachment gossip did not reach relay-0")

	var got []byte
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := b.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		defer c.Close()
		got, _ = io.ReadAll(c)
	}()

	c, err := a.Dial("node-b", 2*time.Second)
	if err != nil {
		t.Fatalf("cross-relay dial: %v", err)
	}
	msg := bytes.Repeat([]byte("across the mesh "), 8192) // several frames
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	c.Close()
	<-done
	if !bytes.Equal(got, msg) {
		t.Fatalf("cross-relay payload mismatch: got %d bytes want %d", len(got), len(msg))
	}

	// The data crossed the peer link: relay-0 must report per-peer
	// forwarded frames towards relay-1.
	st := w.relays[0].server.Stats()
	if st.FramesForwarded == 0 || st.Forwarded("relay-1") == 0 {
		t.Fatalf("relay-0 forwarded stats = %+v, want traffic towards relay-1", st)
	}
	// And relay-1 injected them towards node-b.
	if st1 := w.relays[1].server.Stats(); st1.FramesRouted == 0 {
		t.Fatal("relay-1 reports no injected frames")
	}
}

// TestCrossRelayDialRightAfterAttach is relay.TestDialRightAfterAttach
// across the mesh: a node may dial the moment its Attach returns, before
// its own attach gossip has reached the acceptor's relay. That relay
// used to drop the open-OK travelling back (no route to the dialer yet),
// so about one such dial in fifty burnt its whole timeout; the open
// itself now teaches the acceptor's relay where the dialer lives.
func TestCrossRelayDialRightAfterAttach(t *testing.T) {
	w := newMeshWorld(t, 2)
	acc := w.attach(1, "early-acc")
	defer acc.Close()
	w.waitFor(func() bool { return directoryKnows(w.relays[0], "early-acc", "relay-1") },
		"the acceptor's attachment did not reach relay-0")
	go func() {
		for {
			c, err := acc.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("early-dialer-%d", i)
		d := w.attach(0, id)
		c, err := d.Dial("early-acc", 500*time.Millisecond)
		if err != nil {
			t.Fatalf("dial by %s right after its attach returned: %v", id, err)
		}
		c.Close()
		d.Close()
	}
}

func TestCrossRelayBidirectional(t *testing.T) {
	w := newMeshWorld(t, 3)
	a := w.attach(0, "ping")
	b := w.attach(2, "pong")
	defer a.Close()
	defer b.Close()
	w.waitFor(func() bool { return directoryKnows(w.relays[0], "pong", "relay-2") },
		"gossip did not propagate")

	go func() {
		c, err := b.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 4)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			c.Write(bytes.ToUpper(buf))
		}
	}()
	c, err := a.Dial("pong", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 20; i++ {
		if _, err := c.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4)
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatal(err)
		}
		if string(buf) != "PING" {
			t.Fatalf("iteration %d: got %q", i, buf)
		}
	}
}

func TestSnapshotGossipToLateJoiner(t *testing.T) {
	w := newMeshWorld(t, 2)
	a := w.attach(0, "early-bird")
	defer a.Close()
	w.waitFor(func() bool { return directoryKnows(w.relays[1], "early-bird", "relay-0") },
		"delta gossip did not reach relay-1")

	// A relay that joins after the node attached must learn it from the
	// full snapshot exchanged at peering time.
	late := w.addRelay()
	w.waitMesh(2)
	w.waitFor(func() bool { return directoryKnows(late, "early-bird", "relay-0") },
		"snapshot gossip did not reach the late joiner")
}

// A transient peer-link failure between two live relays must heal: both
// sides drop the other's entries, discovery re-dials, and the snapshot
// exchanged on the new link must repair the non-bumped tombstones left
// by dropRelay so cross-relay routing works again.
func TestPeerLinkDropHealsOnReconnect(t *testing.T) {
	w := newMeshWorld(t, 2)
	a := w.attach(0, "node-a")
	b := w.attach(1, "node-b")
	defer a.Close()
	defer b.Close()
	w.waitFor(func() bool { return directoryKnows(w.relays[0], "node-b", "relay-1") },
		"attachment gossip did not reach relay-0")

	// Sever the peer link (the conn dies, both relays stay up) and wait
	// for discovery to re-form it.
	old := w.relays[0].overlay.peer("relay-1")
	old.conn.Close()
	w.waitFor(func() bool {
		p := w.relays[0].overlay.peer("relay-1")
		return p != nil && p != old
	}, "peer link did not re-form after the drop")
	w.waitFor(func() bool { return directoryKnows(w.relays[0], "node-b", "relay-1") },
		"reconnect snapshot did not repair relay-0's directory")
	w.waitFor(func() bool { return directoryKnows(w.relays[1], "node-a", "relay-0") },
		"reconnect snapshot did not repair relay-1's directory")
	// Each relay stays the authority for its own attachments: the other
	// side's snapshot carries dropRelay tombstones for them (same home,
	// equal version) which must not kill the live local records.
	if !directoryKnows(w.relays[0], "node-a", "relay-0") {
		t.Fatal("relay-0 lost its own node-a to an echoed tombstone")
	}
	if !directoryKnows(w.relays[1], "node-b", "relay-1") {
		t.Fatal("relay-1 lost its own node-b to an echoed tombstone")
	}

	go func() {
		c, err := b.Accept()
		if err != nil {
			return
		}
		io.Copy(c, c)
		c.Close()
	}()
	c, err := a.Dial("node-b", 2*time.Second)
	if err != nil {
		t.Fatalf("cross-relay dial after link reconnect: %v", err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("healed")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 6)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "healed" {
		t.Fatalf("got %q", buf)
	}
}

func TestDialUnknownNodeFailsFast(t *testing.T) {
	w := newMeshWorld(t, 2)
	a := w.attach(0, "alone")
	defer a.Close()

	start := time.Now()
	_, err := a.Dial("ghost", 2*time.Second)
	if err == nil {
		t.Fatal("dialing a node unknown to the whole mesh should fail")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("unknown-node dial took %v; want a fast openFail, not a timeout", elapsed)
	}
}

func TestNackRepairsStaleRoute(t *testing.T) {
	w := newMeshWorld(t, 2)
	a := w.attach(0, "dialer")
	defer a.Close()

	// Poison relay-0's directory: it believes "phantom" lives on
	// relay-1, which has never seen it. The forwarded open must come
	// back as a NACK that repairs the entry and fails the dial.
	w.relays[0].overlay.dir.merge(Entry{Node: "phantom", Home: "relay-1", Version: 7, Present: true})

	start := time.Now()
	_, err := a.Dial("phantom", 2*time.Second)
	if err == nil {
		t.Fatal("dial through a stale route should fail")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("stale-route dial took %v; want a NACK-driven failure, not a timeout", elapsed)
	}
	if _, ok := w.relays[0].overlay.dir.lookup([]byte("phantom")); ok {
		t.Fatal("stale route should have been invalidated by the NACK")
	}
}

func TestCircularStaleRouteTerminates(t *testing.T) {
	w := newMeshWorld(t, 2)
	a := w.attach(0, "looper")
	defer a.Close()

	// Mutually stale: relay-0 thinks ghost is on relay-1 and vice versa.
	// The owner check (never forward back over the arrival link) must
	// stop the bouncing immediately.
	w.relays[0].overlay.dir.merge(Entry{Node: "ghost", Home: "relay-1", Version: 3, Present: true})
	w.relays[1].overlay.dir.merge(Entry{Node: "ghost", Home: "relay-0", Version: 3, Present: true})

	if _, err := a.Dial("ghost", 2*time.Second); err == nil {
		t.Fatal("dial into a routing cycle should fail")
	}
	// The forward counters must stay tiny: one hop out, no ping-pong.
	st := w.relays[0].server.Stats()
	if st.FramesForwarded > 2 {
		t.Fatalf("forwarding loop detected: %d frames forwarded", st.FramesForwarded)
	}
}

func TestNodeReattachOverridesOldHome(t *testing.T) {
	w := newMeshWorld(t, 3)
	a := w.attach(0, "mover")
	b := w.attach(1, "observer")
	defer a.Close()
	defer b.Close()
	a.SetDetachHandler(func(error) {}) // resumable mode: survive the crash
	w.waitFor(func() bool { return directoryKnows(w.relays[2], "mover", "relay-0") },
		"initial gossip did not propagate")

	// The node's relay crashes; the node resumes on relay-2.
	nodeSite := w.fabric.Site("site-1-mover")
	host := nodeSite.Hosts()[0]
	w.relays[0].kill()
	conn, err := host.Dial(w.relays[2].ep)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Resume(conn); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := a.ServerID(); got != "relay-2" {
		t.Fatalf("resumed on %q, want relay-2", got)
	}

	// The reattach bumps the version past the stale relay-0 record, so
	// every surviving relay converges on the new home.
	w.waitFor(func() bool { return directoryKnows(w.relays[1], "mover", "relay-2") },
		"reattach gossip did not override the stale home")

	// And traffic flows: the observer (on relay-1) dials the mover.
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := a.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := b.Dial("mover", 2*time.Second)
	if err != nil {
		t.Fatalf("dial after failover: %v", err)
	}
	if _, err := c.Write([]byte("hello again")); err != nil {
		t.Fatal(err)
	}
	in := <-accepted
	buf := make([]byte, 11)
	if _, err := io.ReadFull(in, buf); err != nil || string(buf) != "hello again" {
		t.Fatalf("post-failover payload: %q %v", buf, err)
	}
	c.Close()
	in.Close()
}

func TestMaxHopsBoundsForwarding(t *testing.T) {
	// Three relays with a circular stale directory for a node nobody
	// hosts: r0 -> r1 -> r2 -> r0. The hop budget must cut the cycle.
	w := newMeshWorld(t, 3)
	a := w.attach(0, "cyclist")
	defer a.Close()

	w.relays[0].overlay.dir.merge(Entry{Node: "nowhere", Home: "relay-1", Version: 5, Present: true})
	w.relays[1].overlay.dir.merge(Entry{Node: "nowhere", Home: "relay-2", Version: 5, Present: true})
	w.relays[2].overlay.dir.merge(Entry{Node: "nowhere", Home: "relay-0", Version: 5, Present: true})

	if _, err := a.Dial("nowhere", 500*time.Millisecond); err == nil {
		t.Fatal("dial into a three-way cycle should fail")
	}
	total := int64(0)
	for _, mr := range w.relays {
		total += mr.server.Stats().FramesForwarded
	}
	if total > int64(DefaultMaxHops)+1 {
		t.Fatalf("cycle forwarded %d frames, hop bound %d violated", total, DefaultMaxHops)
	}
}

// --- gossip queue coalescing -------------------------------------------------------

// TestGossipQueueCoalescesSupersededVersions: the broadcast queue keeps
// at most one pending delta per node. A node that attaches, detaches and
// reattaches faster than the broadcaster drains (e.g. while a peer link
// stalls) occupies one slot whose entry is superseded in place, instead
// of growing the queue by one frame per churn event.
func TestGossipQueueCoalescesSupersededVersions(t *testing.T) {
	o := &Relay{
		cfg:   Config{ID: "relay-q"},
		dir:   newDirectory("relay-q"),
		peers: make(map[string]*peerLink),
		gpend: make(map[string]Entry),
	}
	o.gcond = sync.NewCond(&o.gmu)
	// No broadcastLoop is started: the queue only fills, as it would
	// while every peer link stalls.
	for i := 0; i < 100; i++ {
		o.enqueueGossip(o.dir.localUpdate("churner", "relay-q", true))
		if e, ok := o.dir.localDetach("churner", "relay-q"); ok {
			o.enqueueGossip(e)
		}
	}
	o.enqueueGossip(o.dir.localUpdate("steady", "relay-q", true))

	o.gmu.Lock()
	defer o.gmu.Unlock()
	if len(o.gorder) != 2 || len(o.gpend) != 2 {
		t.Fatalf("queue holds %d/%d entries after churn, want 2 (one per node)", len(o.gorder), len(o.gpend))
	}
	churn := o.gpend["churner"]
	if churn.Version != 200 || churn.Present {
		t.Fatalf("churner's pending delta = %+v, want the latest (version 200, absent)", churn)
	}
	// An out-of-order older delta must not clobber the newer pending one.
	o.gmu.Unlock()
	o.enqueueGossip(Entry{Node: "churner", Home: "relay-q", Version: 5, Present: true})
	o.gmu.Lock()
	if e := o.gpend["churner"]; e.Version != 200 {
		t.Fatalf("stale delta clobbered the pending one: %+v", e)
	}
}
