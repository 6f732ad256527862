package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"netibis/internal/core"
	"netibis/internal/driver"
	"netibis/internal/drivers/tcpblk"
	"netibis/internal/emunet"
	"netibis/internal/estab"
	"netibis/internal/identity"
	"netibis/internal/relay"
	"netibis/internal/wire"
)

// The layer probes measure single layers outside any ipl port, so that
// every goodput has a ceiling to be read against: a stack over the
// benchmark's own counting conns on the workload's link, the same
// stacks over net.Pipe (continuity with BENCH_datapath.json), the bare
// emunet conn, bare relay links, wire framing and the identity
// primitives.

// countingConn wraps a conn and counts what crosses it and how long
// the caller spent inside it.
type countingConn struct {
	net.Conn
	c *connCounts
}

type connCounts struct {
	writes, written, writeNs atomic.Int64
	readNs                   atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.c.writeNs.Add(int64(time.Since(start)))
	c.c.writes.Add(1)
	c.c.written.Add(int64(n))
	return n, err
}

func (c countingConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(p)
	c.c.readNs.Add(int64(time.Since(start)))
	return n, err
}

// pump pushes messages framed as core frames them (uvarint length,
// payload, Flush) through a built stack for dur and verifies every one
// on the far side. It returns the messages moved and the time taken.
func pump(out driver.Output, in driver.Input, payload []byte, dur time.Duration) (msgs int64, elapsed time.Duration, err error) {
	want := crc32.ChecksumIEEE(payload)
	hdr := wire.AppendUvarint(nil, uint64(len(payload)))
	start := time.Now()
	sendErr := make(chan error, 1)
	go func() {
		var err error
		for deadline := start.Add(dur); err == nil && time.Now().Before(deadline); {
			if _, err = out.Write(hdr); err == nil {
				if _, err = out.Write(payload); err == nil {
					err = out.Flush()
				}
			}
		}
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		sendErr <- err
	}()
	got := make([]byte, len(payload))
	gotHdr := make([]byte, len(hdr))
	for {
		if _, err = io.ReadFull(in, gotHdr); err != nil {
			break
		}
		if _, err = io.ReadFull(in, got); err != nil {
			break
		}
		if !bytes.Equal(gotHdr, hdr) || crc32.ChecksumIEEE(got) != want {
			err = errCorrupt
			break
		}
		msgs++
	}
	elapsed = time.Since(start)
	in.Close()
	if serr := <-sendErr; serr != nil {
		return msgs, elapsed, serr
	}
	if err != io.EOF {
		return msgs, elapsed, err
	}
	if msgs == 0 {
		return 0, elapsed, errors.New("benchmark: layer probe moved no message")
	}
	return msgs, elapsed, nil
}

// buildBoth builds both sides of a stack at once: Dial and Accept pair
// up, so neither side can finish alone.
func buildBoth(stack string, dial, accept *driver.Env) (driver.Output, driver.Input, error) {
	parsed, err := driver.ParseStack(stack)
	if err != nil {
		return nil, nil, err
	}
	var in driver.Input
	var inErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		in, inErr = driver.BuildInput(parsed, accept)
	}()
	out, err := driver.BuildOutput(parsed, dial)
	<-done
	if err != nil || inErr != nil {
		if out != nil {
			out.Close()
		}
		if in != nil {
			in.Close()
		}
		return nil, nil, errors.Join(err, inErr)
	}
	return out, in, nil
}

// layerProbes runs every probe that needs no deployment of the
// workload's own.
func layerProbes(spec *workloadSpec, seed int64, m metricSet) error {
	bulk := newPayloadPool(spec.bulkSize, seed).bufs[0]
	if err := stackOverEmunet(spec, seed, bulk, m); err != nil {
		return fmt.Errorf("stack over emunet: %w", err)
	}
	for _, s := range stacks {
		dial, accept := driver.PipeEnv()
		out, in, err := buildBoth(s.spec, dial, accept)
		if err != nil {
			return fmt.Errorf("stack %s over net.Pipe: %w", s.suffix, err)
		}
		msgs, elapsed, err := pump(out, in, bulk, spec.probeLen)
		if err != nil {
			return fmt.Errorf("stack %s over net.Pipe: %w", s.suffix, err)
		}
		m.put("driver.pipe_MBps."+s.suffix, sample{Value: float64(msgs) * float64(len(bulk)) / elapsed.Seconds() / 1e6, Unit: "MB/s", N: int(msgs)})
	}
	wireProbes(spec.probeLen, m)
	if err := relayProbes(seed, spec.probeLen, m); err != nil {
		return fmt.Errorf("relay probes: %w", err)
	}
	if err := tcpRelayProbe(spec.probeLen, m); err != nil {
		return fmt.Errorf("real-TCP relay probe: %w", err)
	}
	if err := identityProbes(seed, spec.probeLen, m); err != nil {
		return fmt.Errorf("identity probes: %w", err)
	}
	return nil
}

// stackOverEmunet runs the plain stack, and then the bare conn with
// the same chunking, over counting wrappers around emunet conns that
// cross the workload's pair link.
func stackOverEmunet(spec *workloadSpec, seed int64, payload []byte, m metricSet) error {
	link := metro
	if spec.pairLink != nil {
		link = *spec.pairLink
	}
	f := emunet.NewFabric(emunet.WithSeed(seed), emunet.WithTimeScale(spec.timeScale))
	defer f.Close()
	a := f.AddSite("probe-a", emunet.SiteConfig{}).AddHost("a")
	b := f.AddSite("probe-b", emunet.SiteConfig{}).AddHost("b")
	if spec.timeScale > 0 {
		f.SetLink("probe-a", "probe-b", link)
	}
	l, err := b.Listen(7000)
	if err != nil {
		return err
	}
	defer l.Close()
	ep := emunet.Endpoint{Addr: b.Address(), Port: 7000}

	var sent, rcvd connCounts
	dial := &driver.Env{Dial: func() (net.Conn, error) {
		c, err := a.Dial(ep)
		return countingConn{c, &sent}, err
	}}
	accept := &driver.Env{Accept: func() (net.Conn, error) {
		c, err := l.Accept()
		return countingConn{c, &rcvd}, err
	}}
	out, in, err := buildBoth(stacks[0].spec, dial, accept)
	if err != nil {
		return err
	}
	// At least a few messages even where one takes a fifth of a second.
	dur := spec.probeLen
	if spec.timeScale > 0 {
		dur *= 5
	}
	blocks := func() int64 { n, _ := out.(*tcpblk.Output).Stats(); return n }
	msgs, _, err := pump(out, in, payload, dur)
	if err != nil {
		return err
	}
	n := float64(msgs)
	writes := float64(sent.writes.Load()) / n
	wireBytes := float64(sent.written.Load()) / n
	m.put("tcpblk.blocks_per_msg", sample{Value: float64(blocks()) / n, Unit: "count", N: int(msgs)})
	m.put("wire.conn_writes_per_msg", sample{Value: writes, Unit: "count", N: int(msgs)})
	m.put("wire.overhead_bytes_per_msg", sample{Value: wireBytes - float64(len(payload)), Unit: "B", N: int(msgs)})
	m.put("emunet.write_block_us_per_msg", sample{Value: float64(sent.writeNs.Load()) / n / 1e3, Unit: "us", N: int(msgs)})
	m.put("emunet.read_wait_us_per_msg", sample{Value: float64(rcvd.readNs.Load()) / n / 1e3, Unit: "us", N: int(msgs)})

	// What the emulator's cost model says the plain stack can do: every
	// conn write blocks its sender for serialisation plus half an RTT.
	predicted := sample{Unit: "MB/s"}
	if spec.timeScale > 0 {
		perMsg := writes*link.RTT.Seconds()/2*spec.timeScale + wireBytes/link.CapacityBps*spec.timeScale
		predicted.Value = float64(len(payload)) / perMsg / 1e6
	}
	m.put("wire.predicted_goodput_plain_MBps", predicted)

	// The bare conn, same link, same chunking as tcpblk's blocks.
	ca, err := a.Dial(ep)
	if err != nil {
		return err
	}
	cb, err := l.Accept()
	if err != nil {
		ca.Close()
		return err
	}
	mbps, err := rawConnRate(ca, cb, tcpblk.DefaultBlockSize, dur)
	m.put("emunet.raw_MBps", sample{Value: mbps, Unit: "MB/s"})
	return err
}

// rawConnRate writes chunk-sized writes into a for dur while reading b
// dry, closes both and returns the rate in MB/s.
func rawConnRate(a, b net.Conn, chunk int, dur time.Duration) (float64, error) {
	buf := make([]byte, chunk)
	start := time.Now()
	werr := make(chan error, 1)
	go func() {
		var err error
		for deadline := start.Add(dur); err == nil && time.Now().Before(deadline); {
			_, err = a.Write(buf)
		}
		a.Close()
		werr <- err
	}()
	n, err := io.Copy(io.Discard, b)
	elapsed := time.Since(start)
	b.Close()
	if e := <-werr; e != nil {
		return 0, e
	}
	if err != nil && !errors.Is(err, io.ErrClosedPipe) {
		return 0, err
	}
	return float64(n) / elapsed.Seconds() / 1e6, nil
}

// wireProbes times the frame primitives the data plane uses, at the
// small and the block size.
func wireProbes(probeLen time.Duration, m metricSet) {
	for _, sz := range []struct {
		name string
		n    int
	}{{"64B", 64}, {"64KiB", 64 << 10}} {
		payload := make([]byte, sz.n)
		var stream bytes.Buffer
		w := wire.NewWriter(&stream)
		frames := []wire.BatchFrame{{Kind: wire.KindData, Payload: payload}}
		const perRound = 64
		var writeNs, readNs, count int64
		for deadline := time.Now().Add(probeLen / 2); time.Now().Before(deadline); {
			stream.Reset()
			start := time.Now()
			for i := 0; i < perRound; i++ {
				w.WriteFrameBatch(frames) // a bytes.Buffer write cannot fail
			}
			writeNs += int64(time.Since(start))
			r := wire.NewReader(&stream)
			start = time.Now()
			for i := 0; i < perRound; i++ {
				_, _, b, err := r.ReadFrameBuf()
				if err != nil {
					break
				}
				b.Release()
			}
			readNs += int64(time.Since(start))
			count += perRound
		}
		m.put("wire.frame_write_ns."+sz.name, sample{Value: float64(writeNs) / float64(count), Unit: "ns", N: int(count)})
		m.put("wire.frame_read_ns."+sz.name, sample{Value: float64(readNs) / float64(count), Unit: "ns", N: int(count)})
	}
}

// acceptor pumps a relay client's incoming routed links into a channel,
// so that an open and its accept can be paired from one goroutine.
type acceptor struct {
	c     *relay.Client
	conns chan net.Conn
}

func newAcceptor(c *relay.Client) *acceptor {
	a := &acceptor{c: c, conns: make(chan net.Conn)}
	go func() {
		defer close(a.conns)
		for {
			conn, err := c.Accept()
			if err != nil {
				return
			}
			a.conns <- conn
		}
	}()
	return a
}

// link opens one routed link from dialer to the acceptor. The mesh
// learns of a fresh attachment by gossip and refuses a dial that beats
// it, so refusals are retried as core retries them.
func (a *acceptor) link(dialer *relay.Client) (net.Conn, net.Conn, error) {
	const timeout = 5 * time.Second
	x, err := estab.RetryRoutedDial(dialer.Dial, a.c.ID(), timeout, nil)
	if err != nil {
		return nil, nil, err
	}
	select {
	case y, ok := <-a.conns:
		if ok {
			return x, y, nil
		}
	case <-time.After(timeout):
	}
	x.Close()
	return nil, nil, fmt.Errorf("benchmark: routed link to %s opened but never accepted", a.c.ID())
}

// pingPong measures the median round trip of a small message over a
// conn pair, in microseconds.
func pingPong(a, b net.Conn, dur time.Duration) (float64, error) {
	go func() {
		buf := make([]byte, smallSize)
		for {
			if _, err := io.ReadFull(b, buf); err != nil {
				return
			}
			if _, err := b.Write(buf); err != nil {
				return
			}
		}
	}()
	buf := make([]byte, smallSize)
	var samples []float64
	for deadline := time.Now().Add(dur); time.Now().Before(deadline); {
		start := time.Now()
		if _, err := a.Write(buf); err != nil {
			return 0, err
		}
		if _, err := io.ReadFull(a, buf); err != nil {
			return 0, err
		}
		samples = append(samples, float64(time.Since(start))/1e3)
	}
	return median(samples), nil
}

// relayProbes measures bare relay links, with no ipl and no driver, on
// an unshaped three-relay mesh: the rate of one link across two relays,
// and what the overlay hop adds to a round trip.
func relayProbes(seed int64, probeLen time.Duration, m metricSet) error {
	f := emunet.NewFabric(emunet.WithSeed(seed))
	defer f.Close()
	dep, err := core.NewFederatedDeployment(f, 3)
	if err != nil {
		return err
	}
	defer dep.Close()
	site := dep.AddSite("probe", emunet.SiteConfig{})
	var clients []*relay.Client
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	attach := func(id string, relayIdx int) (*relay.Client, error) {
		conn, err := site.AddHost(id).Dial(dep.Relays[relayIdx].Endpoint())
		if err != nil {
			return nil, err
		}
		c, err := relay.Attach(conn, id)
		if err == nil {
			clients = append(clients, c)
		}
		return c, err
	}
	src, err := attach("probe/src", 0)
	if err != nil {
		return err
	}
	nearCli, err := attach("probe/near", 0)
	if err != nil {
		return err
	}
	farCli, err := attach("probe/far", 1)
	if err != nil {
		return err
	}
	near, far := newAcceptor(nearCli), newAcceptor(farCli)

	a, b, err := near.link(src)
	if err != nil {
		return err
	}
	sameUs, err := pingPong(a, b, probeLen)
	a.Close()
	b.Close()
	if err != nil {
		return err
	}
	a, b, err = far.link(src)
	if err != nil {
		return err
	}
	crossUs, err := pingPong(a, b, probeLen)
	a.Close()
	b.Close()
	if err != nil {
		return err
	}
	m.put("overlay.hop_rtt_us", sample{Value: crossUs - sameUs, Unit: "us"})

	if a, b, err = far.link(src); err != nil {
		return err
	}
	mbps, err := rawConnRate(a, b, tcpblk.DefaultBlockSize, probeLen)
	m.put("relay.raw_MBps", sample{Value: mbps, Unit: "MB/s"})
	return err
}

// tcpRelayProbe runs one relay server on a loopback TCP listener with
// two attached clients: the one place kernel sockets carry benchmark
// traffic, so that the relay's writev batching, which emunet conns
// cannot show, stays visible.
func tcpRelayProbe(probeLen time.Duration, m metricSet) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := relay.NewServer()
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(l)
	}()
	defer func() {
		srv.Close()
		l.Close()
		<-served
	}()
	attach := func(id string) (*relay.Client, error) {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			return nil, err
		}
		return relay.Attach(conn, id)
	}
	src, err := attach("tcp/src")
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := attach("tcp/dst")
	if err != nil {
		return err
	}
	defer dst.Close()
	a, b, err := newAcceptor(dst).link(src)
	if err != nil {
		return err
	}
	w0, f0 := srv.EgressWriteStats()
	mbps, err := rawConnRate(a, b, tcpblk.DefaultBlockSize, probeLen)
	if err != nil {
		return err
	}
	w1, f1 := srv.EgressWriteStats()
	m.put("relay.tcp_raw_MBps", sample{Value: mbps, Unit: "MB/s"})
	perWrite := sample{Unit: "count", N: int(w1 - w0)}
	if w1 > w0 {
		perWrite.Value = float64(f1-f0) / float64(w1-w0)
	}
	m.put("relay.tcp_egress_frames_per_write", perWrite)
	return nil
}

// identityProbes records the cost of the secure mode no workload runs
// yet: an authenticated attach, the end-to-end link handshake and the
// record seal.
func identityProbes(seed int64, probeLen time.Duration, m metricSet) error {
	f := emunet.NewFabric(emunet.WithSeed(seed))
	defer f.Close()
	dep, err := core.NewSecureFederatedDeployment(f, 1, nil)
	if err != nil {
		return err
	}
	defer dep.Close()
	site := dep.AddSite("probe", emunet.SiteConfig{})
	var attachMs []float64
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("probe/node-%d", i)
		ident, err := dep.CA.Issue(id)
		if err != nil {
			return err
		}
		conn, err := site.AddHost(id).Dial(dep.RelayEndpoint())
		if err != nil {
			return err
		}
		start := time.Now()
		c, err := relay.AttachAuth(conn, id, &relay.AuthConfig{Identity: ident, Trust: dep.Trust})
		if err != nil {
			return err
		}
		attachMs = append(attachMs, float64(time.Since(start))/1e6)
		c.Close()
	}
	m.put("identity.attach_auth_ms", summarize(attachMs, "ms"))

	alice, err := dep.CA.Issue("probe/alice")
	if err != nil {
		return err
	}
	bob, err := dep.CA.Issue("probe/bob")
	if err != nil {
		return err
	}
	var keys *identity.LinkKeys
	var handshakeUs []float64
	for deadline := time.Now().Add(probeLen / 2); time.Now().Before(deadline); {
		start := time.Now()
		offer, err := identity.OfferLink(alice, alice.Name, bob.Name, 1)
		if err != nil {
			return err
		}
		_, answer, err := identity.AcceptLink(bob, dep.Trust, alice.Name, bob.Name, 1, offer.Blob())
		if err != nil {
			return err
		}
		if keys, err = offer.CompleteLink(dep.Trust, answer); err != nil {
			return err
		}
		handshakeUs = append(handshakeUs, float64(time.Since(start))/1e3)
	}
	m.put("identity.link_handshake_us", summarize(handshakeUs, "us"))

	plain := make([]byte, tcpblk.DefaultBlockSize)
	sealed := make([]byte, 0, len(plain)+identity.SealOverhead)
	var n int64
	start := time.Now()
	for deadline := start.Add(probeLen / 2); time.Now().Before(deadline); n++ {
		sealed = keys.Seal(sealed[:0], uint64(n+1), plain)
	}
	m.put("identity.seal_MBps", sample{Value: float64(n) * float64(len(plain)) / time.Since(start).Seconds() / 1e6, Unit: "MB/s", N: int(n)})
	return nil
}

// controlProbes times the control-plane primitives a connect is made
// of, on the traced world's control grid: name service round trips, a
// relay attach and a routed open.
func controlProbes(w *world, m metricSet) error {
	const rounds = 8
	reg := w.rigs[0].init.Registry()
	var registerMs, lookupMs []float64
	for i := 0; i < rounds; i++ {
		key := fmt.Sprintf("%s/probe/%d", pool, i)
		start := time.Now()
		if err := reg.Register(key, []byte("probe")); err != nil {
			return fmt.Errorf("nameservice register: %w", err)
		}
		registerMs = append(registerMs, float64(time.Since(start))/1e6)
		start = time.Now()
		if _, err := reg.Lookup(key, 0); err != nil {
			return fmt.Errorf("nameservice lookup: %w", err)
		}
		lookupMs = append(lookupMs, float64(time.Since(start))/1e6)
		if err := reg.Unregister(key); err != nil {
			return fmt.Errorf("nameservice unregister: %w", err)
		}
	}
	m.put("nameservice.register_ms", summarize(registerMs, "ms"))
	m.put("nameservice.lookup_ms", summarize(lookupMs, "ms"))

	site := w.ctl.dep.AddSite("probe", emunet.SiteConfig{})
	var attachMs, openMs []float64
	var clients []*relay.Client
	var mu sync.Mutex
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	attach := func(id string) (*relay.Client, error) {
		conn, err := site.AddHost(id).Dial(w.ctl.dep.RelayEndpoint())
		if err != nil {
			return nil, err
		}
		start := time.Now()
		c, err := relay.Attach(conn, id)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		attachMs = append(attachMs, float64(time.Since(start))/1e6)
		clients = append(clients, c)
		mu.Unlock()
		return c, nil
	}
	dst, err := attach("probe/dst")
	if err != nil {
		return fmt.Errorf("relay attach: %w", err)
	}
	go func() { // accept and drop until dst closes
		for {
			c, err := dst.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	for i := 0; i < rounds; i++ {
		src, err := attach(fmt.Sprintf("probe/src-%d", i))
		if err != nil {
			return fmt.Errorf("relay attach: %w", err)
		}
		start := time.Now()
		c, err := src.Dial(dst.ID(), 5*time.Second)
		if err != nil {
			return fmt.Errorf("relay open: %w", err)
		}
		openMs = append(openMs, float64(time.Since(start))/1e6)
		c.Close()
	}
	m.put("relay.attach_ms", summarize(attachMs, "ms"))
	m.put("relay.open_ms", summarize(openMs, "ms"))
	return nil
}
