package bench

import (
	"bytes"
	"fmt"
	"time"

	"netibis/internal/core"
	"netibis/internal/emunet"
	"netibis/internal/ipl"
)

// This file is the relay-failover scenario: on the federated relay mesh
// (package overlay) a relay is killed mid-stream and its nodes must
// resume on the survivors. Routed throughput through one relay and
// across the mesh is measured by ./benchmark (relay.raw_MBps,
// goodput_* @ routed_mesh), not here.

// FailoverResult describes one kill-one-relay run.
type FailoverResult struct {
	// Relays is the mesh size.
	Relays int
	// Killed is the mesh ID of the relay that was killed.
	Killed string
	// ReattachedTo is where the orphaned node ended up.
	ReattachedTo string
	// MessagesBeforeKill is how many streamed messages landed before
	// the crash.
	MessagesBeforeKill int
	// Recovery is the time from the kill until a message sent over a
	// freshly dialed data link arrived.
	Recovery time.Duration
}

// RelayFailover runs the kill-one-relay scenario: a sender streams
// routed messages through its relay, the relay is killed mid-stream,
// the sender's node reattaches to a survivor and a fresh Dial completes
// a new transfer.
func RelayFailover() (FailoverResult, error) {
	f := emunet.NewFabric(emunet.WithSeed(29))
	defer f.Close()
	dep, err := core.NewFederatedDeployment(f, 3)
	if err != nil {
		return FailoverResult{}, err
	}
	defer dep.Close()

	srcHost := dep.AddSite("fo-src",
		emunet.SiteConfig{Firewall: emunet.Stateful, NAT: emunet.BrokenNAT}).AddHost("fo-sender")
	dstHost := dep.AddSite("fo-dst",
		emunet.SiteConfig{Firewall: emunet.Stateful}).AddHost("fo-receiver")
	srcCfg := dep.NodeConfigOnRelay(srcHost, "failover", "fo-sender", 0)
	srcCfg.Proxy = emunet.Endpoint{}
	src, err := core.Join(srcCfg)
	if err != nil {
		return FailoverResult{}, err
	}
	defer src.Close()
	dst, err := core.Join(dep.NodeConfigOnRelay(dstHost, "failover", "fo-receiver", 1))
	if err != nil {
		return FailoverResult{}, err
	}
	defer dst.Close()

	pt := ipl.PortType{Name: "failover", Stack: "tcpblk"}
	rp, err := dst.CreateReceivePort(pt, "fo-sink")
	if err != nil {
		return FailoverResult{}, err
	}
	sp, err := src.CreateSendPort(pt)
	if err != nil {
		return FailoverResult{}, err
	}
	if err := sp.Connect(rp.ID()); err != nil {
		return FailoverResult{}, err
	}

	// Drain the receive port continuously, watching for the recovery
	// marker. With credit-based flow control a sender without a consumer
	// (correctly) blocks at the routed link's window, so the streaming
	// goroutine below only makes progress while this side drains — and
	// it must be able to reach its stop check after the failover.
	recovered := make(chan struct{})
	go func() {
		seen := false
		for {
			msg, err := rp.Receive()
			if err != nil {
				return // port closed by the deferred cleanup
			}
			if !seen && msg.Remaining() < 1024 {
				if s, err := msg.ReadString(); err == nil && s == "recovered" {
					seen = true
					close(recovered)
				}
			}
		}
	}()

	// Stream through the doomed relay. The stream may die with it or —
	// because resumed attachments keep established links alive — survive
	// the failover; either way it is stopped once the node has moved.
	chunk := bytes.Repeat([]byte{0x33}, 16*1024)
	stop := make(chan struct{})
	streamed := make(chan int, 1)
	go func() {
		sent := 0
		defer func() { streamed <- sent }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			wm, err := sp.NewMessage()
			if err != nil {
				return
			}
			wm.WriteBytes(chunk)
			if err := wm.Finish(); err != nil {
				return
			}
			sent++
		}
	}()
	time.Sleep(20 * time.Millisecond)
	killAt := time.Now()
	dep.Relays[0].Kill()
	res := FailoverResult{Relays: 3, Killed: dep.Relays[0].Name}

	// Wait for the automatic reattach, then prove a fresh Dial works.
	deadline := time.Now().Add(10 * time.Second)
	for src.HomeRelay() == res.Killed || src.HomeRelay() == "" {
		if time.Now().After(deadline) {
			close(stop)
			return res, fmt.Errorf("relay failover: node never reattached")
		}
		time.Sleep(5 * time.Millisecond)
	}
	res.ReattachedTo = src.HomeRelay()
	close(stop)

	sp2, err := src.CreateSendPort(pt)
	if err != nil {
		return res, err
	}
	if err := sp2.Connect(rp.ID()); err != nil {
		return res, fmt.Errorf("relay failover: dial after reattach: %w", err)
	}
	wm, err := sp2.NewMessage()
	if err != nil {
		return res, err
	}
	wm.WriteString("recovered")
	if err := wm.Finish(); err != nil {
		return res, err
	}
	select {
	case <-recovered:
	case <-time.After(10 * time.Second):
		return res, fmt.Errorf("relay failover: recovery marker never arrived")
	}
	res.Recovery = time.Since(killAt)
	res.MessagesBeforeKill = <-streamed
	return res, nil
}

// FormatFailover renders a failover run.
func FormatFailover(r FailoverResult) string {
	return fmt.Sprintf("relays=%d killed=%s reattached-to=%s streamed-before-kill=%d recovery=%v\n",
		r.Relays, r.Killed, r.ReattachedTo, r.MessagesBeforeKill, r.Recovery.Round(time.Millisecond))
}
