// Wantransfer moves bulk data between two firewalled sites over an
// emulated Amsterdam–Rennes WAN link and compares the link utilization
// methods of the paper: plain block-oriented TCP, parallel streams,
// compression, and compression over parallel streams — all over the same
// spliced connection establishment, demonstrating that establishment and
// utilization compose freely.
package main

import (
	"fmt"
	"log"
	"time"

	"netibis/internal/core"
	"netibis/internal/emunet"
	"netibis/internal/ipl"
	"netibis/internal/workload"
)

const payloadBytes = 2 << 20

func main() {
	// Shaped emulated WAN: the Amsterdam–Rennes link of Figure 9, run at
	// 1/20th of real time so the example finishes quickly. Link time is
	// scaled and CPU time is not: at this scale the link carries 32 MB/s
	// of wall clock, under what level-1 compression sustains, so
	// compression wins as it did on the paper's link; at 1/200th it
	// would read as the bottleneck it is not.
	fabric := emunet.NewFabric(emunet.WithSeed(2), emunet.WithTimeScale(0.05))
	defer fabric.Close()
	dep, err := core.NewDeployment(fabric)
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()

	ams := dep.AddSite("amsterdam", emunet.SiteConfig{Firewall: emunet.Stateful})
	ren := dep.AddSite("rennes", emunet.SiteConfig{Firewall: emunet.Stateful})
	fabric.SetLink("amsterdam", "rennes", emunet.LinkParams{
		CapacityBps: 1.6e6,
		RTT:         30 * time.Millisecond,
		LossRate:    0.003,
	})

	sender, err := core.Join(dep.NodeConfig(ams.AddHost("sender"), "wantransfer", "sender"))
	if err != nil {
		log.Fatal(err)
	}
	defer sender.Close()
	receiver, err := core.Join(dep.NodeConfig(ren.AddHost("receiver"), "wantransfer", "receiver"))
	if err != nil {
		log.Fatal(err)
	}
	defer receiver.Close()

	payload := workload.Generate(workload.Grid, payloadBytes, 7)

	stacks := []struct {
		label string
		stack string
	}{
		{"plain TCP (TCP_Block)", "tcpblk"},
		{"4 parallel streams", "multi:streams=4/tcpblk"},
		{"compression (zlib level 1)", "zip:level=1/tcpblk"},
		{"compression + 4 streams", "zip:level=1/multi:streams=4/tcpblk"},
	}

	fmt.Printf("transferring %d bytes of %s data per method (emulated WAN, scaled time)\n\n",
		payloadBytes, workload.Grid)
	for i, s := range stacks {
		pt := ipl.PortType{Name: fmt.Sprintf("bulk-%d", i), Stack: s.stack}
		rp, err := receiver.CreateReceivePort(pt, fmt.Sprintf("sink-%d", i))
		if err != nil {
			log.Fatal(err)
		}
		sp, err := sender.CreateSendPort(pt)
		if err != nil {
			log.Fatal(err)
		}
		if err := sp.Connect(rp.ID()); err != nil {
			log.Fatal(err)
		}

		start := time.Now()
		msg, err := sp.NewMessage()
		if err != nil {
			log.Fatal(err)
		}
		msg.WriteBytes(payload)
		if err := msg.Finish(); err != nil {
			log.Fatal(err)
		}
		in, err := rp.Receive()
		if err != nil {
			log.Fatal(err)
		}
		got, err := in.ReadBytes()
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		if len(got) != len(payload) {
			log.Fatalf("%s: payload truncated (%d of %d bytes)", s.label, len(got), len(payload))
		}

		var method string
		for _, m := range core.SendPortMethods(sp) {
			method = m.String()
		}
		fmt.Printf("%-30s via %-14s  %8v wall clock  (%.1f MB/s through the scaled emulation)\n",
			s.label, method, elapsed.Round(time.Millisecond),
			float64(len(payload))/elapsed.Seconds()/1e6)
		sp.Close()
		rp.Close()
	}
}
