package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"netibis/internal/emunet"
	"netibis/internal/estab"
	"netibis/internal/ipl"
	"netibis/internal/testutil"
)

// TestLostRaceLeavesNothingBehind is the lost-race cleanup regression
// test: two nodes whose pair admits direct, splicing and routed
// establishment race all three with no stagger, so every connect has
// one winner and two losers still in flight. Which method wins is the
// scheduler's business and is only logged; what is asserted holds
// whoever wins. After 100 such races, each of whose links has carried a
// verified message, nothing may linger: no extra goroutines, no relay
// virtual links (the acceptor's routed losers must have been abandoned
// on both sides), no parked splice offers, and no routed link parked for
// an establishment.
func TestLostRaceLeavesNothingBehind(t *testing.T) {
	// Time-shaped, so the three candidates are in flight together for a
	// few real milliseconds and a loser is cancelled mid-establishment.
	f := emunet.NewFabric(emunet.WithSeed(23), emunet.WithTimeScale(0.25), emunet.WithDefaultLink(emunet.LinkParams{CapacityBps: 12.5e6, RTT: 4 * time.Millisecond}))
	defer f.Close()
	dep, err := NewDeployment(f)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	mkNode := func(site, name string) *Node {
		host := dep.AddSite(site, emunet.SiteConfig{Firewall: emunet.Open}).AddHost(name)
		cfg := dep.NodeConfig(host, "race", name)
		cfg.SpliceTimeout = 2 * time.Second
		cfg.AcceptTimeout = 5 * time.Second
		n, err := Join(cfg)
		if err != nil {
			t.Fatalf("join %s: %v", name, err)
		}
		n.connector.RaceStagger = -1 // launch every candidate at once: the race always has losers
		return n
	}
	sender := mkNode("race-open-a", "sender")
	defer sender.Close()
	receiver := mkNode("race-open-b", "receiver")
	defer receiver.Close()

	pt := ipl.PortType{Name: "race", Stack: "tcpblk"}
	rp, err := receiver.CreateReceivePort(pt, "inbox")
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()

	// Sanity: this pair's plan must contain all three candidates, or the
	// race has nothing to cancel.
	cands := estab.RankCandidates(sender.Profile(), receiver.Profile(), false)
	if len(cands) != 3 {
		t.Fatalf("expected 3 candidate methods for the open pair, got %v", cands)
	}

	settle := testutil.Settle

	// Warm up once: the first connect creates the long-lived service
	// link (itself a relay virtual link) and its handler goroutine;
	// baselines are taken after it so the loop measures only race debris.
	warm, err := sender.CreateSendPort(pt)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Connect(rp.ID()); err != nil {
		t.Fatal(err)
	}
	if err := warm.Close(); err != nil {
		t.Fatal(err)
	}
	sender.connector.Cache.Invalidate("race/receiver")
	if why := settle(func() (bool, string) {
		return f.PendingSplices() == 0, "warmup splices"
	}); why != "" {
		t.Fatal(why)
	}
	linkBaseS := sender.relayCli.LinkCount()
	linkBaseR := receiver.relayCli.LinkCount()

	// Goroutines must return to the pre-race baseline (losers' helpers
	// all unwound); allow a small slack for runtime background ones.
	checkLeaks := testutil.LeakCheck(t, 3)
	winners := map[estab.Method]int{}
	for i := 0; i < 100; i++ {
		sp, err := sender.CreateSendPort(pt)
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.Connect(rp.ID()); err != nil {
			t.Fatalf("race %d: %v", i, err)
		}
		for _, m := range SendPortMethods(sp) {
			winners[m]++
		}
		// Prove the winning link works, then tear it down.
		msg, err := sp.NewMessage()
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("ping %d", i)
		msg.WriteString(want)
		if err := msg.Finish(); err != nil {
			t.Fatalf("race %d: deliver: %v", i, err)
		}
		in, err := rp.Receive()
		if err != nil {
			t.Fatalf("race %d: receive: %v", i, err)
		}
		if got, err := in.ReadString(); err != nil || got != want {
			t.Fatalf("race %d: received %q, %v; want %q", i, got, err, want)
		}
		if err := sp.Close(); err != nil {
			t.Fatal(err)
		}
		// Each iteration must race afresh: forget the cached winner.
		sender.connector.Cache.Invalidate("race/receiver")
	}

	t.Logf("winners of 100 races: %v", winners)

	// No parked splice offers: every losing simultaneous open was
	// withdrawn when its race was canceled.
	if why := settle(func() (bool, string) {
		n := f.PendingSplices()
		return n == 0, fmt.Sprintf("%d splice offers still parked", n)
	}); why != "" {
		t.Error(why)
	}

	// No relay virtual links beyond the persistent service link: every
	// losing routed open was abandoned on the dialing side and discarded
	// on the accepting side.
	if why := settle(func() (bool, string) {
		s, r := sender.relayCli.LinkCount(), receiver.relayCli.LinkCount()
		return s <= linkBaseS && r <= linkBaseR,
			fmt.Sprintf("leaked relay links: sender %d (baseline %d), receiver %d (baseline %d)", s, linkBaseS, r, linkBaseR)
	}); why != "" {
		t.Error(why)
	}

	// Nothing parked for an establishment: the routed links the acceptor
	// opened for races it lost left with their connects.
	for _, n := range []*Node{sender, receiver} {
		n.mu.Lock()
		if len(n.pendingData) != 0 {
			t.Errorf("%s keeps routed data links parked for %d peer(s)", n.id.Name, len(n.pendingData))
		}
		n.mu.Unlock()
	}

	checkLeaks()
}

// TestServiceLinkBrokenErrorSurfacesCause: when both connect attempts
// die on a broken service link, the caller must receive the underlying
// cause, never a nil error (a nil here would make the caller believe
// the data link exists).
func TestServiceLinkBrokenErrorSurfacesCause(t *testing.T) {
	cause := fmt.Errorf("boom")
	var err error = &serviceLinkBrokenError{cause: cause}
	var broken *serviceLinkBrokenError
	if !errors.As(err, &broken) {
		t.Fatal("errors.As failed to match serviceLinkBrokenError")
	}
	if broken.cause != cause {
		t.Fatalf("cause = %v", broken.cause)
	}
	if !errors.Is(err, cause) {
		t.Fatal("Unwrap chain lost the cause")
	}
}
