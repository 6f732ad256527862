package multi

import (
	"net"
	"sync"
	"testing"
	"time"

	"netibis/internal/driver"
	"netibis/internal/drivers/tcpblk"
	"netibis/internal/emunet"
	"netibis/internal/testutil"
)

// amsterdamRennes is the paper's lossy WAN link (Section 4.2) as the
// emulator's law tests model it, with 64 KiB socket buffers: one stream
// is held below the link by its window and its losses, four fill it.
var amsterdamRennes = emunet.LinkParams{CapacityBps: 1.6e6, RTT: 30 * time.Millisecond, LossRate: 0.003}

// lossyGoodput dials n conns across an Amsterdam–Rennes link, lets link
// turn them into stack pairs, pushes 1 MiB writes through every pair and
// returns the bytes per emulated second the link scheduled on all the
// conns together in the window after the warm-up: per conn, the bytes
// it reserved over the emulated time their delivery spans, read off the
// sending conn's schedule, so a late goroutine on a loaded host biases
// neither configuration. A receiving stack that stops reading a conn
// fills its receive buffer and stalls its window, and with it the
// schedule of the writes behind.
func lossyGoodput(t *testing.T, n int, link func(west, east []net.Conn) ([]driver.Output, []driver.Input)) float64 {
	t.Helper()
	const scale = 0.2
	f := emunet.NewFabric(emunet.WithTimeScale(scale), emunet.WithSocketBuffer(64<<10), emunet.WithSeed(5))
	defer f.Close()
	hw := f.AddSite("west", emunet.SiteConfig{Firewall: emunet.Open}).AddHost("w")
	he := f.AddSite("east", emunet.SiteConfig{Firewall: emunet.Open}).AddHost("e")
	f.SetLink("west", "east", amsterdamRennes)
	l, err := he.Listen(7000)
	if err != nil {
		t.Fatal(err)
	}
	west, east := make([]net.Conn, n), make([]net.Conn, n)
	for i := range west {
		if west[i], err = hw.Dial(emunet.Endpoint{Addr: he.Address(), Port: 7000}); err != nil {
			t.Fatal(err)
		}
		if east[i], err = l.Accept(); err != nil {
			t.Fatal(err)
		}
	}
	outs, ins := link(west, east)

	var wg sync.WaitGroup
	chunk := make([]byte, 1<<20)
	for i := range outs {
		wg.Add(2)
		go func(out driver.Output) {
			defer wg.Done()
			for {
				if _, err := out.Write(chunk); err != nil {
					return
				}
				if out.Flush() != nil {
					return
				}
			}
		}(outs[i])
		go func(in driver.Input) {
			defer wg.Done()
			buf := make([]byte, 64<<10)
			for {
				if _, err := in.Read(buf); err != nil {
					return
				}
			}
		}(ins[i])
	}
	snap := func() (sent []int64, due []time.Time) {
		for _, c := range west {
			n, at, _ := c.(*emunet.Conn).Scheduled()
			sent, due = append(sent, n), append(due, at)
		}
		return sent, due
	}
	time.Sleep(time.Duration(float64(10*amsterdamRennes.RTT) * scale))
	n0, at0 := snap()
	time.Sleep(time.Duration(float64(200*amsterdamRennes.RTT) * scale))
	n1, at1 := snap()
	for i := range west {
		west[i].Close()
		east[i].Close()
	}
	wg.Wait()
	for i := range outs {
		ins[i].Close()
		outs[i].Close()
	}
	rate := 0.0
	for i := range west {
		if d := at1[i].Sub(at0[i]).Seconds() / scale; d > 0 {
			rate += float64(n1[i]-n0[i]) / d
		}
	}
	return rate
}

// TestLossyLinkKeepsEveryStreamsWindow: Read pulls fragments in sequence
// order, so a stream that stalls on a loss holds up the others, whose
// next fragments wait in their socket buffers meanwhile. On the paper's
// lossy link with 64 KiB buffers that must not throttle them:
// multi:streams=4/tcpblk with 1 MiB writes reaches at least 0.9 × what
// four independent tcpblk conns reach over the same link.
func TestLossyLinkKeepsEveryStreamsWindow(t *testing.T) {
	defer testutil.LeakCheck(t, 0)()
	const streams = 4
	independent := lossyGoodput(t, streams, func(west, east []net.Conn) ([]driver.Output, []driver.Input) {
		outs, ins := make([]driver.Output, len(west)), make([]driver.Input, len(east))
		for i := range west {
			outs[i], ins[i] = tcpblk.NewOutput(west[i], 0), tcpblk.NewInput(east[i])
		}
		return outs, ins
	})
	striped := lossyGoodput(t, streams, func(west, east []net.Conn) ([]driver.Output, []driver.Input) {
		outs, ins := make([]driver.Output, len(west)), make([]driver.Input, len(east))
		for i := range west {
			outs[i], ins[i] = tcpblk.NewOutput(west[i], 0), tcpblk.NewInput(east[i])
		}
		return []driver.Output{NewOutput(outs, 0)}, []driver.Input{NewInput(ins)}
	})
	t.Logf("four tcpblk conns %.2f MB/s, multi:streams=4 %.2f MB/s (%.2f x), link %.2f MB/s",
		independent/1e6, striped/1e6, striped/independent, amsterdamRennes.CapacityBps/1e6)
	if striped < 0.9*independent {
		t.Errorf("multi:streams=4 delivers %.2f MB/s, below 0.9 x the %.2f MB/s of four independent conns", striped/1e6, independent/1e6)
	}
}
