package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"netibis/internal/drivers/tcpblk"
	"netibis/internal/emunet"
	"netibis/internal/ipl"
	"netibis/internal/testutil"
)

// dataPair joins two nodes on open sites of an unshaped fabric: their
// links are emunet conns at time scale 0, the lan_stacks path.
func dataPair(t *testing.T) (src, dst *Node) {
	g := newTestGrid(t)
	open := emunet.SiteConfig{Firewall: emunet.Open}
	return g.node("src", "site-src", open, nil), g.node("dst", "site-dst", open, nil)
}

// TestPortToPortAllocsPerMessage gates what one 64 KiB message costs the
// heap end to end: SendPort → tcpblk → emunet at time scale 0 →
// ReceivePort. The send port encodes into the last message's buffer and
// the pipe runs in place, so what is left is the receive side's buffer
// for the message (73 728 B: a large object is whole pages) and a few
// small objects. A pipe that re-copies its backlog on every append
// that outgrows it reads 7.8 × the message here. Each message is one
// tcpblk block: its length rides in the buffer's headroom, in the same
// Write. Skipped under the race detector, as the other alloc gates are.
func TestPortToPortAllocsPerMessage(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const msgSize, warmup, messages = 64 << 10, 64, 256
	src, dst := dataPair(t)
	sp, rp := channel(t, src, dst, ipl.PortType{Name: "bulk", Stack: "tcpblk"}, "bulk-in")
	out := sp.(*sendPort).links[0].out.(*tcpblk.Output)
	payload := bytes.Repeat([]byte("grid"), msgSize/4)

	recvErr := make(chan error, 1)
	warm := make(chan struct{})
	go func() {
		for i := 0; i < warmup+messages; i++ {
			msg, err := rp.Receive()
			if err != nil {
				recvErr <- err
				return
			}
			if got, err := msg.ReadBytes(); err != nil || len(got) != msgSize {
				recvErr <- fmt.Errorf("message %d: %d bytes, %v", i, len(got), err)
				return
			}
			if i == warmup-1 {
				warm <- struct{}{} // buffers are grown, nothing in flight
			}
		}
		recvErr <- nil
	}()
	send := func(n int) {
		for i := 0; i < n; i++ {
			m, err := sp.NewMessage()
			if err != nil {
				t.Fatal(err)
			}
			if err := m.WriteBytes(payload).Finish(); err != nil {
				t.Fatal(err)
			}
		}
	}
	send(warmup)
	<-warm
	blocksBefore, _ := out.Stats()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	send(messages)
	if err := <-recvErr; err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	blocks, _ := out.Stats()

	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / messages
	allocsPer := float64(after.Mallocs-before.Mallocs) / messages
	t.Logf("%.0f B and %.1f allocs per %d B message", bytesPer, allocsPer, msgSize)
	if bytesPer > 1.25*msgSize {
		t.Errorf("%.0f B allocated per message, bound %.0f", bytesPer, 1.25*msgSize)
	}
	if allocsPer > 6 {
		t.Errorf("%.1f allocations per message, bound 6", allocsPer)
	}
	if per := float64(blocks-blocksBefore) / messages; per != 1 {
		t.Errorf("%.2f tcpblk blocks per message, want 1", per)
	}
}

// TestReusedSendBufferNeverLeaks: over each of the benchmark's five
// stacks, back-to-back messages of distinct content and varying length
// arrive byte-exact. The send port encodes every message into the
// buffer of the one before, without waiting for it to arrive; a layer
// that kept a reference to what it was handed would show here as an
// earlier message carrying a later one's bytes.
func TestReusedSendBufferNeverLeaks(t *testing.T) {
	src, dst := dataPair(t)
	lengths := []int{0, 1, 70 << 10, 5, 64 << 10, 200 << 10, 300, 64<<10 - 7, 1 << 20, 17, 128 << 10, 2}
	content := func(i, n int) []byte {
		p := make([]byte, n)
		for k := range p {
			p[k] = byte(i*131 + k*7 + k>>9)
		}
		return p
	}
	for s, stack := range []string{
		"tcpblk",
		"multi:streams=4/tcpblk",
		"zip/tcpblk",
		"secure:psk=x/tcpblk",
		"zip:codec=lz/secure:psk=x/multi:streams=4/tcpblk",
	} {
		t.Run(stack, func(t *testing.T) {
			port := fmt.Sprintf("leak-%d", s)
			sp, rp := channel(t, src, dst, ipl.PortType{Name: port, Stack: stack}, port)
			defer sp.Close()
			defer rp.Close()
			const rounds = 3
			done := make(chan error, 1)
			go func() {
				for i := 0; i < rounds*len(lengths); i++ {
					msg, err := rp.Receive()
					if err != nil {
						done <- err
						return
					}
					got, err := msg.ReadBytes()
					if err == nil {
						err = msg.Finish()
					}
					if want := content(i, lengths[i%len(lengths)]); err != nil || !bytes.Equal(got, want) {
						done <- fmt.Errorf("message %d (%d bytes) arrived as %d bytes that differ, err %v", i, len(want), len(got), err)
						return
					}
				}
				done <- nil
			}()
			for i := 0; i < rounds*len(lengths); i++ {
				m, err := sp.NewMessage()
				if err != nil {
					t.Fatal(err)
				}
				if err := m.WriteBytes(content(i, lengths[i%len(lengths)])).Finish(); err != nil {
					t.Fatal(err)
				}
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSendPortSpareBound: a send port keeps its last message's buffer
// for the next one, but not one past maxSpare — a port that once sent
// a huge message does not pin its buffer.
func TestSendPortSpareBound(t *testing.T) {
	src, dst := dataPair(t)
	sp, rp := channel(t, src, dst, ipl.PortType{Name: "spare", Stack: "tcpblk"}, "spare-in")
	port := sp.(*sendPort)
	spare := func() int {
		port.mu.Lock()
		defer port.mu.Unlock()
		return cap(port.spare)
	}
	for _, size := range []int{64 << 10, maxSpare + 1} {
		m, err := sp.NewMessage()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.WriteBytes(make([]byte, size)).Finish(); err != nil {
			t.Fatal(err)
		}
		if _, err := rp.Receive(); err != nil {
			t.Fatal(err)
		}
		switch kept := spare(); {
		case size < maxSpare && kept < size:
			t.Errorf("after a %d B message the port keeps %d B, not its buffer", size, kept)
		case size > maxSpare && kept != 0:
			t.Errorf("after a %d B message the port keeps %d B, bound %d", size, kept, maxSpare)
		}
	}
}
