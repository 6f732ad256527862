package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"netibis/internal/driver"
	"netibis/internal/drivers/tcpblk"
	"netibis/internal/emunet"
	"netibis/internal/ipl"
	"netibis/internal/testutil"
	"netibis/internal/workload"
)

// Every receive port of this package's tests overwrites the message it
// recycles, so a read past the next Receive fails every time.
func init() { poisonRecycled = true }

// benchStacks are the five stacks the benchmark measures.
var benchStacks = []string{
	"tcpblk",
	"multi:streams=4/tcpblk",
	"zip/tcpblk",
	"secure:psk=x/tcpblk",
	"zip:codec=lz/secure:psk=x/multi:streams=4/tcpblk",
}

// dataPair joins two nodes on open sites of an unshaped fabric: their
// links are emunet conns at time scale 0, the lan_stacks path.
func dataPair(t *testing.T) (src, dst *Node) {
	g := newTestGrid(t)
	open := emunet.SiteConfig{Firewall: emunet.Open}
	return g.node("src", "site-src", open, nil), g.node("dst", "site-dst", open, nil)
}

// TestPortToPortAllocsPerMessage gates what one 64 KiB message costs the
// heap end to end, SendPort → stack → emunet at time scale 0 →
// ReceivePort, over each benchmark stack. The send port encodes into the
// last message's buffer, the pipe runs in place and the receive port
// reads into pooled buffers it recycles at the next Receive, so what is
// left is a few small objects: at most six, and a tenth of the message
// in bytes, whatever the stack's codecs (their state is pooled too). A
// stack that neither codes nor seals — plain, and multi, which stripes
// the caller's bytes and reads each fragment into the receive buffer —
// is held to four and a fiftieth. Each message is received before the
// next is sent, so the pools and the emulator's socket rings warmed by
// the first messages hold every buffer the measured ones need (multi's
// fragment headers grow a byte at sequence number 128, and a ring that
// holds one grows once with them); the test runs on one P, so a pooled
// object is never out of reach in another P's private slot, and the
// collector is off while the measured messages run, so it cannot empty
// the pools half-way. Over tcpblk each message is one block: its length rides in
// the send buffer's headroom, in the same Write. Skipped under the race
// detector, as the other alloc gates are.
func TestPortToPortAllocsPerMessage(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const msgSize, warmup, messages = 64 << 10, 128, 256
	bounds := func(stack string) (allocs, bytes float64) {
		if stack == "tcpblk" || stack == "multi:streams=4/tcpblk" {
			return 4, 0.02 * msgSize
		}
		return 6, 0.1 * msgSize
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	src, dst := dataPair(t)
	payload := workload.Generate(workload.Grid, msgSize, 7)
	for s, stack := range benchStacks {
		t.Run(stack, func(t *testing.T) {
			port := fmt.Sprintf("alloc-%d", s)
			sp, rp := channel(t, src, dst, ipl.PortType{Name: port, Stack: stack}, port)
			defer sp.Close()
			defer rp.Close()
			exchange := func(n int) {
				for i := 0; i < n; i++ {
					m, err := sp.NewMessage()
					if err != nil {
						t.Fatal(err)
					}
					if err := m.WriteBytes(payload).Finish(); err != nil {
						t.Fatal(err)
					}
					msg, err := rp.Receive()
					if err != nil {
						t.Fatal(err)
					}
					if got, err := msg.ReadBytes(); err != nil || len(got) != msgSize {
						t.Fatalf("message %d: %d bytes, %v", i, len(got), err)
					}
				}
			}
			exchange(warmup)
			out := sp.(*sendPort).links[0].out
			var blocksBefore int64
			if tb, ok := out.(*tcpblk.Output); ok {
				blocksBefore, _ = tb.Stats()
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			exchange(messages)
			runtime.ReadMemStats(&after)

			bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / messages
			allocsPer := float64(after.Mallocs-before.Mallocs) / messages
			t.Logf("%.0f B and %.1f allocs per %d B message", bytesPer, allocsPer, msgSize)
			allocBound, bytesBound := bounds(stack)
			if bytesPer > bytesBound {
				t.Errorf("%.0f B allocated per message, bound %.0f", bytesPer, bytesBound)
			}
			if allocsPer > allocBound {
				t.Errorf("%.1f allocations per message, bound %.0f", allocsPer, allocBound)
			}
			if tb, ok := out.(*tcpblk.Output); ok {
				blocks, _ := tb.Stats()
				if per := float64(blocks-blocksBefore) / messages; per != 1 {
					t.Errorf("%.2f tcpblk blocks per message, want 1", per)
				}
			}
		})
	}
}

// framedSink is an ipl.MessageSink that frames what it is handed as a
// send port does, length then message, and keeps it.
type framedSink struct{ framed []byte }

func (s *framedSink) Deliver(msg []byte) error {
	s.framed = binary.AppendUvarint(s.framed, uint64(len(msg)-ipl.Headroom))
	s.framed = append(s.framed, msg[ipl.Headroom:]...)
	return nil
}

// writeBatch sends several messages as one block: framed back to back
// and written to the link's stack in one Write and one Flush.
func writeBatch(out driver.Output, msgs [][]byte) error {
	var sink framedSink
	for _, p := range msgs {
		if err := ipl.NewWriteMessage(&sink, nil, nil).WriteBytes(p).Finish(); err != nil {
			return err
		}
	}
	if _, err := out.Write(sink.framed); err != nil {
		return err
	}
	return out.Flush()
}

// TestReusedSendBufferNeverLeaks: over each of the benchmark's five
// stacks, back-to-back messages of distinct content and varying length
// arrive byte-exact, and each stays byte-exact until the next Receive.
// The send port encodes every message into the buffer of the one before,
// without waiting for it to arrive; a layer that kept a reference to
// what it was handed would show here as an earlier message carrying a
// later one's bytes. The receive port recycles a message's buffer at the
// next Receive, and the lengths make messages that span several blocks,
// messages that fill the read-ahead buffer, and — sent as one block by
// writeBatch — several messages per block, so a buffer shared between
// two live messages, or recycled early, would show the same way.
func TestReusedSendBufferNeverLeaks(t *testing.T) {
	src, dst := dataPair(t)
	lengths := []int{0, 1, 70 << 10, 5, 64 << 10, 200 << 10, 300, 64<<10 - 7, 1 << 20, 17, 128 << 10, 2}
	// Sent as one block each, right after the message of the same index.
	batches := map[int][]int{3: {10, 2000, 30 << 10, 7, 20 << 10}, 9: {1, 1, 129, 4000, 3, 100}}
	content := func(i, n int) []byte {
		p := make([]byte, n)
		for k := range p {
			p[k] = byte(i*131 + k*7 + k>>9)
		}
		return p
	}
	var sizes []int // every message in sending order
	for i, n := range lengths {
		sizes = append(sizes, n)
		sizes = append(sizes, batches[i]...)
	}
	for s, stack := range benchStacks {
		t.Run(stack, func(t *testing.T) {
			port := fmt.Sprintf("leak-%d", s)
			sp, rp := channel(t, src, dst, ipl.PortType{Name: port, Stack: stack}, port)
			defer sp.Close()
			defer rp.Close()
			const rounds = 3
			done := make(chan error, 1)
			go func() {
				var kept []byte // the last message's bytes, live until the next Receive
				for i := 0; i < rounds*len(sizes); i++ {
					if i > 0 && !bytes.Equal(kept, content(i-1, sizes[(i-1)%len(sizes)])) {
						done <- fmt.Errorf("message %d changed before the next Receive", i-1)
						return
					}
					msg, err := rp.Receive()
					if err != nil {
						done <- err
						return
					}
					got, err := msg.ReadBytes()
					if err == nil {
						err = msg.Finish()
					}
					if want := content(i, sizes[i%len(sizes)]); err != nil || !bytes.Equal(got, want) {
						done <- fmt.Errorf("message %d (%d bytes) arrived as %d bytes that differ, err %v", i, len(want), len(got), err)
						return
					}
					kept = got
				}
				done <- nil
			}()
			out := sp.(*sendPort).links[0].out
			i := 0
			for r := 0; r < rounds; r++ {
				for k, n := range lengths {
					m, err := sp.NewMessage()
					if err != nil {
						t.Fatal(err)
					}
					if err := m.WriteBytes(content(i, n)).Finish(); err != nil {
						t.Fatal(err)
					}
					i++
					var batch [][]byte
					for _, n := range batches[k] {
						batch = append(batch, content(i, n))
						i++
					}
					if batch != nil {
						if err := writeBatch(out, batch); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReceiveRecyclesAtNextReceive: a message's buffer stays the
// application's until the next Receive on the port, which releases it,
// overwritten first under poisonRecycled; Close does not release it.
func TestReceiveRecyclesAtNextReceive(t *testing.T) {
	src, dst := dataPair(t)
	sp, rp := channel(t, src, dst, ipl.PortType{Name: "recycle", Stack: "tcpblk"}, "recycle-in")
	port := rp.(*receivePort)
	payload := []byte("valid until the next Receive")
	for i := 0; i < 2; i++ {
		m, err := sp.NewMessage()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.WriteBytes(payload).Finish(); err != nil {
			t.Fatal(err)
		}
	}
	msg, err := rp.Receive()
	if err != nil {
		t.Fatal(err)
	}
	got, err := msg.ReadBytes()
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("received %q, %v", got, err)
	}
	// An extra reference keeps the storage out of the pool, so reading it
	// after the port lets go races with nobody.
	held := port.last.Load()
	held.Retain()
	if _, err := rp.Receive(); err != nil {
		t.Fatal(err)
	}
	if refs := held.Refs(); refs != 1 {
		t.Errorf("after the next Receive the message's buffer has %d references, want the test's one", refs)
	}
	for i := range got {
		if got[i] != ^payload[i] {
			t.Fatalf("the recycled message reads %q, not overwritten", got)
		}
	}
	held.Release()

	last := port.last.Load()
	last.Retain()
	rp.Close()
	if refs := last.Refs(); refs != 2 {
		t.Errorf("after Close the last message's buffer has %d references, want the port's and the test's", refs)
	}
	last.Release()
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
