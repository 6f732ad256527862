package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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

// TestPortToPortAllocsPerMessage gates what one message costs the heap
// end to end, SendPort → stack → emunet at time scale 0 → ReceivePort: a
// 64 KiB message over each benchmark stack, and a 64 B one over tcpblk.
// The send port fills one of its own two message objects, encoding into
// the last message's buffer, the pipe runs in place, and the receive
// port hands out one of its own two message objects over a pooled buffer
// it recycles at the next Receive. So a 64 B message allocates nothing,
// and a 64 KiB one at most one small object, and a tenth of the message
// in bytes, whatever the stack's codecs (their state is pooled too); a
// stack that neither codes nor seals — plain, and multi, which stripes
// the caller's bytes and reads each fragment into the receive buffer —
// is held to a fiftieth. Each message is received before the next is
// sent, so the pools and the emulator's socket rings warmed by the first
// messages hold every buffer the measured ones need (multi's fragment
// headers grow a byte at sequence number 128, and a ring that holds one
// grows once with them); the test runs on one P, so a pooled object is
// never out of reach in another P's private slot, and the collector is
// off from the warm-up on (SetGCPercent waits out a cycle under way), so
// it cannot empty the pools the warm-up filled. The memory statistics
// count every goroutine, and the deployment's overlay rescans its
// registry every 25 ms on goroutines of its own, so the gate reads the
// quietest of four rounds of messages: what the path allocates per
// message shows in every round. Over tcpblk each message is one block:
// its length and the payload, lent or copied, ride in one frame. Skipped
// under the race detector, as the other alloc gates are.
func TestPortToPortAllocsPerMessage(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const warmup, rounds, messages = 128, 4, 256
	type row struct {
		stack string
		size  int
	}
	var rows []row
	for _, stack := range benchStacks {
		rows = append(rows, row{stack, 64 << 10})
	}
	rows = append(rows, row{"tcpblk", 64})
	bounds := func(r row) (allocs, bytes float64) {
		switch {
		case r.size < 64<<10:
			return 0, 0
		case r.stack == "tcpblk" || r.stack == "multi:streams=4/tcpblk":
			return 1, 0.02 * float64(r.size)
		}
		return 1, 0.1 * float64(r.size)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	src, dst := dataPair(t)
	for s, r := range rows {
		name := r.stack
		if r.size != 64<<10 {
			name = fmt.Sprintf("%s/%dB", r.stack, r.size)
		}
		payload := workload.Generate(workload.Grid, r.size, 7)
		t.Run(name, func(t *testing.T) {
			port := fmt.Sprintf("alloc-%d", s)
			sp, rp := channel(t, src, dst, ipl.PortType{Name: port, Stack: r.stack}, port)
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
					if got, err := msg.ReadBytes(); err != nil || len(got) != r.size {
						t.Fatalf("message %d: %d bytes, %v", i, len(got), err)
					}
				}
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			exchange(warmup)
			out := sp.(*sendPort).links[0].out
			var blocksBefore int64
			if tb, ok := out.(*tcpblk.Output); ok {
				blocksBefore, _ = tb.Stats()
			}
			bytesPer, allocsPer := math.Inf(1), math.Inf(1)
			for range rounds {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				exchange(messages)
				runtime.ReadMemStats(&after)
				bytesPer = min(bytesPer, float64(after.TotalAlloc-before.TotalAlloc)/messages)
				allocsPer = min(allocsPer, float64(after.Mallocs-before.Mallocs)/messages)
			}
			t.Logf("%.0f B and %.1f allocs per %d B message", bytesPer, allocsPer, r.size)
			allocBound, bytesBound := bounds(r)
			if bytesPer > bytesBound {
				t.Errorf("%.0f B allocated per message, bound %.0f", bytesPer, bytesBound)
			}
			if allocsPer > allocBound {
				t.Errorf("%.1f allocations per message, bound %.0f", allocsPer, allocBound)
			}
			if tb, ok := out.(*tcpblk.Output); ok {
				blocks, _ := tb.Stats()
				if per := float64(blocks-blocksBefore) / (rounds * messages); per != 1 {
					t.Errorf("%.2f tcpblk blocks per message, want 1", per)
				}
			}
		})
	}
}

// framedSink is an ipl.MessageSink that frames what it is handed as a
// send port does, length then message, and keeps it.
type framedSink struct{ framed []byte }

func (s *framedSink) Deliver(head, body []byte) error {
	s.framed = binary.AppendUvarint(s.framed, uint64(len(head)-ipl.Headroom+len(body)))
	s.framed = append(s.framed, head[ipl.Headroom:]...)
	s.framed = append(s.framed, body...)
	return nil
}

// writeBatch sends several messages as one block: framed back to back
// and written to the link's stack in one Write and one Flush.
func writeBatch(out driver.Output, msgs [][]byte) error {
	var sink framedSink
	framer := ipl.NewWriteMessages(&sink, nil)
	for _, p := range msgs {
		if err := framer.Next(nil).WriteBytes(p).Finish(); err != nil {
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
	held := port.last
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

	last := port.last
	last.Retain()
	rp.Close()
	if refs := last.Refs(); refs != 2 {
		t.Errorf("after Close the last message's buffer has %d references, want the port's and the test's", refs)
	}
	last.Release()
}

// TestReceiveRetiresTheLastMessage: the port hands out messages in its
// own objects, and the next Receive retires the one it handed out last,
// so a read of a message kept past the next Receive fails, with the typed
// error, and leaves the message in hand as it was.
func TestReceiveRetiresTheLastMessage(t *testing.T) {
	src, dst := dataPair(t)
	sp, rp := channel(t, src, dst, ipl.PortType{Name: "retire", Stack: "tcpblk"}, "retire-in")
	for i := int64(1); i <= 3; i++ {
		m, err := sp.NewMessage()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.WriteInt(i).WriteInt(-i).Finish(); err != nil {
			t.Fatal(err)
		}
	}
	var kept *ipl.ReadMessage
	for i := int64(1); i <= 3; i++ {
		msg, err := rp.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if kept != nil {
			if _, err := kept.ReadInt(); !errors.Is(err, ipl.ErrMessageRecycled) {
				t.Fatalf("message %d read after the next Receive: %v, want ErrMessageRecycled", i-1, err)
			}
			if err := kept.Finish(); !errors.Is(err, ipl.ErrMessageRecycled) {
				t.Fatalf("message %d finished after the next Receive: %v, want ErrMessageRecycled", i-1, err)
			}
		}
		if v, err := msg.ReadInt(); err != nil || v != i {
			t.Fatalf("message %d reads %d, %v", i, v, err)
		}
		kept = msg
	}
}

// TestWriteMessageFinishedAtThePort: the port fills its messages in its
// own objects, and a message that has finished stays finished while the
// port's next message is filled: a write through it never reaches that
// message on the wire, and a second Finish returns ErrMessageFinished and
// sends nothing.
func TestWriteMessageFinishedAtThePort(t *testing.T) {
	src, dst := dataPair(t)
	sp, rp := channel(t, src, dst, ipl.PortType{Name: "finished", Stack: "tcpblk"}, "finished-in")
	first, err := sp.NewMessage()
	if err != nil {
		t.Fatal(err)
	}
	if err := first.WriteString("first").Finish(); err != nil {
		t.Fatal(err)
	}
	second, err := sp.NewMessage()
	if err != nil {
		t.Fatal(err)
	}
	second.WriteString("second")
	first.WriteString("stray").WriteBytes(make([]byte, 64<<10))
	if err := first.Finish(); !errors.Is(err, ipl.ErrMessageFinished) {
		t.Fatalf("a second Finish: %v, want ErrMessageFinished", err)
	}
	if err := second.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := second.Finish(); !errors.Is(err, ipl.ErrMessageFinished) {
		t.Fatalf("a second Finish: %v, want ErrMessageFinished", err)
	}
	third, err := sp.NewMessage()
	if err != nil {
		t.Fatal(err)
	}
	if err := third.WriteString("third").Finish(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"first", "second", "third"} {
		msg, err := rp.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if got, err := msg.ReadString(); err != nil || got != want || msg.Finish() != nil {
			t.Fatalf("received %q (%d bytes left), %v; want %q alone", got, msg.Remaining(), err, want)
		}
	}
}

// TestSendPortSpareBound: a send port keeps its last message's buffer
// for the next one, but not one past maxSpare — a port that once sent
// a huge message does not pin its buffer. Both rows send the shape that
// still copies its payload into that buffer, a large item with another
// item behind it: a large last item is borrowed and never grows it.
func TestSendPortSpareBound(t *testing.T) {
	src, dst := dataPair(t)
	sp, rp := channel(t, src, dst, ipl.PortType{Name: "spare", Stack: "tcpblk"}, "spare-in")
	port := sp.(*sendPort)
	spare := func() int { return cap(port.spare) } // Finish has returned on this goroutine
	for _, size := range []int{64 << 10, maxSpare + 1} {
		m, err := sp.NewMessage()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.WriteBytes(make([]byte, size)).WriteBool(true).Finish(); err != nil {
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
