package drivers_test

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"

	"netibis/internal/testutil"
	"netibis/internal/workload"
)

// allocsPerMessage pushes 64 KiB grid-workload messages through a stack
// over in-memory pipes and returns the process-wide heap allocations and
// allocated bytes per message (both sides of the stack and their
// goroutines).
func allocsPerMessage(t *testing.T, spec string) (allocs, bytes float64) {
	t.Helper()
	const msgSize, warmup, messages = 64 << 10, 4, 128
	out, in := pipeStack(t, spec)
	payload := workload.Generate(workload.Grid, msgSize, 7)
	buf := make([]byte, msgSize)

	step := make(chan struct{})
	recvErr := make(chan error, 1)
	go func() {
		for i := 0; i < warmup+messages; i++ {
			if _, err := io.ReadFull(in, buf); err != nil {
				recvErr <- fmt.Errorf("message %d: %w", i, err)
				return
			}
			if i == warmup-1 {
				step <- struct{}{} // pools are warm, nothing in flight
			}
		}
		recvErr <- nil
	}()
	send := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := out.Write(payload); err != nil {
				t.Fatalf("write: %v", err)
			}
			if err := out.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
		}
	}
	send(warmup)
	select {
	case <-step:
	case err := <-recvErr:
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	send(messages)
	if err := <-recvErr; err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / messages, float64(after.TotalAlloc-before.TotalAlloc) / messages
}

// TestStackAllocsPerMessage gates allocations per 64 KiB message on the
// paper's full zip/multi/tcpblk stack (~1: the codec's state, tables and
// buffers are pooled), on bare tcpblk and on multi over it, at several
// GOMAXPROCS: the stack's goroutines (multi's workers) interleave
// differently with more than one P. tcpblk and multi also have their
// allocated bytes gated: neither takes a pooled buffer per 64 KiB block
// or fragment, and a single pool miss of one across the measured
// messages would cost more than the bound. Under the race detector the
// bounds are looser or off: race-mode sync.Pool drops one put in four,
// so a fraction of blocks rebuild pooled state from scratch — that
// measures the instrumentation, not the data path.
func TestStackAllocsPerMessage(t *testing.T) {
	fullBound, bytesBound := 5.0, 256.0
	if testutil.RaceEnabled {
		fullBound, bytesBound = 20, math.Inf(1)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range []struct {
			spec  string
			bound float64 // allocations per message
			bytes float64 // allocated bytes per message
		}{
			{"zip/multi:streams=4/tcpblk", fullBound, math.Inf(1)},
			{"tcpblk", 2, bytesBound},
			{"multi:streams=4/tcpblk", 2, bytesBound},
		} {
			t.Run(fmt.Sprintf("procs=%d/%s", procs, tc.spec), func(t *testing.T) {
				allocs, bytes := allocsPerMessage(t, tc.spec)
				t.Logf("%.1f allocs and %.0f B per message (bounds %.0f, %.0f B)", allocs, bytes, tc.bound, tc.bytes)
				if allocs > tc.bound || bytes > tc.bytes {
					t.Fatalf("allocations per message regressed")
				}
			})
		}
	}
}
