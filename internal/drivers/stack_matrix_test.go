package drivers_test

// Full stack-composition matrix: every ordering of every combination of
// the filtering drivers (zip, secure, multi) over the tcpblk networking
// driver must round-trip tiny and large messages, and a Flush must make
// every byte written so far readable on the receiving side before the
// sender writes anything more (flush-boundary preservation through
// multi's striping and the buffering filters). Run under -race in CI.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"netibis/internal/driver"
	_ "netibis/internal/drivers"
)

// filterSpecs are the composable filtering drivers of the matrix.
var filterSpecs = []string{
	"zip:level=1:block=32768",
	"secure:psk=matrix-key",
	"multi:streams=3:fragment=8192",
}

// permutations returns all orderings of all subsets of specs.
func permutations(specs []string) [][]string {
	var out [][]string
	var rec func(prefix []string, rest []string)
	rec = func(prefix []string, rest []string) {
		out = append(out, append([]string(nil), prefix...))
		for i, s := range rest {
			next := make([]string, 0, len(rest)-1)
			next = append(next, rest[:i]...)
			next = append(next, rest[i+1:]...)
			rec(append(prefix, s), next)
		}
	}
	rec(nil, specs)
	return out
}

func TestStackCompositionMatrix(t *testing.T) {
	perms := permutations(filterSpecs)
	if len(perms) != 16 { // 1 + 3 + 6 + 6 orderings
		t.Fatalf("expected 16 stack permutations, got %d", len(perms))
	}
	for _, filters := range perms {
		spec := strings.Join(append(append([]string(nil), filters...), "tcpblk:block=4096"), "/")
		t.Run(strings.ReplaceAll(spec, "/", "|"), func(t *testing.T) {
			t.Parallel()
			runStackRoundTrip(t, spec)
		})
	}
}

// pipeStack builds both sides of a stack over in-memory pipes. The
// input closes first at cleanup: pipes are synchronous, so the output's
// close frame would block once nobody reads.
func pipeStack(t testing.TB, spec string) (driver.Output, driver.Input) {
	t.Helper()
	dialEnv, acceptEnv := driver.PipeEnv()
	return buildStack(t, spec, dialEnv, acceptEnv)
}

// buildStack builds both sides of a stack over a connected pair of
// environments.
func buildStack(t testing.TB, spec string, dialEnv, acceptEnv *driver.Env) (driver.Output, driver.Input) {
	t.Helper()
	stack, err := driver.ParseStack(spec)
	if err != nil {
		t.Fatal(err)
	}
	outCh := make(chan driver.Output, 1)
	errCh := make(chan error, 1)
	go func() {
		// Output and input must build concurrently: tcpblk's Dial blocks
		// in the pipe rendezvous until the input side accepts.
		out, err := driver.BuildOutput(stack, dialEnv)
		errCh <- err
		if err == nil {
			outCh <- out
		}
	}()
	in, err := driver.BuildInput(stack, acceptEnv)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		in.Close()
		t.Fatal(err)
	}
	out := <-outCh
	t.Cleanup(func() {
		in.Close()
		out.Close()
	})
	return out, in
}

// runStackRoundTrip pushes a tiny, a large and an odd-sized message
// through the stack; the sender waits for each message to be fully
// received before writing the next, so a lost flush boundary (bytes
// stuck in some layer's buffer) deadlocks the subtest instead of
// passing by accident.
func runStackRoundTrip(t *testing.T, spec string) {
	t.Helper()
	out, in := pipeStack(t, spec)

	rng := rand.New(rand.NewSource(42))
	messages := make([][]byte, 0, 3)
	for _, n := range []int{7, 1 << 20, 33333} {
		m := make([]byte, n)
		rng.Read(m)
		messages = append(messages, m)
	}

	received := make(chan error, 1)
	ackRead := make(chan struct{})
	go func() {
		defer close(received)
		buf := make([]byte, 1<<20)
		for i, want := range messages {
			got := buf[:len(want)]
			if _, err := io.ReadFull(in, got); err != nil {
				received <- fmt.Errorf("message %d: %w", i, err)
				return
			}
			if !bytes.Equal(got, want) {
				received <- fmt.Errorf("message %d corrupted", i)
				return
			}
			ackRead <- struct{}{}
		}
	}()

	for i := range messages {
		if _, err := out.Write(messages[i]); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if err := out.Flush(); err != nil {
			t.Fatalf("flush %d: %v", i, err)
		}
		// The flush must be sufficient for full delivery: no further
		// writes happen until the receiver confirms.
		select {
		case <-ackRead:
		case err := <-received:
			t.Fatalf("receiver failed after flush %d: %v", i, err)
		case <-time.After(30 * time.Second):
			t.Fatalf("message %d not delivered after flush: boundary lost in %s", i, spec)
		}
	}
	if err := <-received; err != nil {
		t.Fatal(err)
	}
}

// TestStackMatrixUnknownOrderRejected pins that registry errors surface
// cleanly for malformed compositions (networking driver not at the
// bottom).
func TestStackMatrixUnknownOrderRejected(t *testing.T) {
	stack, err := driver.ParseStack("tcpblk/zip")
	if err != nil {
		t.Fatal(err)
	}
	dialEnv, _ := driver.PipeEnv()
	if _, err := driver.BuildOutput(stack, dialEnv); err == nil {
		t.Fatal("tcpblk above a filter must be rejected")
	}
}
