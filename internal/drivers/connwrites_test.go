package drivers_test

import (
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"

	"netibis/internal/driver"
	"netibis/internal/wire"
	"netibis/internal/workload"
)

// writeCounter is a conn that implements nothing but the net.Conn
// methods, so a vectored write reaches it as one Write per element —
// what emunet charges one link crossing for.
type writeCounter struct {
	net.Conn
	writes *atomic.Int64
}

func (c writeCounter) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// connWritesPerMessage sends messages framed as ipl frames them (uvarint
// length, payload, Flush) through a stack over counted pipes and returns
// the conn writes of `messages` of them, after one message that carries
// whatever a stack sends once per link (secure's salt).
func connWritesPerMessage(t *testing.T, spec string, size, messages int) int64 {
	t.Helper()
	var writes atomic.Int64
	dialEnv, acceptEnv := driver.PipeEnv()
	dial := dialEnv.Dial
	dialEnv.Dial = func() (net.Conn, error) {
		c, err := dial()
		return writeCounter{c, &writes}, err
	}
	out, in := buildStack(t, spec, dialEnv, acceptEnv)
	payload := workload.Generate(workload.Grid, size, 7)
	hdr := wire.AppendUvarint(nil, uint64(size))

	recvErr := make(chan error, 1)
	go func() {
		buf := make([]byte, len(hdr)+size)
		for i := 0; i <= messages; i++ {
			if _, err := io.ReadFull(in, buf); err != nil {
				recvErr <- fmt.Errorf("message %d: %w", i, err)
				return
			}
		}
		recvErr <- nil
	}()
	var before int64
	for i := 0; i <= messages; i++ {
		if i == 1 {
			before = writes.Load()
		}
		if _, err := out.Write(hdr); err != nil {
			t.Fatal(err)
		}
		if _, err := out.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := out.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Every conn write of a message has returned when its Flush has.
	total := writes.Load() - before
	if err := <-recvErr; err != nil {
		t.Fatal(err)
	}
	return total
}

// TestStackConnWritesPerMessage pins the conn writes per message of the
// five benchmark stacks: on the emulated WAN every conn write sleeps
// RTT/2 in the caller, so this count is what each shaped goodput is made
// of, and a data-path change that moves it moves the benchmark. The
// table is per four messages because multi's round-robin continues
// across messages. A change to it is a decision, not an accident.
//
// secure over tcpblk seals a block-sized write straight from the caller's
// slice, the bytes still pending ahead of it (here ipl's length) as a
// record of their own: the length's record and the payload's first block
// leave as one two-frame batch, one conn write fewer per message than
// when the length rode in the first block and the payload's tail in a
// record of its own.
func TestStackConnWritesPerMessage(t *testing.T) {
	const messages = 4
	sizes := []int{64, 64 << 10, 1 << 20}
	for _, tc := range []struct {
		spec string
		want [3]int64 // conn writes per four messages of 64 B, 64 KiB, 1 MiB
	}{
		{"tcpblk", [3]int64{4, 8, 8}},
		{"multi:streams=4/tcpblk", [3]int64{8, 12, 132}},
		{"zip/tcpblk", [3]int64{4, 8, 40}},
		{"secure:psk=bench/tcpblk", [3]int64{4, 8, 128}},
		{"zip:codec=lz/secure:psk=bench/multi:streams=4/tcpblk", [3]int64{4, 8, 80}},
	} {
		for i, size := range sizes {
			t.Run(fmt.Sprintf("%s/%d", tc.spec, size), func(t *testing.T) {
				got := connWritesPerMessage(t, tc.spec, size, messages)
				if got != tc.want[i] {
					t.Errorf("%d conn writes per %d messages, want %d", got, messages, tc.want[i])
				}
			})
		}
	}
}
