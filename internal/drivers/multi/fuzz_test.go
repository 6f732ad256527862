package multi

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"time"

	"netibis/internal/driver"
)

// declaresLargeFragment reports whether a sub-stream, walked as the
// reader walks it, names a fragment above the fuzzing budget: two
// unauthenticated uvarints may declare up to wire.MaxFrameLen (ROADMAP
// item 5's audit), more than a fuzz worker should allocate.
func declaresLargeFragment(sub []byte) bool {
	for len(sub) > 0 {
		_, n := binary.Uvarint(sub)
		if n <= 0 {
			return false
		}
		length, m := binary.Uvarint(sub[n:])
		if m <= 0 {
			return false
		}
		if length > 1<<20 {
			return true
		}
		if uint64(len(sub)-n-m) < length {
			return false
		}
		sub = sub[n+m+int(length):]
	}
	return false
}

// FuzzMultiInput feeds arbitrary bytes, split over two sub-streams, to
// the reassembler. Reading must terminate — with data and io.EOF or with
// an error — and never hang: a gap at end of stream, a stale and a
// duplicate sequence number were all ways to park the reader for good.
// tools/gencorpus writes the committed seeds.
func FuzzMultiInput(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if declaresLargeFragment(a) || declaresLargeFragment(b) {
			t.Skip("fragment above the fuzzing budget")
		}
		in := NewInput([]driver.Input{io.NopCloser(bytes.NewReader(a)), io.NopCloser(bytes.NewReader(b))})
		done := make(chan struct{})
		go func() {
			defer close(done)
			io.Copy(io.Discard, in) // any error is a fine way to end
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("Read never returned")
		}
		in.Close()
		<-done
	})
}
