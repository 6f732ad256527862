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
// reader walks it (its stream index, then fragments), names a fragment
// above the fuzzing budget: two unauthenticated uvarints may declare up
// to wire.MaxFrameLen (ROADMAP item 5's audit), more than a fuzz worker
// should read.
func declaresLargeFragment(sub []byte) bool {
	if _, n := binary.Uvarint(sub); n > 0 {
		sub = sub[n:]
	}
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

// FuzzMultiInput feeds arbitrary bytes, as two sub-streams, to the input
// side as the registry builds it: the stream indexes first, then the
// in-order reader. Building and reading must terminate — with data and
// io.EOF or with an error — and never hang: a gap at end of stream, a
// stale and a duplicate sequence number were all ways to park a reader
// for good. tools/gencorpus writes the committed seeds.
func FuzzMultiInput(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if declaresLargeFragment(a) || declaresLargeFragment(b) {
			t.Skip("fragment above the fuzzing budget")
		}
		lower := make(chan driver.Input, 2)
		lower <- io.NopCloser(bytes.NewReader(a))
		lower <- io.NopCloser(bytes.NewReader(b))
		spec := driver.Spec{Name: Name, Params: map[string]string{"streams": "2"}}
		done := make(chan struct{})
		go func() {
			defer close(done)
			in, err := buildInput(spec, nil, func() (driver.Input, error) { return <-lower, nil })
			if err != nil {
				return // a bad stream index is a fine way to end
			}
			io.Copy(io.Discard, in) // so is any read error
			in.Close()
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("building or reading never returned")
		}
	})
}
