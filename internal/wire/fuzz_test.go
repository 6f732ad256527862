package wire

// Native fuzz targets for the hand-rolled frame and varint parsing: the
// Reader (the copying path, the pooled-Buf and the direct one) and the
// primitive Decoder must never panic, loop forever or over-read on
// arbitrary bytes. Seed corpora live in testdata/fuzz; CI runs each
// target for a short bounded time on every push.

import (
	"bytes"
	"testing"
)

func FuzzReadFrame(f *testing.F) {
	// Valid single frames, a frame pair, and pathological headers.
	w := &bytes.Buffer{}
	fw := NewWriter(w)
	fw.WriteFrame(KindData, 0, []byte("hello"))
	f.Add(w.Bytes())
	w2 := &bytes.Buffer{}
	fw2 := NewWriter(w2)
	fw2.WriteFrame(KindControl, 3, nil)
	fw2.WriteFrame(KindFlush, 0, bytes.Repeat([]byte{0xab}, 300))
	f.Add(w2.Bytes())
	f.Add([]byte{})
	f.Add([]byte{KindData})
	f.Add([]byte{KindData, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // huge length
	f.Add([]byte{KindData, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}) // overlong varint

	f.Fuzz(func(t *testing.T, data []byte) {
		// The copying path.
		r := NewReader(bytes.NewReader(data))
		var frames []Frame
		for i := 0; i < 64; i++ {
			fr, err := r.ReadFrame()
			if err != nil {
				break
			}
			if len(fr.Payload) > MaxFrameLen {
				t.Fatalf("frame exceeds MaxFrameLen: %d", len(fr.Payload))
			}
			frames = append(frames, fr)
		}
		// The pooled-Buf path, and the direct one where a payload fits a
		// 64-byte slice, must agree and release cleanly.
		rb := NewReader(bytes.NewReader(data))
		direct := make([]byte, 64)
		for i := 0; i < 64; i++ {
			kind, flags, n, b, err := rb.ReadFrameInto(direct)
			if err != nil {
				if i < len(frames) {
					t.Fatalf("frame %d: %v where the copying path read it", i, err)
				}
				break
			}
			payload := direct[:n]
			if b != nil {
				payload = b.Bytes()
			}
			if i >= len(frames) || kind != frames[i].Kind || flags != frames[i].Flags || !bytes.Equal(payload, frames[i].Payload) {
				t.Fatalf("frame %d disagrees with the copying path", i)
			}
			if b != nil {
				b.Release()
			}
		}
	})
}

func FuzzDecoder(f *testing.F) {
	seed := AppendString(nil, "node/alice")
	seed = AppendUvarint(seed, 42)
	seed = AppendBytes(seed, []byte{1, 2, 3})
	seed = AppendUint32(seed, 7)
	seed = AppendUint64(seed, 9)
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		// Walk every primitive; the decoder must fail sticky, never
		// panic, and never report negative remaining.
		_ = d.String()
		_ = d.Uvarint()
		_ = d.Bytes()
		_ = d.Uint32()
		_ = d.Uint64()
		_ = d.Byte()
		if d.Remaining() < 0 {
			t.Fatal("negative remaining")
		}
		if d.Err() != nil {
			// Sticky: once failed, everything returns zero values.
			if s := d.String(); s != "" {
				t.Fatalf("non-zero string after error: %q", s)
			}
		}
	})
}

// FuzzReadFrameRoundtrip checks that whatever the Reader accepts, the
// Writer reproduces byte-identically — the framing is unambiguous.
func FuzzReadFrameRoundtrip(f *testing.F) {
	f.Add(byte(0), byte(0), []byte("payload"))
	f.Add(byte(31), byte(255), []byte{})
	f.Fuzz(func(t *testing.T, kind, flags byte, payload []byte) {
		if len(payload) > 1<<16 {
			payload = payload[:1<<16]
		}
		var buf bytes.Buffer
		if err := NewWriter(&buf).WriteFrame(kind, flags, payload); err != nil {
			t.Fatal(err)
		}
		fr, err := NewReader(bytes.NewReader(buf.Bytes())).ReadFrame()
		if err != nil {
			t.Fatalf("own frame rejected: %v", err)
		}
		if fr.Kind != kind || fr.Flags != flags || !bytes.Equal(fr.Payload, payload) {
			t.Fatalf("roundtrip mismatch: %v", fr)
		}
		// The coalesced and the vectored branch put the same bytes on
		// the wire: riding in a batch with a filler frame that pushes it
		// over the threshold, the frame is encoded byte for byte as it
		// is alone (where it coalesces whenever it is small enough to).
		filler := BatchFrame{Kind: KindFlush, Payload: make([]byte, coalesceMax)}
		alone := buf.Bytes()
		want := append(alone[:len(alone):len(alone)], KindFlush, 0)
		want = append(AppendUvarint(want, coalesceMax), filler.Payload...)
		var vec bytes.Buffer
		if err := NewWriter(&vec).WriteFrameBatch([]BatchFrame{{Kind: kind, Flags: flags, Payload: payload}, filler}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(vec.Bytes(), want) {
			t.Fatal("coalesced and vectored encodings disagree")
		}
	})
}
