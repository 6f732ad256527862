package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"netibis/internal/emunet"
	"netibis/internal/ipl"
	"netibis/internal/wire"
)

// stalledInput is an incoming link whose peer sent the given bytes and
// then nothing: Read replays them and blocks until the link is closed.
type stalledInput struct {
	sent   *bytes.Reader
	once   sync.Once
	closed chan struct{}
}

func (s *stalledInput) Read(p []byte) (int, error) {
	if s.sent.Len() > 0 {
		return s.sent.Read(p)
	}
	<-s.closed
	return 0, io.ErrClosedPipe
}

func (s *stalledInput) Close() error {
	s.once.Do(func() { close(s.closed) })
	return nil
}

// TestOversizeAnnouncedLengthDropsLink: a message length off the link is
// peer-supplied. One past ipl.MaxMessageLen must drop that link — not
// panic the node (2^62 is a makeslice panic), not allocate the announced
// size (2^35 is 32 GiB) — and the port keeps serving its other sources.
func TestOversizeAnnouncedLengthDropsLink(t *testing.T) {
	g := newTestGrid(t)
	a := g.node("src", "site-src", emunet.SiteConfig{Firewall: emunet.Stateful}, nil)
	b := g.node("dst", "site-dst", emunet.SiteConfig{Firewall: emunet.Stateful}, nil)
	sp, rp := channel(t, a, b, ipl.PortType{Name: "data", Stack: "tcpblk"}, "inbox")

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, length := range []uint64{ipl.MaxMessageLen + 1, 1 << 35, 1 << 62} {
		hostile := &stalledInput{sent: bytes.NewReader(wire.AppendUvarint(nil, length)), closed: make(chan struct{})}
		rp.(*receivePort).addSource(ipl.Identifier{Name: "hostile"}, hostile)
		select {
		case <-hostile.closed:
		case <-time.After(5 * time.Second):
			t.Fatalf("link announcing a %d-byte message was not dropped", length)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= ipl.MaxMessageLen {
		t.Fatalf("allocated %d bytes while refusing oversize announcements", grew)
	}

	sendText(t, sp, "still serving")
	if got, _ := recvText(t, rp); got != "still serving" {
		t.Fatalf("port delivered %q after dropping the hostile links", got)
	}
}

// splitReader serves a byte stream in reads that end at the given cut
// points (or earlier, when the caller's slice is shorter).
type splitReader struct {
	data []byte
	off  int
	cuts []int // ascending stream offsets
}

func (s *splitReader) Read(p []byte) (int, error) {
	if s.off == len(s.data) {
		return 0, io.EOF
	}
	end := len(s.data)
	for len(s.cuts) > 0 && s.cuts[0] <= s.off {
		s.cuts = s.cuts[1:]
	}
	if len(s.cuts) > 0 {
		end = s.cuts[0]
	}
	n := copy(p, s.data[s.off:end])
	s.off += n
	return n, nil
}

// TestReceiveSplitsAnyReadPattern feeds a receive port's message parser
// one stream of seeded random messages, cut into reads in every way that
// matters — a length cut across two reads, one cut at the end of the
// read-ahead buffer, a payload spanning many reads, many messages in one
// read — and checks each message against a reference decoder. Every
// message's Buf is of its own size class, and bytes read ahead move to a
// new buffer only when a message leaves in the old one, so several
// messages in one read are never re-copied once per message.
func TestReceiveSplitsAnyReadPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var stream []byte
	add := func(n int) {
		stream = binary.AppendUvarint(stream, uint64(n))
		stream = append(stream, make([]byte, n)...)
		rng.Read(stream[len(stream)-n:])
	}
	// Small messages filling the read-ahead buffer to one byte short of
	// its end, then a length of three bytes cut there.
	for _, n := range []int{16000, 16000, 16000, 16000, 2037} {
		add(n)
	}
	if len(stream) != wire.ClassSize(readAhead)-1 {
		t.Fatalf("prefix is %d bytes, want the read-ahead buffer less one", len(stream))
	}
	add(100000)
	for i := 0; i < 400; i++ {
		switch r := rng.Intn(10); {
		case r < 5:
			add(rng.Intn(200))
		case r < 7:
			add(200 + rng.Intn(16<<10))
		case r < 9:
			add(16<<10 + rng.Intn(50<<10))
		default:
			add(66<<10 + rng.Intn(300<<10))
		}
	}

	// The reference decoder: each message, and where its length starts.
	var want [][]byte
	var starts []int
	for off := 0; off < len(stream); {
		n, k := binary.Uvarint(stream[off:])
		starts = append(starts, off)
		want = append(want, stream[off+k:off+k+int(n)])
		off += k + int(n)
	}
	schedules := []struct {
		name string
		cuts func(rng *rand.Rand) []int
	}{
		{"whole reads", func(*rand.Rand) []int { return nil }},
		{"length cut across reads", func(*rand.Rand) []int {
			var cuts []int
			for _, s := range starts {
				cuts = append(cuts, s+1)
			}
			return cuts
		}},
		{"reads of a few bytes", func(rng *rand.Rand) []int {
			var cuts []int
			for off := 0; off < len(stream); off += 1 + rng.Intn(7) {
				cuts = append(cuts, off)
			}
			return cuts
		}},
		{"seeded random", func(rng *rand.Rand) []int {
			var cuts []int
			for off := 0; off < len(stream); off += 1 + rng.Intn(1<<uint(rng.Intn(18))) {
				cuts = append(cuts, off)
			}
			return cuts
		}},
	}
	for _, sc := range schedules {
		t.Run(sc.name, func(t *testing.T) {
			r := newMsgReader(&splitReader{data: stream, cuts: sc.cuts(rand.New(rand.NewSource(12)))})
			defer r.close()
			for i, w := range want {
				ahead := r.ahead
				buf, body, err := r.next()
				if err != nil {
					t.Fatalf("message %d: %v", i, err)
				}
				if !bytes.Equal(body, w) {
					t.Fatalf("message %d: %d bytes that differ from the %d sent", i, len(body), len(w))
				}
				if buf.Cap() != wire.ClassSize(len(w)) {
					t.Fatalf("message %d of %d B is held in a %d B buffer, its class is %d B", i, len(w), buf.Cap(), wire.ClassSize(len(w)))
				}
				if r.ahead != ahead && buf != ahead {
					t.Fatalf("message %d: the read-ahead bytes moved without a message leaving in their buffer", i)
				}
				buf.Release()
			}
			if _, _, err := r.next(); err != io.EOF {
				t.Fatalf("after the last message: %v, want io.EOF", err)
			}
		})
	}
}

// TestReceiveRefusesBadStreams: a stream cut inside a length or a
// message is an unexpected end, and a length past ipl.MaxMessageLen (or
// past 64 bits) is refused before anything is sized from it.
func TestReceiveRefusesBadStreams(t *testing.T) {
	overlong := bytes.Repeat([]byte{0x80}, 10)
	for _, tc := range []struct {
		name   string
		stream []byte
		want   error
	}{
		{"cut in a length", []byte{0x80}, io.ErrUnexpectedEOF},
		{"cut in a message", append(wire.AppendUvarint(nil, 70<<10), make([]byte, 9)...), io.ErrUnexpectedEOF},
		{"cut in a read-ahead-sized message", append(wire.AppendUvarint(nil, 30<<10), make([]byte, 9)...), io.ErrUnexpectedEOF},
		{"cut in a small message", append(wire.AppendUvarint(nil, 100), make([]byte, 9)...), io.ErrUnexpectedEOF},
		{"past the bound", wire.AppendUvarint(nil, ipl.MaxMessageLen+1), errMessageTooLarge},
		{"past 64 bits", append(overlong, 0x01), errMessageTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newMsgReader(bytes.NewReader(tc.stream))
			defer r.close()
			if _, _, err := r.next(); err != tc.want {
				t.Fatalf("%v, want %v", err, tc.want)
			}
		})
	}
}
