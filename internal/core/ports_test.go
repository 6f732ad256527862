package core

import (
	"bytes"
	"io"
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
