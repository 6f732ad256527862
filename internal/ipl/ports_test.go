package ipl_test

import (
	"bytes"
	"fmt"
	"testing"

	"netibis/internal/core"
	"netibis/internal/emunet"
	"netibis/internal/ipl"
)

// shape is one way to fill a message, and the reads that take it apart
// again on the receiving side.
type shape struct {
	name string
	// write fills m and returns the slices it handed to WriteBytes, which
	// the test overwrites as soon as Finish returns.
	write func(t *testing.T, m *ipl.WriteMessage) [][]byte
	read  func(m *ipl.ReadMessage) error
}

// fill returns n bytes of a pattern that depends on seed.
func fill(seed, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(seed*31 + i*7 + i>>10)
	}
	return p
}

// expectBytes reads a byte item and compares it to want.
func expectBytes(m *ipl.ReadMessage, want []byte) error {
	got, err := m.ReadBytes()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%d bytes arrived for %d sent, or different ones", len(got), len(want))
	}
	return nil
}

func expectInt(m *ipl.ReadMessage, want int64) error {
	got, err := m.ReadInt()
	if err == nil && got != want {
		err = fmt.Errorf("int %d arrived for %d", got, want)
	}
	return err
}

// messageShapes covers every way a message holds, or does not hold, a
// borrowed piece: a large last item (borrowed), a large item behind which
// more follows (copied in), two large items (the last borrowed), small
// items only, Size and Payload before Finish (which copy the piece in),
// and sizes on both sides of the borrow size.
var messageShapes = []shape{
	{
		name: "one large last item",
		write: func(t *testing.T, m *ipl.WriteMessage) [][]byte {
			p := fill(1, 70<<10+3)
			m.WriteInt(11).WriteBytes(p)
			return [][]byte{p}
		},
		read: func(m *ipl.ReadMessage) error {
			if err := expectInt(m, 11); err != nil {
				return err
			}
			return expectBytes(m, fill(1, 70<<10+3))
		},
	},
	{
		name: "exactly the borrow size, and one byte under it",
		write: func(t *testing.T, m *ipl.WriteMessage) [][]byte {
			p, q := fill(2, 64<<10-1), fill(3, 64<<10)
			m.WriteBytes(p).WriteBytes(q)
			return [][]byte{p, q}
		},
		read: func(m *ipl.ReadMessage) error {
			if err := expectBytes(m, fill(2, 64<<10-1)); err != nil {
				return err
			}
			return expectBytes(m, fill(3, 64<<10))
		},
	},
	{
		name: "a large item followed by small ones",
		write: func(t *testing.T, m *ipl.WriteMessage) [][]byte {
			p := fill(4, 200<<10)
			m.WriteBytes(p).WriteInt(-5).WriteString("tail").WriteBool(true)
			return [][]byte{p}
		},
		read: func(m *ipl.ReadMessage) error {
			if err := expectBytes(m, fill(4, 200<<10)); err != nil {
				return err
			}
			if err := expectInt(m, -5); err != nil {
				return err
			}
			if s, err := m.ReadString(); err != nil || s != "tail" {
				return fmt.Errorf("string %q, %v", s, err)
			}
			if b, err := m.ReadBool(); err != nil || !b {
				return fmt.Errorf("bool %v, %v", b, err)
			}
			return nil
		},
	},
	{
		name: "two large items",
		write: func(t *testing.T, m *ipl.WriteMessage) [][]byte {
			p, q := fill(5, 96<<10), fill(6, 1<<20)
			m.WriteBytes(p).WriteBytes(q)
			return [][]byte{p, q}
		},
		read: func(m *ipl.ReadMessage) error {
			if err := expectBytes(m, fill(5, 96<<10)); err != nil {
				return err
			}
			return expectBytes(m, fill(6, 1<<20))
		},
	},
	{
		name: "only small items",
		write: func(t *testing.T, m *ipl.WriteMessage) [][]byte {
			p := fill(7, 100)
			m.WriteInt(1 << 40).WriteBytes(p).WriteFloat(2.5).WriteString("grid")
			return [][]byte{p}
		},
		read: func(m *ipl.ReadMessage) error {
			if err := expectInt(m, 1<<40); err != nil {
				return err
			}
			if err := expectBytes(m, fill(7, 100)); err != nil {
				return err
			}
			if f, err := m.ReadFloat(); err != nil || f != 2.5 {
				return fmt.Errorf("float %v, %v", f, err)
			}
			if s, err := m.ReadString(); err != nil || s != "grid" {
				return fmt.Errorf("string %q, %v", s, err)
			}
			return nil
		},
	},
	{
		name: "Size and Payload before Finish",
		write: func(t *testing.T, m *ipl.WriteMessage) [][]byte {
			p := fill(8, 128<<10)
			m.WriteInt(3)
			before := m.Size()
			m.WriteBytes(p)
			// tag, a three-byte length, the bytes
			if got, want := m.Size(), before+1+3+len(p); got != want {
				t.Errorf("Size with a borrowed item = %d, want %d", got, want)
			}
			enc := m.Payload()
			if len(enc) != m.Size() || !bytes.HasSuffix(enc, p) {
				t.Errorf("Payload is %d bytes for Size %d, or does not end in the item", len(enc), m.Size())
			}
			return [][]byte{p}
		},
		read: func(m *ipl.ReadMessage) error {
			if err := expectInt(m, 3); err != nil {
				return err
			}
			return expectBytes(m, fill(8, 128<<10))
		},
	},
}

// TestMessageShapesRoundTrip sends every message shape through a real
// send port, fanned out to two receive ports, over the plain, striped
// and sealed stacks, and overwrites each slice handed to WriteBytes as
// soon as Finish returns: what arrives must be what the message held
// when Finish was called, on both ports, whatever was borrowed.
func TestMessageShapesRoundTrip(t *testing.T) {
	f := emunet.NewFabric(emunet.WithSeed(3))
	defer f.Close()
	dep, err := core.NewDeployment(f)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	join := func(site *emunet.Site, name string) *core.Node {
		n, err := core.Join(dep.NodeConfig(site.AddHost(name), "shapes", name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	open := emunet.SiteConfig{Firewall: emunet.Open}
	src := join(dep.AddSite("site-src", open), "src")
	dst := join(dep.AddSite("site-dst", open), "dst")

	for s, stack := range []string{"tcpblk", "multi:streams=4/tcpblk", "secure:psk=x/tcpblk"} {
		t.Run(stack, func(t *testing.T) {
			pt := ipl.PortType{Name: fmt.Sprintf("shapes-%d", s), Stack: stack}
			sp, err := src.CreateSendPort(pt)
			if err != nil {
				t.Fatal(err)
			}
			defer sp.Close()
			var rps []ipl.ReceivePort
			for k := range 2 {
				rp, err := dst.CreateReceivePort(pt, fmt.Sprintf("shapes-%d-%d", s, k))
				if err != nil {
					t.Fatal(err)
				}
				defer rp.Close()
				if err := sp.Connect(rp.ID()); err != nil {
					t.Fatal(err)
				}
				rps = append(rps, rp)
			}
			for _, sh := range messageShapes {
				m, err := sp.NewMessage()
				if err != nil {
					t.Fatal(err)
				}
				lent := sh.write(t, m)
				if err := m.Finish(); err != nil {
					t.Fatalf("%s: %v", sh.name, err)
				}
				for _, p := range lent {
					for i := range p {
						p[i] = 0xEE
					}
				}
				for k, rp := range rps {
					msg, err := rp.Receive()
					if err != nil {
						t.Fatalf("%s: port %d: %v", sh.name, k, err)
					}
					if err := sh.read(msg); err != nil {
						t.Errorf("%s: port %d: %v", sh.name, k, err)
					} else if err := msg.Finish(); err != nil {
						t.Errorf("%s: port %d: %v", sh.name, k, err)
					}
				}
			}
		})
	}
}
