package drivers_test

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"

	"netibis/internal/driver"
	"netibis/internal/drivers/multi"
)

// badStacks name parameters the drivers do not take, values they cannot
// use, or parameters the syntax refuses. Each must fail on both ends.
var badStacks = []string{
	"multi:stream=8/tcpblk",
	"multi:streams=four/tcpblk",
	"multi:fragment=0/tcpblk",
	"tcpblk:block=64k",
	"tcpblk:block=-1",
	"secure:psk=x:block=-5/tcpblk",
	"tcpblk:block=65536",
	"zip:block=4096/tcpblk",
	"zip:level=1/tcpblk",
	"multi:streams=04/tcpblk",
	"multi:streams=0/tcpblk",
	"multi:streams=65/tcpblk",
	"multi:streams=2:streams=8/tcpblk",
	"secure:psk=/tcpblk",
	"zip:codec=LZ/tcpblk",
	"tcpblk:",
}

// programStacks are the stacks the benchmark and the deployments use.
var programStacks = []string{
	"tcpblk",
	"multi:streams=4/tcpblk",
	"zip/tcpblk",
	"secure:psk=bench/tcpblk",
	"zip:codec=lz/secure:psk=bench/multi:streams=4/tcpblk",
	"secure/tcpblk",
}

var linkKey = bytes.Repeat([]byte{0x5a}, 32)

// errNoConn is what a connection-less environment's Dial and Accept
// return: a build that gets that far has passed every check of its spec.
var errNoConn = errors.New("no connection in this environment")

// dryBuild builds both ends of stack over environments whose Dial and
// Accept fail, and returns their errors and whether either asked for a
// connection.
func dryBuild(stack driver.Stack) (outErr, inErr error, connected bool) {
	var called atomic.Bool // multi asks from one goroutine per sub-stream
	conn := func() (net.Conn, error) { called.Store(true); return nil, errNoConn }
	env := &driver.Env{Dial: conn, Accept: conn, LinkKey: linkKey}
	_, outErr = driver.BuildOutput(stack, env)
	_, inErr = driver.BuildInput(stack, env)
	return outErr, inErr, called.Load()
}

// TestBadParamsFailBothEnds: a stack string naming a deleted or
// misspelt parameter, a malformed value or a malformed field fails on
// both ends of the link before either asks for a connection — at
// ParseStack, or in the builders with driver.ErrBadParam — so it never
// builds some other link than the one asked for.
func TestBadParamsFailBothEnds(t *testing.T) {
	for _, s := range badStacks {
		stack, err := driver.ParseStack(s)
		if err != nil {
			continue // neither end gets a stack to build
		}
		outErr, inErr, connected := dryBuild(stack)
		if connected {
			t.Errorf("%s: a builder asked for a connection", s)
		}
		if !errors.Is(outErr, driver.ErrBadParam) || !errors.Is(inErr, driver.ErrBadParam) {
			t.Errorf("%s: output %v, input %v, want driver.ErrBadParam on both", s, outErr, inErr)
		}
	}
}

// TestProgramStacksCarryBytes: every stack a program uses still builds
// on both ends and carries a message several blocks long unchanged.
func TestProgramStacksCarryBytes(t *testing.T) {
	msg := bytes.Repeat([]byte("four parameters, each read once "), 10000)
	for _, s := range programStacks {
		t.Run(s, func(t *testing.T) {
			roundTrip(t, s, msg)
		})
	}
}

// roundTrip builds both ends of spec over in-memory pipes sharing a link
// key and sends msg through.
func roundTrip(t *testing.T, spec string, msg []byte) {
	t.Helper()
	dialEnv, acceptEnv := driver.PipeEnv()
	dialEnv.LinkKey, acceptEnv.LinkKey = linkKey, linkKey
	out, in := buildStack(t, spec, dialEnv, acceptEnv)
	wrote := make(chan error, 1)
	go func() {
		_, err := out.Write(msg)
		wrote <- errors.Join(err, out.Flush())
	}()
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(in, got); err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("%s: read %v, or the bytes differ", spec, err)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
}

// FuzzParseStack: a stack string either fails on both ends alike —
// at ParseStack, or in both builders before either asks for a
// connection — or builds on both ends and carries a message, and its
// rendering parses back to itself.
func FuzzParseStack(f *testing.F) {
	for _, s := range append(badStacks, programStacks...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		stack, err := driver.ParseStack(s)
		if err != nil {
			return
		}
		again, err := driver.ParseStack(stack.String())
		if err != nil || again.String() != stack.String() {
			t.Fatalf("%q renders as %q, which parses to %q (%v)", s, stack, again, err)
		}
		// Bound what one input may start: no more than 8 sub-streams
		// and 5 layers, a few dozen pipes and goroutines at most.
		streams := 1
		for _, spec := range stack {
			if n, err := multi.Streams(spec); err == nil && spec.Name == multi.Name {
				streams *= n
			}
		}
		if streams > 8 || len(stack) > 5 {
			t.Skip()
		}
		outErr, inErr, _ := dryBuild(stack)
		outOK, inOK := errors.Is(outErr, errNoConn), errors.Is(inErr, errNoConn)
		if outOK != inOK {
			t.Fatalf("%q: output %v, input %v: the ends disagree", s, outErr, inErr)
		}
		if outOK {
			roundTrip(t, stack.String(), []byte("a message through "+s))
		}
	})
}
