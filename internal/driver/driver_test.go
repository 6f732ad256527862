package driver

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// --- stack parsing -----------------------------------------------------------------

func TestParseStackSimple(t *testing.T) {
	st, err := ParseStack("tcpblk")
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 1 || st[0].Name != "tcpblk" || len(st[0].Params) != 0 {
		t.Fatalf("parsed %+v", st)
	}
}

func TestParseStackWithParams(t *testing.T) {
	st, err := ParseStack("zip:level=1/multi:streams=8:fragment=32768/tcpblk:block=65536")
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 3 {
		t.Fatalf("got %d drivers", len(st))
	}
	if st[0].Name != "zip" || st[0].IntParam("level", 0) != 1 {
		t.Fatalf("zip spec wrong: %+v", st[0])
	}
	if st[1].Name != "multi" || st[1].IntParam("streams", 0) != 8 || st[1].IntParam("fragment", 0) != 32768 {
		t.Fatalf("multi spec wrong: %+v", st[1])
	}
	if st[2].Name != "tcpblk" || st[2].IntParam("block", 0) != 65536 {
		t.Fatalf("tcpblk spec wrong: %+v", st[2])
	}
}

func TestParseStackErrors(t *testing.T) {
	for _, bad := range []string{"", "  ", "zip/", "/tcpblk", "zip:notkeyvalue/tcpblk"} {
		if _, err := ParseStack(bad); err == nil {
			t.Errorf("ParseStack(%q) should fail", bad)
		}
	}
}

func TestStackStringRoundTrip(t *testing.T) {
	in := "zip:level=1/multi:fragment=32768:streams=8/tcpblk"
	st, err := ParseStack(in)
	if err != nil {
		t.Fatal(err)
	}
	out := st.String()
	st2, err := ParseStack(out)
	if err != nil {
		t.Fatalf("re-parse %q: %v", out, err)
	}
	if st2.String() != out {
		t.Fatalf("round trip unstable: %q vs %q", st2.String(), out)
	}
}

func TestSpecParamDefaults(t *testing.T) {
	s := Spec{Name: "x", Params: map[string]string{"a": "5", "bad": "xyz"}}
	if s.Param("a", "1") != "5" || s.Param("missing", "d") != "d" {
		t.Fatal("Param defaults wrong")
	}
	if s.IntParam("a", 1) != 5 || s.IntParam("missing", 7) != 7 || s.IntParam("bad", 9) != 9 {
		t.Fatal("IntParam defaults wrong")
	}
}

func TestParseStackQuickNeverPanics(t *testing.T) {
	f := func(s string) bool {
		// Must never panic, whatever the input.
		_, _ = ParseStack(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// --- registry and building -----------------------------------------------------------

// loopOutput / loopInput are trivial test drivers connected by a shared
// in-memory byte queue.
type loopQueue struct {
	mu   sync.Mutex
	cond *sync.Cond
	buf  []byte
	done bool
}

func newLoopQueue() *loopQueue {
	q := &loopQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

type loopOutput struct{ q *loopQueue }

func (o loopOutput) Write(p []byte) (int, error) {
	o.q.mu.Lock()
	o.q.buf = append(o.q.buf, p...)
	o.q.cond.Broadcast()
	o.q.mu.Unlock()
	return len(p), nil
}
func (o loopOutput) Flush() error { return nil }
func (o loopOutput) Close() error {
	o.q.mu.Lock()
	o.q.done = true
	o.q.cond.Broadcast()
	o.q.mu.Unlock()
	return nil
}

type loopInput struct{ q *loopQueue }

func (i loopInput) Read(p []byte) (int, error) {
	i.q.mu.Lock()
	defer i.q.mu.Unlock()
	for len(i.q.buf) == 0 {
		if i.q.done {
			return 0, io.EOF
		}
		i.q.cond.Wait()
	}
	n := copy(p, i.q.buf)
	i.q.buf = i.q.buf[n:]
	return n, nil
}
func (i loopInput) Close() error { return nil }

// upper is a pass-through filtering driver used to test stack
// composition order.
type upperOutput struct{ lower Output }

func (u upperOutput) Write(p []byte) (int, error) {
	up := []byte(strings.ToUpper(string(p)))
	return u.lower.Write(up)
}
func (u upperOutput) Flush() error { return u.lower.Flush() }
func (u upperOutput) Close() error { return u.lower.Close() }

func init() {
	q := newLoopQueue()
	Register("testloop",
		func(Spec, *Env, func() (Output, error)) (Output, error) { return loopOutput{q}, nil },
		func(Spec, *Env, func() (Input, error)) (Input, error) { return loopInput{q}, nil })
	Register("testupper",
		func(_ Spec, _ *Env, lower func() (Output, error)) (Output, error) {
			l, err := lower()
			if err != nil {
				return nil, err
			}
			return upperOutput{l}, nil
		},
		func(_ Spec, _ *Env, lower func() (Input, error)) (Input, error) { return lower() })
}

func TestRegisterAndBuild(t *testing.T) {
	names := Registered()
	found := false
	for _, n := range names {
		if n == "testloop" {
			found = true
		}
	}
	if !found {
		t.Fatalf("testloop not in registry: %v", names)
	}

	stack, err := ParseStack("testupper/testloop")
	if err != nil {
		t.Fatal(err)
	}
	out, err := BuildOutput(stack, nil)
	if err != nil {
		t.Fatal(err)
	}
	in, err := BuildInput(stack, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := out.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	out.Flush()
	out.Close()
	got, err := io.ReadAll(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "HELLO" {
		t.Fatalf("stack composition wrong: %q", got)
	}
}

func TestBuildUnknownDriver(t *testing.T) {
	stack, _ := ParseStack("nosuchdriver")
	if _, err := BuildOutput(stack, nil); !errors.Is(err, ErrUnknownDriver) {
		t.Fatalf("expected ErrUnknownDriver, got %v", err)
	}
	if _, err := BuildInput(stack, nil); !errors.Is(err, ErrUnknownDriver) {
		t.Fatalf("expected ErrUnknownDriver, got %v", err)
	}
}

func TestBuildEmptyStack(t *testing.T) {
	if _, err := BuildOutput(nil, nil); err == nil {
		t.Fatal("empty stack must fail")
	}
	if _, err := BuildInput(nil, nil); err == nil {
		t.Fatal("empty stack must fail")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration should panic")
		}
	}()
	Register("testloop", nil, nil)
}

func TestSingleConnEnv(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	env := SingleConnEnv(a)
	c1, err := env.Dial()
	if err != nil || c1 != a {
		t.Fatalf("first Dial should return the conn: %v %v", c1, err)
	}
	if _, err := env.Dial(); err == nil {
		t.Fatal("second Dial should fail")
	}
}
