// Package driver implements the NetIbis driver-stack framework
// (paper Section 5.1, Figure 6).
//
// A NetIbis communication path is built from a stack of drivers. Each
// driver provides one single added value: a networking driver moves
// bytes over established connections (the block-oriented TCP driver
// TCP_Block), a filtering driver transforms the byte stream on its way
// down and up (compression, parallel-stream fragmentation). Drivers
// have uniform interfaces which makes them interchangeable and freely
// composable: compression over parallel streams over block-oriented TCP
// is simply the stack "zip/multi/tcpblk".
//
// Block-oriented drivers (tcpblk, zip, secure) share one pipeline,
// BlockOutput and BlockInput in block.go, which owns everything around a
// driver's transform: the layer's lock, the aggregation buffer and its
// large-write bypass, the counters, the Flush and Close order, the Read
// loop and the close-unblocks-read teardown. Such a driver embeds the
// two and supplies its builders, its header codec and two hooks: emit
// (frame, compress or seal a block and hand it down) and fill (read one
// block from below and decode it). Each of the three passes its block
// size, large-write bypass threshold and largest bypassing piece to
// NewBlockOutput, with the reason next to the call.
//
// The framework is strictly separated from connection establishment:
// drivers receive their connections from an Env whose Dial/Accept
// functions are provided by the socket factories (package estab and the
// integration layer in package core). This is the paper's central
// design point — establishment and utilization are orthogonal.
package driver

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"netibis/internal/wire"
)

// Output is the sending side of a driver stack: a byte stream with
// explicit flush boundaries. Drivers may aggregate written data until
// Flush is called (that is exactly what TCP_Block does).
type Output interface {
	io.Writer
	// Flush pushes all buffered data down the stack and onto the wire.
	Flush() error
	// Close flushes and releases the driver and everything below it.
	Close() error
}

// Input is the receiving side of a driver stack.
type Input interface {
	io.Reader
	// Close releases the driver and everything below it.
	Close() error
}

// BufWriter is the optional zero-copy fast path of an Output. A driver
// that implements it accepts whole payloads by ownership transfer: the
// caller hands over its reference to the Buf and must not touch the Buf
// afterwards; the driver releases it exactly once when it is done (the
// parallel-streams driver after the last fragment aliasing it has been
// handed to its sub-stream). A block driver takes the payload as a unit
// its reader reads alone: no later Write rides in its block (see
// NewBlockOutput). Callers feature-detect the fast path with an
// interface assertion — see WriteBuf — and fall back to the plain
// io.Writer path.
type BufWriter interface {
	WriteBuf(b *wire.Buf) error
}

// BufReader has no implementation left; the declaration goes with the
// next benchmark PR (benchmark/ still names it).
type BufReader interface {
	ReadBuf() (*wire.Buf, error)
}

// WriteBuf hands an owned Buf to an Output, using the driver's zero-copy
// fast path when it has one and the compatible copy path otherwise. In
// both cases the caller's reference is consumed.
func WriteBuf(o Output, b *wire.Buf) error {
	if bw, ok := o.(BufWriter); ok {
		return bw.WriteBuf(b)
	}
	_, err := o.Write(b.Bytes())
	b.Release()
	return err
}

// Env gives drivers access to the connections prepared for this link by
// the socket factories, plus link-wide settings.
type Env struct {
	// Dial returns the next connection to the peer for this link. The
	// first call returns the already-established primary connection;
	// further calls trigger brokered establishment of additional
	// connections (used by the parallel streams driver). Required on
	// the sending side. Dial must be safe for concurrent use: the
	// parallel-streams driver establishes its sub-streams concurrently.
	Dial func() (net.Conn, error)
	// Accept returns the next incoming connection for this link on the
	// receiving side. The first call returns the primary connection.
	// Like Dial, Accept must be safe for concurrent use.
	Accept func() (net.Conn, error)
	// LinkKey is 32 bytes only the two nodes this link connects hold (the
	// integration layer exports them from the end-to-end handshake of the
	// service link), or nil when they share none. It keys a secure layer
	// that names no key of its own, on every connection of the link.
	LinkKey []byte
}

// Spec describes one driver in a stack together with its parameters,
// e.g. {Name: "multi", Params: {"streams": "4"}}.
type Spec struct {
	Name   string
	Params map[string]string
}

// Param returns a named parameter or the default.
func (s Spec) Param(key, def string) string {
	if v, ok := s.Params[key]; ok {
		return v
	}
	return def
}

// IntParam returns a named integer parameter, or the default when it is
// absent or malformed. The benchmark's probe driver is its last caller.
func (s Spec) IntParam(key string, def int) int {
	v, ok := s.Params[key]
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}

// String renders the spec in the textual stack syntax.
func (s Spec) String() string {
	if len(s.Params) == 0 {
		return s.Name
	}
	keys := make([]string, 0, len(s.Params))
	for k := range s.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+s.Params[k])
	}
	return s.Name + ":" + strings.Join(parts, ":")
}

// Stack is an ordered list of driver specs, outermost (application
// facing) first, networking driver last.
type Stack []Spec

// String renders the stack in the textual syntax accepted by ParseStack.
func (st Stack) String() string {
	parts := make([]string, len(st))
	for i, s := range st {
		parts[i] = s.String()
	}
	return strings.Join(parts, "/")
}

// ParseStack parses the textual stack syntax:
//
//	"zip:codec=lz/secure:psk=grid/multi:streams=4/tcpblk"
//
// Driver names are separated by '/', parameters by ':' as key=value.
// Every parameter names a key and a value, and no key twice.
func ParseStack(s string) (Stack, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("driver: empty stack specification")
	}
	var stack Stack
	for _, part := range strings.Split(s, "/") {
		fields := strings.Split(part, ":")
		name := strings.TrimSpace(fields[0])
		if name == "" {
			return nil, fmt.Errorf("driver: empty driver name in %q", s)
		}
		spec := Spec{Name: name}
		for _, kv := range fields[1:] {
			key, value, ok := strings.Cut(kv, "=")
			if _, dup := spec.Params[key]; !ok || key == "" || value == "" || dup {
				return nil, fmt.Errorf("driver: malformed parameter %q in %q", kv, s)
			}
			if spec.Params == nil {
				spec.Params = make(map[string]string)
			}
			spec.Params[key] = value
		}
		stack = append(stack, spec)
	}
	return stack, nil
}

// OutputBuilder constructs the sending side of one driver. For filtering
// drivers, buildLower constructs a fresh instance of the rest of the
// stack below; drivers that need several sub-links (parallel streams)
// call it several times. For networking drivers buildLower is nil and
// the driver obtains its connection(s) from env.Dial.
type OutputBuilder func(spec Spec, env *Env, buildLower func() (Output, error)) (Output, error)

// InputBuilder is the receiving-side equivalent of OutputBuilder.
type InputBuilder func(spec Spec, env *Env, buildLower func() (Input, error)) (Input, error)

// registry of installed drivers.
var (
	regMu      sync.RWMutex
	outBuilder = map[string]OutputBuilder{}
	inBuilder  = map[string]InputBuilder{}
)

// Register installs a driver under the given name. It is typically
// called from the driver package's init function.
func Register(name string, ob OutputBuilder, ib InputBuilder) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := outBuilder[name]; dup {
		panic(fmt.Sprintf("driver: duplicate registration of %q", name))
	}
	outBuilder[name] = ob
	inBuilder[name] = ib
}

// ErrUnknownDriver is returned when a stack names a driver that has not
// been registered.
var ErrUnknownDriver = errors.New("driver: unknown driver")

// ErrBadParam is wrapped by the error a builder returns for a stack
// parameter its driver does not take, or a value it cannot use.
var ErrBadParam = errors.New("driver: bad stack parameter")

// CheckParams fails a spec that names a parameter outside keys. A driver's
// two builders call it before they build anything, so both ends fail.
func CheckParams(spec Spec, keys ...string) error {
	for k := range spec.Params {
		if !slices.Contains(keys, k) {
			return fmt.Errorf("%w: %s takes no %q", ErrBadParam, spec.Name, k)
		}
	}
	return nil
}

// BuildOutput instantiates the sending side of the stack over env.
func BuildOutput(stack Stack, env *Env) (Output, error) {
	return build(stack, 0, env, outBuilder)
}

// BuildInput instantiates the receiving side of the stack over env.
func BuildInput(stack Stack, env *Env) (Input, error) {
	return build(stack, 0, env, inBuilder)
}

// build instantiates stack[i:] over env with one side's builders.
func build[T any, B ~func(Spec, *Env, func() (T, error)) (T, error)](stack Stack, i int, env *Env, builders map[string]B) (T, error) {
	var none T
	if len(stack) == 0 {
		return none, errors.New("driver: empty stack")
	}
	regMu.RLock()
	b, ok := builders[stack[i].Name]
	regMu.RUnlock()
	if !ok {
		return none, fmt.Errorf("%w: %q", ErrUnknownDriver, stack[i].Name)
	}
	var lower func() (T, error)
	if i+1 < len(stack) {
		lower = func() (T, error) { return build(stack, i+1, env, builders) }
	}
	return b(stack[i], env, lower)
}

// SingleConnEnv is a convenience Env for links that consist of exactly
// one pre-established connection on each side (unit tests, simple
// tools). Additional Dial/Accept calls fail.
func SingleConnEnv(conn net.Conn) *Env {
	used := false
	var mu sync.Mutex
	get := func() (net.Conn, error) {
		mu.Lock()
		defer mu.Unlock()
		if used {
			return nil, errors.New("driver: no additional connections available")
		}
		used = true
		return conn, nil
	}
	return &Env{Dial: get, Accept: get}
}

// PipeEnv returns a connected pair of environments backed by in-memory
// net.Pipe connections: every Dial on the first environment produces a
// fresh pipe whose other end is handed out by the second environment's
// Accept. Sub-stream pairing is by arrival order, which is sufficient
// for every NetIbis driver (the parallel-streams driver orders its
// sub-streams by the index each one starts with). Used by unit tests and
// the measured data-path benchmarks.
func PipeEnv() (dialer, acceptor *Env) {
	ch := make(chan net.Conn, 64)
	dial := func() (net.Conn, error) {
		a, b := net.Pipe()
		ch <- b
		return a, nil
	}
	accept := func() (net.Conn, error) { return <-ch, nil }
	return &Env{Dial: dial}, &Env{Accept: accept}
}
