package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netibis/internal/driver"
	"netibis/internal/wire"
)

// The traced run measures layers from outside: spans around the port
// calls the benchmark makes, and around every call that crosses a
// layer boundary of the driver stack, taken by a pass-through probe
// driver ("benchtrace") inserted above every layer of the stack string.
// Nothing inside the program is touched.

const probeDriver = "benchtrace"

const (
	sideSend = 0
	sideRecv = 1
)

var sideNames = [2]string{"send", "recv"}

// maxDepth bounds the layers of a stack (depth 0 is the port call).
const maxDepth = 8

// spanCap is how many spans one slice of a phase may record; later
// spans of the slice are counted as dropped and the analysis stops at
// the last one kept.
const spanCap = 1 << 18

// span is one timed call. A span's slot is claimed and written when the
// call returns; End is stored last and read first, so a reader that
// sees a non-zero End sees the rest.
type span struct {
	Start  int64
	End    atomic.Int64
	ID     uint32
	Parent uint32
	Msg    uint32
	Bytes  int32
	Kind   uint16
	Link   uint16
}

// spanBuf holds the spans of one slice of a phase. Every slice gets a
// fresh one, so a call that returns after its slice has ended writes
// into a buffer nobody claims slots in any more, never into a slot of
// the next slice.
type spanBuf struct {
	spans []span
	next  atomic.Int64
}

// tracer holds the spans of one traced run.
type tracer struct {
	id    int
	epoch time.Time

	buf     atomic.Pointer[spanBuf]
	dropped atomic.Int64
	ids     atomic.Uint32

	mu      sync.Mutex
	kinds   []string
	kindIdx map[string]uint16
	links   []*traceLink
	dump    []spanRecord // sample kept for -spans

	// The port-call spans (depth 0). control is the link that carries
	// the calls no data link owns: Connect, Ping and Join.
	kEncode, kFinish, kReceive, kDecode uint16
	kControl                            [len(controlNames)]uint16
	control                             *traceLink
}

// The control-plane calls that get a span.
const (
	ctlConnect = iota
	ctlPing
	ctlJoin
)

var controlNames = [...]string{ctlConnect: "Connect", ctlPing: "Ping", ctlJoin: "Join"}

// traceLink is the trace state of one ipl link (one pair, one stack):
// the message each side is working on and the latest span started at
// each depth, which is the parent of the spans one level down.
type traceLink struct {
	id     uint16
	name   string
	layers []string // layer names by depth, layers[0] is "port"
	msg    [2]atomic.Uint32
	cur    [2][maxDepth + 1]atomic.Uint32

	mu     sync.Mutex
	probes [2][maxDepth + 1][]*probeCount
}

// probeCount is what one probe instance has seen pass.
type probeCount struct {
	calls atomic.Int64
	bytes atomic.Int64
}

var (
	tracersMu sync.Mutex
	tracers   = map[int]*tracer{}
	tracerSeq int
)

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), kindIdx: map[string]uint16{}}
	t.buf.Store(&spanBuf{spans: make([]span, spanCap)})
	tracersMu.Lock()
	tracerSeq++
	t.id = tracerSeq
	tracers[t.id] = t
	tracersMu.Unlock()
	t.kEncode = t.kind("send.port.WriteBytes")
	t.kFinish = t.kind("send.port.Finish")
	t.kReceive = t.kind("recv.port.Receive")
	t.kDecode = t.kind("recv.port.ReadBytes")
	for i, name := range controlNames {
		t.kControl[i] = t.kind("send.port." + name)
	}
	t.control = &traceLink{name: "control", layers: []string{"port"}}
	t.links = append(t.links, t.control)
	return t
}

func (t *tracer) close() {
	tracersMu.Lock()
	delete(tracers, t.id)
	tracersMu.Unlock()
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) kind(name string) uint16 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if k, ok := t.kindIdx[name]; ok {
		return k
	}
	k := uint16(len(t.kinds))
	t.kinds = append(t.kinds, name)
	t.kindIdx[name] = k
	return k
}

// newLink registers a link whose stack has the given layers (outermost
// first) and returns it with the stack string to use for it: the
// original with a probe above every layer.
func (t *tracer) newLink(name, stack string) (*traceLink, string, error) {
	parsed, err := driver.ParseStack(stack)
	if err != nil {
		return nil, "", err
	}
	if len(parsed) > maxDepth {
		return nil, "", fmt.Errorf("benchmark: stack %q deeper than %d layers", stack, maxDepth)
	}
	l := &traceLink{name: name, layers: []string{"port"}}
	for _, spec := range parsed {
		l.layers = append(l.layers, spec.Name)
	}
	t.mu.Lock()
	l.id = uint16(len(t.links))
	t.links = append(t.links, l)
	t.mu.Unlock()
	var parts []string
	for i, spec := range parsed {
		parts = append(parts,
			fmt.Sprintf("%s:at=%s:d=%d:l=%d:t=%d", probeDriver, spec.Name, i+1, l.id, t.id),
			spec.String())
	}
	return l, strings.Join(parts, "/"), nil
}

// begin starts a span at the given depth of a link and returns its id
// and start time.
func (t *tracer) begin(l *traceLink, side, depth int) (id uint32, start int64) {
	id = t.ids.Add(1)
	l.cur[side][depth].Store(id)
	return id, t.now()
}

// end records the span begun with begin.
func (t *tracer) end(l *traceLink, side, depth int, kind uint16, id uint32, start int64, bytes int) {
	now := t.now()
	buf := t.buf.Load()
	i := buf.next.Add(1) - 1
	if i >= int64(len(buf.spans)) {
		t.dropped.Add(1)
		return
	}
	s := &buf.spans[i]
	s.Start = start
	s.ID = id
	if depth > 0 {
		s.Parent = l.cur[side][depth-1].Load()
	} else {
		s.Parent = 0
	}
	s.Msg = l.msg[side].Load()
	s.Bytes = int32(min(bytes, 1<<31-1))
	s.Kind = kind
	s.Link = l.id
	s.End.Store(now)
}

// controlSpan times one control-plane call (ctlConnect, ctlPing or
// ctlJoin); a nil tracer makes it a plain call. The closure is fine
// here, these calls take milliseconds; the data path calls begin and
// end directly.
func (t *tracer) controlSpan(call int, f func()) {
	if t == nil {
		f()
		return
	}
	id, start := t.begin(t.control, sideSend, 0)
	f()
	t.end(t.control, sideSend, 0, t.kControl[call], id, start, 0)
}

// spanRecord is the exported form of a span.
type spanRecord struct {
	Name   string `json:"name"`
	Link   string `json:"link"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Msg    uint32 `json:"msg"`
	Bytes  int32  `json:"bytes"`
}

// dumpSample is how many spans of each slice are kept for -spans.
const dumpSample = 4000

// take returns the completed spans of the slice just ended and starts
// a fresh buffer for the next one. It also keeps a sample for -spans.
func (t *tracer) take(phase string) []spanView {
	buf := t.buf.Swap(&spanBuf{spans: make([]span, spanCap)})
	n := min(buf.next.Load(), int64(len(buf.spans)))
	views := make([]spanView, 0, n)
	for i := int64(0); i < n; i++ {
		s := &buf.spans[i]
		end := s.End.Load()
		if end == 0 {
			continue // still being written: the call straddled the phase's end
		}
		views = append(views, spanView{s.Start, end, s.ID, s.Parent, s.Msg, s.Bytes, s.Kind, s.Link})
	}
	t.mu.Lock()
	for i, v := range views {
		if i >= dumpSample {
			break
		}
		t.dump = append(t.dump, spanRecord{
			Name: phase + ":" + t.kinds[v.kind], Link: t.links[v.link].name,
			Start: v.start, End: v.end, ID: v.id, Parent: v.parent, Msg: v.msg, Bytes: v.bytes,
		})
	}
	t.mu.Unlock()
	return views
}

// spanView is a plain copy of a completed span.
type spanView struct {
	start, end int64
	id, parent uint32
	msg        uint32
	bytes      int32
	kind, link uint16
}

// writeSpans writes the kept sample of spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for i := range t.dump {
		if err := enc.Encode(&t.dump[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}

// --- the probe driver -------------------------------------------------------

func init() {
	driver.Register(probeDriver, buildProbeOutput, buildProbeInput)
}

// probe is the state both directions share.
type probe struct {
	t     *tracer
	l     *traceLink
	depth int
	count *probeCount
}

func newProbe(spec driver.Spec, side int) (probe, error) {
	tracersMu.Lock()
	t := tracers[spec.IntParam("t", 0)]
	tracersMu.Unlock()
	if t == nil {
		return probe{}, fmt.Errorf("%s: no tracer %q", probeDriver, spec.Param("t", ""))
	}
	lid := spec.IntParam("l", -1)
	depth := spec.IntParam("d", 0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if lid < 0 || lid >= len(t.links) || depth < 1 || depth >= len(t.links[lid].layers) {
		return probe{}, fmt.Errorf("%s: bad link or depth in %q", probeDriver, spec.String())
	}
	p := probe{t: t, l: t.links[lid], depth: depth, count: &probeCount{}}
	p.l.mu.Lock()
	p.l.probes[side][depth] = append(p.l.probes[side][depth], p.count)
	p.l.mu.Unlock()
	return p, nil
}

func (p *probe) kindOf(side int, op string) uint16 {
	return p.t.kind(sideNames[side] + "." + p.l.layers[p.depth] + "." + op)
}

type probeOutput struct {
	probe
	lower                 driver.Output
	kWrite, kFlush, kDone uint16
}

// probeBufOutput is a probeOutput over a lower layer that takes owned
// buffers; only it forwards the fast path, so the stack above sees
// exactly the interfaces it would see without the probe.
type probeBufOutput struct {
	probeOutput
	lowerBuf driver.BufWriter
}

func buildProbeOutput(spec driver.Spec, _ *driver.Env, lower func() (driver.Output, error)) (driver.Output, error) {
	if lower == nil {
		return nil, fmt.Errorf("%s: requires a lower driver", probeDriver)
	}
	p, err := newProbe(spec, sideSend)
	if err != nil {
		return nil, err
	}
	sub, err := lower()
	if err != nil {
		return nil, err
	}
	po := probeOutput{
		probe: p, lower: sub,
		kWrite: p.kindOf(sideSend, "write"), kFlush: p.kindOf(sideSend, "flush"), kDone: p.kindOf(sideSend, "close"),
	}
	if bw, ok := sub.(driver.BufWriter); ok {
		return &probeBufOutput{probeOutput: po, lowerBuf: bw}, nil
	}
	return &po, nil
}

func (p *probeOutput) Write(b []byte) (int, error) {
	id, start := p.t.begin(p.l, sideSend, p.depth)
	n, err := p.lower.Write(b)
	p.t.end(p.l, sideSend, p.depth, p.kWrite, id, start, n)
	p.count.calls.Add(1)
	p.count.bytes.Add(int64(n))
	return n, err
}

func (p *probeOutput) Flush() error {
	id, start := p.t.begin(p.l, sideSend, p.depth)
	err := p.lower.Flush()
	p.t.end(p.l, sideSend, p.depth, p.kFlush, id, start, 0)
	return err
}

func (p *probeOutput) Close() error {
	id, start := p.t.begin(p.l, sideSend, p.depth)
	err := p.lower.Close()
	p.t.end(p.l, sideSend, p.depth, p.kDone, id, start, 0)
	return err
}

// WriteBuf hands b to the lower layer, which consumes the caller's
// reference exactly once; the length is read before the hand-over.
func (p *probeBufOutput) WriteBuf(b *wire.Buf) error {
	n := b.Len()
	id, start := p.t.begin(p.l, sideSend, p.depth)
	err := p.lowerBuf.WriteBuf(b)
	p.t.end(p.l, sideSend, p.depth, p.kWrite, id, start, n)
	p.count.calls.Add(1)
	p.count.bytes.Add(int64(n))
	return err
}

type probeInput struct {
	probe
	lower        driver.Input
	kRead, kDone uint16
}

type probeBufInput struct {
	probeInput
	lowerBuf driver.BufReader
}

func buildProbeInput(spec driver.Spec, _ *driver.Env, lower func() (driver.Input, error)) (driver.Input, error) {
	if lower == nil {
		return nil, fmt.Errorf("%s: requires a lower driver", probeDriver)
	}
	p, err := newProbe(spec, sideRecv)
	if err != nil {
		return nil, err
	}
	sub, err := lower()
	if err != nil {
		return nil, err
	}
	pi := probeInput{probe: p, lower: sub, kRead: p.kindOf(sideRecv, "read"), kDone: p.kindOf(sideRecv, "close")}
	if br, ok := sub.(driver.BufReader); ok {
		return &probeBufInput{probeInput: pi, lowerBuf: br}, nil
	}
	return &pi, nil
}

func (p *probeInput) Read(b []byte) (int, error) {
	id, start := p.t.begin(p.l, sideRecv, p.depth)
	n, err := p.lower.Read(b)
	p.t.end(p.l, sideRecv, p.depth, p.kRead, id, start, n)
	p.count.calls.Add(1)
	p.count.bytes.Add(int64(n))
	return n, err
}

func (p *probeInput) Close() error {
	id, start := p.t.begin(p.l, sideRecv, p.depth)
	err := p.lower.Close()
	p.t.end(p.l, sideRecv, p.depth, p.kDone, id, start, 0)
	return err
}

// ReadBuf returns the lower layer's owned buffer to the caller, who
// releases it exactly once; the probe keeps no reference.
func (p *probeBufInput) ReadBuf() (*wire.Buf, error) {
	id, start := p.t.begin(p.l, sideRecv, p.depth)
	b, err := p.lowerBuf.ReadBuf()
	n := 0
	if b != nil {
		n = b.Len()
	}
	p.t.end(p.l, sideRecv, p.depth, p.kRead, id, start, n)
	p.count.calls.Add(1)
	p.count.bytes.Add(int64(n))
	return b, err
}
