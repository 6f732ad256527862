// Package obs is netibis's dependency-free metrics core.
//
// The package is built around one constraint: instrumenting a hot path
// (the relay cut-through forward, the egress scheduler, the credit
// ledger) must cost a single atomic add and zero heap allocations, so
// the repo's AllocsPerRun == 0 gates stay green with metrics enabled.
// Counters, gauges and histogram buckets are plain atomics that the
// instrumented code updates directly; everything with a cost — label
// rendering, map walks, sorting, text formatting — happens only at
// scrape time, on the scraper's goroutine.
//
// A Registry collects metrics and writes them in the Prometheus text
// exposition format (version 0.0.4). Subsystems expose a MetricsInto
// method registering read-callbacks over their existing atomic state,
// so "metrics enabled" versus "disabled" is purely whether a registry
// is attached — the hot-path adds are unconditional and free either
// way.
//
// Metric names must follow the documented scheme
// netibis_<subsystem>_<name>_<unit> (see DESIGN.md "Observability");
// Register* methods panic on malformed names so a bad name can never
// reach a release — the obs unit tests and the netibis-vet metricname
// analyzer both exercise CheckName.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value. The zero value is ready
// to use; Add and Inc are single atomic adds and never allocate.
type Counter struct{ v atomic.Int64 }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increments the counter by n. n must not be negative.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down. The zero value is ready to
// use; all methods are single atomic operations and never allocate.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets. Buckets are chosen
// at construction and never change, so Observe is a bounds scan plus
// one atomic add (and a CAS loop for the float64 sum) — no allocation.
// Histograms are meant for rare events (establishment latencies, not
// per-frame costs); the CAS on sum is uncontended there.
type Histogram struct {
	bounds  []float64      // ascending upper bounds; +Inf bucket is implicit
	buckets []atomic.Int64 // len(bounds)+1; non-cumulative
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// NewHistogram creates an unregistered histogram with the given
// ascending upper bounds (the +Inf bucket is implicit; an empty bounds
// slice yields a single +Inf bucket). Use Registry.RegisterHistogram
// to expose it.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending: %v", bounds))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Kind identifies a metric family's type.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Subsystems is the closed set of <subsystem> tokens admitted by the
// naming scheme. Adding a subsystem is a deliberate act: extend this
// set and the DESIGN.md table together.
var Subsystems = map[string]bool{
	"relay":       true,
	"overlay":     true,
	"estab":       true,
	"nameservice": true,
	"core":        true,
	"flow":        true,
	"obs":         true,
}

// Units is the closed set of trailing <unit> tokens. "total" is the
// counter pseudo-unit (Prometheus convention); a real unit may precede
// it, as in routed_frames_total.
var Units = map[string]bool{
	"total":   true,
	"seconds": true,
	"bytes":   true,
	"frames":  true,
	"nodes":   true,
	"peers":   true,
	"entries": true,
	"records": true,
	// "write" is the per-syscall ratio denominator: histograms like
	// netibis_relay_egress_frames_per_write count how many frames one
	// vectored write emitted.
	"write": true,
}

// CheckName validates a metric name against the scheme
// netibis_<subsystem>_<name>_<unit> without knowing the metric kind:
// the prefix must be netibis_, the subsystem must be registered in
// Subsystems, the final token must be in Units, and every token is
// lowercase [a-z0-9]. The netibis-vet metricname analyzer applies this
// to every metric name in the tree.
func CheckName(name string) error {
	parts := strings.Split(name, "_")
	if len(parts) < 4 || parts[0] != "netibis" {
		return fmt.Errorf("metric %q: want netibis_<subsystem>_<name>_<unit>", name)
	}
	for _, p := range parts {
		if p == "" {
			return fmt.Errorf("metric %q: empty name token", name)
		}
		for _, r := range p {
			if (r < 'a' || r > 'z') && (r < '0' || r > '9') {
				return fmt.Errorf("metric %q: token %q is not lowercase alphanumeric", name, p)
			}
		}
	}
	if !Subsystems[parts[1]] {
		return fmt.Errorf("metric %q: unknown subsystem %q", name, parts[1])
	}
	if !Units[parts[len(parts)-1]] {
		return fmt.Errorf("metric %q: unknown unit %q", name, parts[len(parts)-1])
	}
	return nil
}

// checkNameKind layers the kind-specific rules over CheckName:
// counters end in _total, gauges and histograms must not.
func checkNameKind(name string, kind Kind) error {
	if err := CheckName(name); err != nil {
		return err
	}
	total := strings.HasSuffix(name, "_total")
	if kind == KindCounter && !total {
		return fmt.Errorf("metric %q: counters must end in _total", name)
	}
	if kind != KindCounter && total {
		return fmt.Errorf("metric %q: %s must not end in _total", name, kind)
	}
	return nil
}

// EmitFunc receives one sample of a labeled family at scrape time.
// labels is the rendered label set (use Labels), "" for none.
type EmitFunc func(labels string, value float64)

// metric is one registered family.
type metric struct {
	name    string
	help    string
	kind    Kind
	hist    *Histogram
	collect func(emit EmitFunc)
}

// Registry holds the registered metric families of one process and
// renders them in Prometheus text format. Registration is not
// hot-path; scraping walks the families in name order.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// register validates and stores a family, panicking on a malformed or
// duplicate name — both are programmer errors that tests catch.
func (r *Registry) register(m *metric) {
	if err := checkNameKind(m.name, m.kind); err != nil {
		panic("obs: " + err.Error())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName[m.name] != nil {
		panic("obs: duplicate metric " + m.name)
	}
	r.byName[m.name] = m
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, kind: KindCounter,
		collect: func(emit EmitFunc) { emit("", float64(c.Value())) }})
	return c
}

// CounterFunc registers a counter whose value is read at scrape time.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: KindCounter,
		collect: func(emit EmitFunc) { emit("", fn()) }})
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, help: help, kind: KindGauge,
		collect: func(emit EmitFunc) { emit("", float64(g.Value())) }})
	return g
}

// GaugeFunc registers a gauge whose value is read at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: KindGauge,
		collect: func(emit EmitFunc) { emit("", fn()) }})
}

// Histogram registers and returns a histogram with the given ascending
// upper bounds (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.register(&metric{name: name, help: help, kind: KindHistogram, hist: h})
	return h
}

// RegisterHistogram registers a histogram created earlier with
// NewHistogram. Subsystems that keep their own instrument structs (so
// instrumentation works with no registry attached) use this to expose
// them when one is.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	r.register(&metric{name: name, help: help, kind: KindHistogram, hist: h})
}

// CounterVec registers a labeled counter family gathered at scrape
// time: collect is invoked with an emit callback and may emit any
// number of label sets. Keep cardinality bounded (see DESIGN.md) —
// label values must come from small, operator-meaningful sets such as
// peer relay IDs or outcome enums, never per-message data.
func (r *Registry) CounterVec(name, help string, collect func(emit EmitFunc)) {
	r.register(&metric{name: name, help: help, kind: KindCounter, collect: collect})
}

// GaugeVec registers a labeled gauge family gathered at scrape time.
func (r *Registry) GaugeVec(name, help string, collect func(emit EmitFunc)) {
	r.register(&metric{name: name, help: help, kind: KindGauge, collect: collect})
}

// Labels renders key/value pairs into a Prometheus label block body:
// Labels("peer", "relay-1") → `peer="relay-1"`. Values are escaped per
// the exposition format. Intended for scrape-time collect callbacks,
// never hot paths.
func Labels(pairs ...string) string {
	if len(pairs)%2 != 0 {
		panic("obs: Labels needs key/value pairs")
	}
	var b strings.Builder
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(pairs[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders every registered family in Prometheus text
// exposition format 0.0.4, in name order. It holds the registry lock
// across the walk, so collect callbacks must not re-enter the
// registry; they may take subsystem locks (Stats-style snapshots).
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	metrics := make([]*metric, len(names))
	for i, n := range names {
		metrics[i] = r.byName[n]
	}
	r.mu.Unlock()

	var err error
	for _, m := range metrics {
		if m.help != "" {
			if _, err = fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
				return err
			}
		}
		if _, err = fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind); err != nil {
			return err
		}
		if m.kind == KindHistogram {
			if err = writeHistogram(w, m.name, m.hist); err != nil {
				return err
			}
			continue
		}
		m.collect(func(labels string, value float64) {
			if err != nil {
				return
			}
			if labels == "" {
				_, err = fmt.Fprintf(w, "%s %s\n", m.name, formatValue(value))
			} else {
				_, err = fmt.Fprintf(w, "%s{%s} %s\n", m.name, labels, formatValue(value))
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, h *Histogram) error {
	var cum int64
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatValue(bound), cum); err != nil {
			return err
		}
	}
	cum += h.buckets[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", name, formatValue(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	return err
}

// LatencyBuckets is the default upper-bound set for establishment and
// failover latencies, in seconds: 1 ms up to ~4 s in powers of two.
func LatencyBuckets() []float64 {
	return []float64{0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064,
		0.128, 0.256, 0.512, 1.024, 2.048, 4.096}
}
