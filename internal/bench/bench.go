// Package bench is the evaluation harness: it regenerates every table
// and figure of the paper's evaluation section (Table 1, Figures 9 and
// 10, the Section 4.1 LAN result, the Section 6 compression-crossover
// observation and the qualitative connectivity matrix), plus the
// ablations DESIGN.md calls out.
//
// The quantitative WAN numbers combine two ingredients, as documented in
// DESIGN.md and EXPERIMENTS.md:
//
//   - wire throughput comes from the TCP dynamics model in package
//     simtcp, parameterised with the capacity and round-trip time the
//     paper quotes for each link and a per-link loss rate calibrated to
//     the regime the paper describes;
//   - compression behaviour comes from running the real DEFLATE driver
//     (package drivers/zip) on the real workload to obtain the achieved
//     ratio, combined with a compressor-throughput budget representative
//     of the 2004-era CPUs used in the paper (the measured throughput of
//     a modern CPU is also reported, so the substitution is explicit).
//
// We do not claim the paper's absolute numbers; the reproduced result is
// the shape: who wins, by roughly what factor, and where the crossovers
// fall.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"netibis/internal/drivers/zip"
	"netibis/internal/estab"
	"netibis/internal/simtcp"
	"netibis/internal/workload"
)

// LinkSpec describes one WAN scenario of the evaluation.
type LinkSpec struct {
	// Name identifies the link (e.g. "Amsterdam-Rennes").
	Name string
	// CapacityBps is the link capacity in bytes per second.
	CapacityBps float64
	// RTT is the round-trip time.
	RTT time.Duration
	// LossRate is the random per-segment loss probability used by the
	// TCP model (calibration discussed in EXPERIMENTS.md).
	LossRate float64
}

// The links of the paper's evaluation.
var (
	// AmsterdamRennes is the high-latency, low-bandwidth link of
	// Figure 9: 1.6 MB/s capacity, 30 ms typical latency. The loss rate
	// is calibrated so a single TCP stream lands near the paper's 56%
	// utilization.
	AmsterdamRennes = LinkSpec{Name: "Amsterdam-Rennes", CapacityBps: 1.6e6, RTT: 30 * time.Millisecond, LossRate: 0.003}
	// DelftSophia is the high-latency, high-bandwidth link of Figure 10:
	// 9 MB/s capacity, 43 ms typical latency.
	DelftSophia = LinkSpec{Name: "Delft-Sophia", CapacityBps: 9e6, RTT: 43 * time.Millisecond, LossRate: 0.0005}
	// LAN100 is the 100 Mbit/s Ethernet of Section 4.1.
	LAN100 = LinkSpec{Name: "100Mbit-LAN", CapacityBps: 12.5e6, RTT: 200 * time.Microsecond, LossRate: 0}
)

// EraCompressorBps is the compressor-throughput budget representing the
// CPUs used in the paper's testbed: the paper reports compression
// topping out around 5 MB/s of application data on the Delft–Sophia
// link, which is CPU bound there. A modern CPU compresses more than an
// order of magnitude faster; using the calibrated budget preserves the
// crossover behaviour the paper reports (helpful below ~6 MB/s links,
// harmful above). The measured modern value is reported alongside.
const EraCompressorBps = 5.0e6

// StreamContentionFactor models the loss of compressor efficiency when
// compression shares the sender with several parallel streams (smaller
// blocks per stream and CPU contention); this is what makes
// "compression + parallel streams" slower than compression alone on the
// fast link, as in Figure 10.
const StreamContentionFactor = 0.75

// MethodSpec is one link utilization configuration.
type MethodSpec struct {
	// Name is the label used in the paper's figures.
	Name string
	// Streams is the number of parallel TCP streams (1 = plain).
	Streams int
	// Compress enables zlib level-1 compression.
	Compress bool
}

// The method set of Figures 9 and 10.
var (
	PlainTCP           = MethodSpec{Name: "plain TCP", Streams: 1}
	FourStreams        = MethodSpec{Name: "4 streams", Streams: 4}
	EightStreams       = MethodSpec{Name: "8 streams", Streams: 8}
	Compression        = MethodSpec{Name: "compression", Streams: 1, Compress: true}
	CompressionStreams = MethodSpec{Name: "compression + 4 streams", Streams: 4, Compress: true}
)

// Row is one data point of a figure: a (link, method, message size)
// combination and the modelled application-level bandwidth.
type Row struct {
	Link        string
	Method      string
	MessageSize int64
	// BandwidthMBps is the application-level bandwidth in MB/s.
	BandwidthMBps float64
	// Utilization is bandwidth relative to the raw link capacity; with
	// compression it can exceed 1, exactly as in the paper (203%).
	Utilization float64
}

// CompressionProfile captures how the evaluation workload compresses.
type CompressionProfile struct {
	// Ratio is the achieved DEFLATE level-1 ratio on the workload.
	Ratio float64
	// MeasuredBps is the compressor throughput measured on this machine.
	MeasuredBps float64
	// EraBps is the calibrated 2004-era compressor budget used by the
	// figure models.
	EraBps float64
}

// discardOutput is a driver.Output that counts and drops everything.
type discardOutput struct{ n int64 }

func (d *discardOutput) Write(p []byte) (int, error) { d.n += int64(len(p)); return len(p), nil }
func (d *discardOutput) Flush() error                { return nil }
func (d *discardOutput) Close() error                { return nil }

// MeasureCompression runs the real zip driver (DEFLATE level 1) over the
// evaluation workload and reports the achieved ratio and throughput.
func MeasureCompression(kind workload.Kind, bytes int) CompressionProfile {
	if bytes <= 0 {
		bytes = 4 << 20
	}
	payload := workload.Generate(kind, bytes, 1)
	sink := &discardOutput{}
	out, err := zip.NewOutputOptions(sink, zip.Options{Level: 1})
	if err != nil {
		return CompressionProfile{Ratio: 1, MeasuredBps: 0, EraBps: EraCompressorBps}
	}
	start := time.Now()
	out.Write(payload)
	out.Flush()
	elapsed := time.Since(start)
	ratio := out.Ratio()
	measured := float64(len(payload)) / elapsed.Seconds()
	return CompressionProfile{Ratio: ratio, MeasuredBps: measured, EraBps: EraCompressorBps}
}

// WireThroughput returns the modelled sustained wire throughput (bytes
// per second of bytes-on-the-wire) for the given link and stream count.
func WireThroughput(link LinkSpec, streams int) float64 {
	p := simtcp.Params{
		CapacityBps: link.CapacityBps,
		RTT:         link.RTT,
		LossRate:    link.LossRate,
		Streams:     streams,
		Seed:        1,
	}
	return simtcp.SteadyState(p).ThroughputBps
}

// MethodBandwidth returns the modelled application-level bandwidth for
// one method on one link at one message size.
func MethodBandwidth(link LinkSpec, m MethodSpec, msgSize int64, comp CompressionProfile) float64 {
	streams := m.Streams
	if streams < 1 {
		streams = 1
	}
	wire := WireThroughput(link, streams)
	sustained := wire
	if m.Compress {
		budget := comp.EraBps
		if budget <= 0 {
			budget = comp.MeasuredBps
		}
		if streams > 1 {
			budget *= StreamContentionFactor
		}
		// The application-level rate is bounded by how fast the sender
		// can compress and by how much decompressed payload the wire
		// rate corresponds to.
		sustained = wire * comp.Ratio
		if sustained > budget {
			sustained = budget
		}
	}
	p := simtcp.Params{CapacityBps: link.CapacityBps, RTT: link.RTT, LossRate: link.LossRate, Streams: streams}
	return simtcp.MessageThroughput(p, msgSize, sustained)
}

// figure generates the rows of one bandwidth-vs-message-size figure.
func figure(link LinkSpec, methods []MethodSpec, sizes []int64, comp CompressionProfile) []Row {
	rows := make([]Row, 0, len(methods)*len(sizes))
	for _, m := range methods {
		for _, size := range sizes {
			bw := MethodBandwidth(link, m, size, comp)
			rows = append(rows, Row{
				Link:          link.Name,
				Method:        m.Name,
				MessageSize:   size,
				BandwidthMBps: bw / 1e6,
				Utilization:   bw / link.CapacityBps,
			})
		}
	}
	return rows
}

// Fig9 regenerates paper Figure 9: bandwidth obtained with the various
// methods between Amsterdam and Rennes.
func Fig9() []Row {
	comp := MeasureCompression(workload.Grid, 4<<20)
	methods := []MethodSpec{PlainTCP, Compression, FourStreams, CompressionStreams}
	return figure(AmsterdamRennes, methods, workload.MessageSizesFig9, comp)
}

// Fig10 regenerates paper Figure 10: bandwidth obtained with TCP and
// parallel streams between Delft and Sophia (plus the compression rows
// discussed in the accompanying text).
func Fig10() []Row {
	comp := MeasureCompression(workload.Grid, 4<<20)
	methods := []MethodSpec{PlainTCP, FourStreams, EightStreams, Compression, CompressionStreams}
	return figure(DelftSophia, methods, workload.MessageSizesFig10, comp)
}

// PeakBandwidth extracts the largest-message bandwidth of one method
// from a set of figure rows (the headline numbers quoted in the paper's
// text).
func PeakBandwidth(rows []Row, method string) float64 {
	best := 0.0
	var maxSize int64
	for _, r := range rows {
		if r.Method != method {
			continue
		}
		if r.MessageSize > maxSize || (r.MessageSize == maxSize && r.BandwidthMBps > best) {
			maxSize = r.MessageSize
			best = r.BandwidthMBps
		}
	}
	return best
}

// --- Section 4.1: LAN block aggregation -----------------------------------------------

// LANRow is one data point of the block-aggregation experiment.
type LANRow struct {
	MessageSize   int64
	Aggregated    bool
	BandwidthMBps float64
}

// perBlockCost models the fixed per-block cost (system call, interrupt,
// protocol handling) of the era's network stacks; it is what makes
// unaggregated small messages slow even on a fast LAN.
const perBlockCost = 60 * time.Microsecond

// LANAggregation regenerates the Section 4.1 observation: user-space
// aggregation with an explicit flush reaches ~11.8 MB/s on a 100 Mbit/s
// Ethernet even for small application messages, while sending every
// small message as its own block does not.
func LANAggregation() []LANRow {
	const totalBytes = 8 << 20
	const blockSize = 64 * 1024
	var rows []LANRow
	for _, msgSize := range workload.SmallMessageSizes {
		for _, aggregated := range []bool{false, true} {
			blocks := float64(totalBytes) / float64(msgSize)
			if aggregated {
				blocks = float64(totalBytes) / float64(blockSize)
			}
			wireTime := float64(totalBytes)/LAN100.CapacityBps + blocks*perBlockCost.Seconds()
			bw := float64(totalBytes) / wireTime
			rows = append(rows, LANRow{MessageSize: msgSize, Aggregated: aggregated, BandwidthMBps: bw / 1e6})
		}
	}
	return rows
}

// --- Section 6: compression crossover --------------------------------------------------

// CrossoverRow is one capacity point of the compression-crossover sweep.
type CrossoverRow struct {
	CapacityMBps     float64
	WithoutMBps      float64
	WithMBps         float64
	CompressionHelps bool
}

// Crossover sweeps link capacity and reports where compression stops
// helping. The paper: "compression could improve the bandwidth for
// networks with a capacity up to 6 MB/s; beyond this threshold,
// compression degrades the performance, with the CPUs used". The
// comparison is between the best non-compressing configuration (4
// parallel streams) and CPU-bound compression, which is exactly the
// trade-off an application tuning a given link faces.
func Crossover() []CrossoverRow {
	comp := MeasureCompression(workload.Grid, 4<<20)
	var rows []CrossoverRow
	for capMBps := 1.0; capMBps <= 12.0; capMBps += 1.0 {
		link := LinkSpec{Name: "sweep", CapacityBps: capMBps * 1e6, RTT: 40 * time.Millisecond, LossRate: 0.0005}
		const size = 4 << 20
		without := MethodBandwidth(link, FourStreams, size, comp)
		with := MethodBandwidth(link, Compression, size, comp)
		rows = append(rows, CrossoverRow{
			CapacityMBps:     capMBps,
			WithoutMBps:      without / 1e6,
			WithMBps:         with / 1e6,
			CompressionHelps: with > without,
		})
	}
	return rows
}

// CrossoverCapacity returns the capacity (MB/s) above which compression
// no longer helps, per the sweep.
func CrossoverCapacity(rows []CrossoverRow) float64 {
	last := 0.0
	for _, r := range rows {
		if r.CompressionHelps {
			last = r.CapacityMBps
		}
	}
	return last
}

// --- Table 1 ----------------------------------------------------------------------------

// Table1Row is one row of the establishment-method property matrix.
type Table1Row struct {
	Method           estab.Method
	CrossesFirewalls bool
	NATSupport       string
	Bootstrap        bool
	NativeTCP        bool
	Relayed          bool
	NeedsBrokering   bool
}

// Table1 reproduces the paper's Table 1 from the implementation's own
// property matrix.
func Table1() []Table1Row {
	methods := []estab.Method{estab.ClientServer, estab.Splicing, estab.Proxy, estab.Routed}
	rows := make([]Table1Row, 0, len(methods))
	for _, m := range methods {
		p := estab.PropertiesOf(m)
		rows = append(rows, Table1Row{
			Method:           m,
			CrossesFirewalls: p.CrossesFirewalls,
			NATSupport:       p.NAT.String(),
			Bootstrap:        p.Bootstrap,
			NativeTCP:        p.NativeTCP,
			Relayed:          p.Relayed,
			NeedsBrokering:   p.NeedsBrokering,
		})
	}
	return rows
}

// --- ablations --------------------------------------------------------------------------

// StreamSweepRow is one point of the stream-count ablation.
type StreamSweepRow struct {
	Streams       int
	BandwidthMBps float64
	Utilization   float64
}

// StreamSweep sweeps the number of parallel streams on the Delft–Sophia
// link (the "selection of the optimal number of parallel TCP streams"
// the paper lists as future work).
func StreamSweep(maxStreams int) []StreamSweepRow {
	if maxStreams <= 0 {
		maxStreams = 16
	}
	var rows []StreamSweepRow
	for s := 1; s <= maxStreams; s *= 2 {
		bw := WireThroughput(DelftSophia, s)
		rows = append(rows, StreamSweepRow{Streams: s, BandwidthMBps: bw / 1e6, Utilization: bw / DelftSophia.CapacityBps})
	}
	return rows
}

// ZlibLevelRow is one point of the compression-level ablation.
type ZlibLevelRow struct {
	Level         int
	Ratio         float64
	CompressMBps  float64
	EffectiveMBps float64 // on the Amsterdam–Rennes link with the era CPU budget scaled by level cost
}

// ZlibLevels reproduces the paper's observation that "only the first
// level of compression turned out to be useful: higher levels consumed
// much more CPU time for only a limited gain in compression".
func ZlibLevels() []ZlibLevelRow {
	payload := workload.Generate(workload.Grid, 4<<20, 1)
	var rows []ZlibLevelRow
	baseline := 0.0
	for _, level := range []int{1, 3, 6, 9} {
		sink := &discardOutput{}
		out, err := zip.NewOutputOptions(sink, zip.Options{Level: level})
		if err != nil {
			continue
		}
		start := time.Now()
		out.Write(payload)
		out.Flush()
		elapsed := time.Since(start).Seconds()
		measured := float64(len(payload)) / elapsed
		if level == 1 {
			baseline = measured
		}
		// Scale the era CPU budget by the measured relative cost of this
		// level, then compute the effective bandwidth on the slow link.
		eraBudget := EraCompressorBps
		if baseline > 0 {
			eraBudget = EraCompressorBps * (measured / baseline)
		}
		comp := CompressionProfile{Ratio: out.Ratio(), MeasuredBps: measured, EraBps: eraBudget}
		eff := MethodBandwidth(AmsterdamRennes, Compression, 4<<20, comp)
		rows = append(rows, ZlibLevelRow{Level: level, Ratio: out.Ratio(), CompressMBps: measured / 1e6, EffectiveMBps: eff / 1e6})
	}
	return rows
}

// --- formatting -------------------------------------------------------------------------

// FormatRows renders figure rows as an aligned text table, one line per
// (method, message size) pair, grouped by method.
func FormatRows(rows []Row) string {
	var b strings.Builder
	byMethod := map[string][]Row{}
	var order []string
	for _, r := range rows {
		if _, ok := byMethod[r.Method]; !ok {
			order = append(order, r.Method)
		}
		byMethod[r.Method] = append(byMethod[r.Method], r)
	}
	for _, m := range order {
		fmt.Fprintf(&b, "%s:\n", m)
		rs := byMethod[m]
		sort.Slice(rs, func(i, j int) bool { return rs[i].MessageSize < rs[j].MessageSize })
		for _, r := range rs {
			fmt.Fprintf(&b, "  %10d bytes  %6.2f MB/s  (%3.0f%% of capacity)\n",
				r.MessageSize, r.BandwidthMBps, r.Utilization*100)
		}
	}
	return b.String()
}

// FormatTable1 renders the Table 1 reproduction.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-17s %-17s %-8s %-10s %-10s %-8s %-10s\n",
		"method", "crosses firewalls", "NAT", "bootstrap", "native TCP", "relayed", "brokering")
	yn := func(v bool) string {
		if v {
			return "yes"
		}
		return "no"
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-17s %-17s %-8s %-10s %-10s %-8s %-10s\n",
			r.Method, yn(r.CrossesFirewalls), r.NATSupport, yn(r.Bootstrap), yn(r.NativeTCP), yn(r.Relayed), yn(r.NeedsBrokering))
	}
	return b.String()
}
