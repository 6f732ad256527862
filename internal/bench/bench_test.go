package bench

import (
	"strings"
	"testing"

	"netibis/internal/estab"
	"netibis/internal/workload"
)

// These tests pin the *shape* of the paper's evaluation results: who
// wins, by roughly what factor, and where the crossovers fall. The
// absolute values depend on the calibrated substrate and are recorded in
// EXPERIMENTS.md.

func TestMeasureCompression(t *testing.T) {
	comp := MeasureCompression(workload.TextLike, 2<<20)
	if comp.Ratio < 2 {
		t.Fatalf("text-like workload should compress at least 2:1, got %.2f", comp.Ratio)
	}
	if comp.MeasuredBps <= 0 {
		t.Fatal("measured compressor throughput must be positive")
	}
	if comp.EraBps != EraCompressorBps {
		t.Fatal("era budget not propagated")
	}
	random := MeasureCompression(workload.Random, 1<<20)
	if random.Ratio > 1.05 {
		t.Fatalf("random workload should not compress, got %.2f", random.Ratio)
	}
}

func TestFig9Shape(t *testing.T) {
	rows := Fig9()
	if len(rows) != 4*len(workload.MessageSizesFig9) {
		t.Fatalf("unexpected row count %d", len(rows))
	}
	plain := PeakBandwidth(rows, PlainTCP.Name)
	streams := PeakBandwidth(rows, FourStreams.Name)
	comp := PeakBandwidth(rows, Compression.Name)
	both := PeakBandwidth(rows, CompressionStreams.Name)
	capacity := AmsterdamRennes.CapacityBps / 1e6

	// Paper: plain 0.9 (56%), 4 streams 1.5 (93%), compression 3.25
	// (203%), compression+streams 3.4 (best overall).
	if plain >= capacity {
		t.Fatalf("plain TCP (%.2f) should not reach the 1.6 MB/s capacity", plain)
	}
	if plain > 0.8*capacity {
		t.Fatalf("plain TCP (%.2f) should be well below capacity on this lossy link", plain)
	}
	if streams <= plain {
		t.Fatalf("4 streams (%.2f) should beat plain TCP (%.2f)", streams, plain)
	}
	if streams < 0.75*capacity {
		t.Fatalf("4 streams (%.2f) should recover most of the capacity", streams)
	}
	if comp <= capacity {
		t.Fatalf("compression (%.2f) should exceed the raw capacity (%.2f), as in the paper's 203%%", comp, capacity)
	}
	if both < comp {
		t.Fatalf("compression+streams (%.2f) should be at least as fast as compression alone (%.2f) on the slow link", both, comp)
	}
	// Bandwidth must increase with message size for every method.
	byMethod := map[string][]Row{}
	for _, r := range rows {
		byMethod[r.Method] = append(byMethod[r.Method], r)
	}
	for m, rs := range byMethod {
		for i := 1; i < len(rs); i++ {
			if rs[i].BandwidthMBps < rs[i-1].BandwidthMBps {
				t.Fatalf("%s: bandwidth should not decrease with message size", m)
			}
		}
	}
}

func TestFig10Shape(t *testing.T) {
	rows := Fig10()
	plain := PeakBandwidth(rows, PlainTCP.Name)
	four := PeakBandwidth(rows, FourStreams.Name)
	eight := PeakBandwidth(rows, EightStreams.Name)
	comp := PeakBandwidth(rows, Compression.Name)
	both := PeakBandwidth(rows, CompressionStreams.Name)
	capacity := DelftSophia.CapacityBps / 1e6

	// Paper: plain 1.7 (19%), 4 streams 4.6 (51%), 8 streams 7.95 (88%),
	// compression 5, compression+streams 3.5.
	if plain > 0.35*capacity {
		t.Fatalf("plain TCP (%.2f) should be window limited to a small fraction of 9 MB/s", plain)
	}
	if !(plain < four && four < eight) {
		t.Fatalf("stream scaling broken: %.2f, %.2f, %.2f", plain, four, eight)
	}
	if eight < 0.6*capacity {
		t.Fatalf("8 streams (%.2f) should recover most of the capacity", eight)
	}
	if comp >= eight {
		t.Fatalf("on the fast link compression (%.2f) should lose to 8 plain streams (%.2f)", comp, eight)
	}
	if both >= comp {
		t.Fatalf("compression+streams (%.2f) should be slower than compression alone (%.2f) on the fast link (CPU bound)", both, comp)
	}
	if plain <= 0 || both <= 0 {
		t.Fatal("bandwidths must be positive")
	}
}

func TestFig9Fig10RelativeFactors(t *testing.T) {
	// The paper's headline factors, with generous tolerance: parallel
	// streams buy ~1.6x on the slow link and ~3-5x on the fast link;
	// compression buys >2x on the slow link.
	f9 := Fig9()
	f10 := Fig10()
	slowGain := PeakBandwidth(f9, FourStreams.Name) / PeakBandwidth(f9, PlainTCP.Name)
	fastGain := PeakBandwidth(f10, EightStreams.Name) / PeakBandwidth(f10, PlainTCP.Name)
	compGain := PeakBandwidth(f9, Compression.Name) / PeakBandwidth(f9, PlainTCP.Name)
	if slowGain < 1.2 || slowGain > 3 {
		t.Fatalf("4-stream gain on slow link = %.2fx, expected ~1.7x", slowGain)
	}
	if fastGain < 2.5 || fastGain > 8 {
		t.Fatalf("8-stream gain on fast link = %.2fx, expected ~4.7x", fastGain)
	}
	if compGain < 2 {
		t.Fatalf("compression gain on slow link = %.2fx, expected >2x", compGain)
	}
}

func TestLANAggregationShape(t *testing.T) {
	rows := LANAggregation()
	if len(rows) != 2*len(workload.SmallMessageSizes) {
		t.Fatalf("unexpected row count %d", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		unagg, agg := rows[i], rows[i+1]
		if agg.MessageSize != unagg.MessageSize || !agg.Aggregated || unagg.Aggregated {
			t.Fatalf("row pairing broken: %+v %+v", unagg, agg)
		}
		if agg.BandwidthMBps <= unagg.BandwidthMBps {
			t.Fatalf("aggregation should win for %d-byte messages: %.2f vs %.2f",
				agg.MessageSize, agg.BandwidthMBps, unagg.BandwidthMBps)
		}
		// Paper: ~11.8 MB/s on the 100 Mbit/s LAN with aggregation.
		if agg.BandwidthMBps < 11 || agg.BandwidthMBps > 12.5 {
			t.Fatalf("aggregated LAN bandwidth %.2f MB/s outside the expected 11-12.5 range", agg.BandwidthMBps)
		}
	}
	// Small unaggregated messages must be dramatically slower.
	if rows[0].BandwidthMBps > 3 {
		t.Fatalf("64-byte unaggregated messages should be far below line rate, got %.2f", rows[0].BandwidthMBps)
	}
}

func TestCrossoverShape(t *testing.T) {
	rows := Crossover()
	if len(rows) != 12 {
		t.Fatalf("unexpected row count %d", len(rows))
	}
	cross := CrossoverCapacity(rows)
	// Paper: compression helps up to ~6 MB/s.
	if cross < 3 || cross > 9 {
		t.Fatalf("compression crossover at %.1f MB/s, expected in the 3-9 MB/s range (paper: ~6)", cross)
	}
	// Compression must help on the slowest link and hurt on the fastest.
	if !rows[0].CompressionHelps {
		t.Fatal("compression should help on a 1 MB/s link")
	}
	if rows[len(rows)-1].CompressionHelps {
		t.Fatal("compression should hurt on a 12 MB/s link with the era CPU budget")
	}
}

func TestTable1Reproduction(t *testing.T) {
	rows := Table1()
	if len(rows) != 4 {
		t.Fatalf("Table 1 should have 4 rows, got %d", len(rows))
	}
	byMethod := map[estab.Method]Table1Row{}
	for _, r := range rows {
		byMethod[r.Method] = r
	}
	if byMethod[estab.ClientServer].CrossesFirewalls {
		t.Fatal("client/server must not cross firewalls")
	}
	if !byMethod[estab.Splicing].CrossesFirewalls || byMethod[estab.Splicing].NATSupport != "partial" {
		t.Fatal("splicing row wrong")
	}
	if !byMethod[estab.Routed].Relayed || byMethod[estab.Routed].NativeTCP {
		t.Fatal("routed row wrong")
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "tcp-splicing") || !strings.Contains(out, "routed-messages") {
		t.Fatalf("formatted table incomplete:\n%s", out)
	}
}

func TestStreamSweepMonotonic(t *testing.T) {
	rows := StreamSweep(16)
	if len(rows) < 4 {
		t.Fatalf("sweep too short: %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].BandwidthMBps < rows[i-1].BandwidthMBps*0.95 {
			t.Fatalf("bandwidth should not drop when adding streams: %+v -> %+v", rows[i-1], rows[i])
		}
	}
	last := rows[len(rows)-1]
	if last.Utilization < 0.7 {
		t.Fatalf("16 streams should nearly fill the link, got %.0f%%", last.Utilization*100)
	}
}

func TestZlibLevelsAblation(t *testing.T) {
	rows := ZlibLevels()
	if len(rows) < 3 {
		t.Fatalf("ablation too short: %d rows", len(rows))
	}
	if rows[0].Level != 1 {
		t.Fatal("first row should be level 1")
	}
	// Higher levels compress a bit better but not enough to pay for the
	// CPU on the slow link: level 1 must give the best (or equal)
	// effective bandwidth, as the paper found.
	best := rows[0].EffectiveMBps
	for _, r := range rows[1:] {
		if r.Ratio < rows[0].Ratio*0.95 {
			t.Fatalf("level %d ratio %.2f should not be worse than level 1 (%.2f)", r.Level, r.Ratio, rows[0].Ratio)
		}
		if r.EffectiveMBps > best*1.1 {
			t.Fatalf("level %d should not clearly beat level 1 on effective bandwidth (%.2f vs %.2f)",
				r.Level, r.EffectiveMBps, best)
		}
	}
}

func TestFormatRows(t *testing.T) {
	out := FormatRows(Fig9())
	for _, want := range []string{"plain TCP", "compression", "4 streams", "MB/s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted figure missing %q:\n%s", want, out)
		}
	}
}

// TestQualitativeConnectivityMatrix reproduces the paper's qualitative
// result: "In all cases, we were able to establish a connection from
// every node to every other node without opening ports in firewalls."
func TestQualitativeConnectivityMatrix(t *testing.T) {
	entries, err := ConnectivityMatrix(nil)
	if err != nil {
		t.Fatal(err)
	}
	wantPairs := len(Archetypes) * (len(Archetypes) - 1)
	if len(entries) != wantPairs {
		t.Fatalf("expected %d ordered pairs, got %d", wantPairs, len(entries))
	}
	if !FullConnectivity(entries) {
		t.Fatalf("connectivity matrix incomplete:\n%s", FormatMatrix(entries))
	}
	hist := MethodHistogram(entries)
	// Most connections must be native TCP (client/server or splicing),
	// the broken-NAT / strict sites fall back to proxy or routed — the
	// distribution the paper reports.
	native := hist[estab.ClientServer] + hist[estab.Splicing]
	fallback := hist[estab.Proxy] + hist[estab.Routed]
	if native == 0 || fallback == 0 {
		t.Fatalf("method histogram implausible: %v", hist)
	}
	if hist[estab.Splicing] == 0 {
		t.Fatalf("expected at least one spliced pair: %v", hist)
	}
	if native < fallback {
		t.Fatalf("native TCP should dominate: %v", hist)
	}
}

// TestMultiRelayMatrixRow checks that the matrix's multi-relay row is
// fully connected like every other row (its service links cross the
// relay mesh).
func TestMultiRelayMatrixRow(t *testing.T) {
	entries, err := ConnectivityMatrix(nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, e := range entries {
		if e.From == MultiRelayArchetype.Name || e.To == MultiRelayArchetype.Name {
			seen++
			if !e.OK {
				t.Fatalf("multi-relay pair %s -> %s failed: %s", e.From, e.To, e.Err)
			}
		}
	}
	if seen == 0 {
		t.Fatal("matrix has no multi-relay row")
	}
}
