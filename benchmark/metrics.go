package main

import "sort"

// The stacks every workload measures, by metric suffix.
var stacks = []struct{ suffix, spec string }{
	{"plain", "tcpblk"},
	{"streams", "multi:streams=4/tcpblk"},
	{"zip", "zip/tcpblk"}, // flate level 1, the paper's
	{"secure", "secure:psk=bench/tcpblk"},
	{"full", "zip:codec=lz/secure:psk=bench/multi:streams=4/tcpblk"},
}

// The connect scenarios, by metric suffix (see env.go).
var scenarioNames = []string{"direct", "splice", "routed", "raced"}

// metricDef is one row of BENCHMARK.json. Bound is zero for per-layer
// metrics, which have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is the frozen list of end-to-end metrics; every workload
// reports every one of them from the untraced run. fail_ratio is not a
// row: it is the failed/attempted pair of the result line, and any
// failure at all fails the run. rtt_p90_us and cpu_s_per_GB were
// demoted to the per-layer list: two sets of runs of one commit did not
// agree on them within a tenth (README.md, "Bounds").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"goodput_plain_MBps", "MB/s", "higher", 0.25},
	{"goodput_streams_MBps", "MB/s", "higher", 0.25},
	{"goodput_zip_MBps", "MB/s", "higher", 0.25},
	{"goodput_secure_MBps", "MB/s", "higher", 0.25},
	{"goodput_full_MBps", "MB/s", "higher", 0.25},
	{"msg_rate_kps", "1e3/s", "higher", 0.25},
	{"rtt_p50_us", "us", "lower", 0.25},
	{"connect_direct_ms", "ms", "lower", 0.15},
	{"connect_splice_ms", "ms", "lower", 0.15},
	{"connect_routed_ms", "ms", "lower", 0.15},
	{"connect_raced_ms", "ms", "lower", 0.15},
}

// perLayer is the list of per-layer metrics; every workload reports
// every one of them from the traced run. README.md maps each to the
// end-to-end metric it should move.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better})
	}
	add("rtt_p90_us", "us", "lower")
	add("cpu_s_per_GB", "s/GB", "lower")
	add("ipl.encode_us_per_msg", "us", "lower")
	add("core.send_self_us_per_msg", "us", "lower")
	add("core.recv_self_us_per_msg", "us", "lower")
	for _, s := range stacks {
		add("proc.allocs_per_msg."+s.suffix, "count", "lower")
	}
	for _, s := range stacks {
		add("proc.alloc_bytes_per_msg."+s.suffix, "B", "lower")
	}
	add("zip.write_self_us_per_msg", "us", "lower")
	add("zip.read_self_us_per_msg", "us", "lower")
	add("zip.ratio", "ratio", "higher")
	add("zip.blocks_per_msg", "count", "lower")
	add("secure.write_self_us_per_msg", "us", "lower")
	add("secure.read_self_us_per_msg", "us", "lower")
	add("secure.expansion_ratio", "ratio", "lower")
	add("secure.records_per_msg", "count", "lower")
	add("multi.write_self_us_per_msg", "us", "lower")
	add("multi.read_self_us_per_msg", "us", "lower")
	add("multi.stripe_imbalance", "ratio", "lower")
	add("multi.fragments_per_msg", "count", "lower")
	add("tcpblk.write_us_per_msg", "us", "lower")
	add("tcpblk.read_us_per_msg", "us", "lower")
	add("tcpblk.blocks_per_msg", "count", "lower")
	add("wire.conn_writes_per_msg", "count", "lower")
	add("wire.overhead_bytes_per_msg", "B", "lower")
	add("wire.predicted_goodput_plain_MBps", "MB/s", "higher")
	add("wire.frame_write_ns.64B", "ns", "lower")
	add("wire.frame_write_ns.64KiB", "ns", "lower")
	add("wire.frame_read_ns.64B", "ns", "lower")
	add("wire.frame_read_ns.64KiB", "ns", "lower")
	add("emunet.write_block_us_per_msg", "us", "lower")
	add("emunet.read_wait_us_per_msg", "us", "lower")
	add("emunet.raw_MBps", "MB/s", "higher")
	for _, s := range stacks {
		add("driver.pipe_MBps."+s.suffix, "MB/s", "higher")
	}
	add("relay.egress_frames_per_write", "count", "higher")
	add("relay.routed_frames_per_msg", "count", "lower")
	add("relay.forwarded_frames_per_msg", "count", "lower")
	add("relay.credit_stalls_per_GB", "1/GB", "lower")
	add("relay.blocked_writer_s_per_GB", "s/GB", "lower")
	add("relay.egress_backlog_peak_frames", "count", "lower")
	add("relay.raw_MBps", "MB/s", "higher")
	add("relay.tcp_raw_MBps", "MB/s", "higher")
	add("relay.tcp_egress_frames_per_write", "count", "higher")
	add("overlay.hop_rtt_us", "us", "lower")
	for _, s := range scenarioNames {
		add("estab.link_crossings_per_connect."+s, "count", "lower")
	}
	for _, m := range []string{"client_server", "splicing", "proxy", "routed"} {
		add("estab.method_wins."+m, "count", "higher")
	}
	add("estab.cache_reconnect_ms", "ms", "lower")
	add("estab.first_connect_ms", "ms", "lower")
	add("estab.cpu_ms_per_connect", "ms", "lower")
	add("estab.races_total", "count", "lower")
	add("estab.cache_hits_total", "count", "higher")
	add("core.service_link_ms", "ms", "lower")
	add("core.join_ms", "ms", "lower")
	add("nameservice.lookup_ms", "ms", "lower")
	add("nameservice.register_ms", "ms", "lower")
	add("relay.attach_ms", "ms", "lower")
	add("relay.open_ms", "ms", "lower")
	add("identity.attach_auth_ms", "ms", "lower")
	add("identity.link_handshake_us", "us", "lower")
	add("identity.seal_MBps", "MB/s", "higher")
	add("trace.overhead_ratio", "ratio", "lower")
	add("trace.coverage_ratio", "ratio", "higher")
	return out
}

// sample is one measured metric: the value reported plus what it was
// computed from, so every timing prints its sample count and spread.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

// metricSet collects the metrics of one run by name.
type metricSet map[string]sample

func (m metricSet) put(name string, s sample) { m[name] = s }

// names returns the metric names in sorted order.
func (m metricSet) names() []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// only returns the metrics the list names.
func (m metricSet) only(defs []metricDef) metricSet {
	out := metricSet{}
	for _, d := range defs {
		if s, ok := m[d.Name]; ok {
			out[d.Name] = s
		}
	}
	return out
}
