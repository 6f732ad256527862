package relay

// Metrics registration. The relay's hot paths update plain atomics on
// Server and Client (one add per frame, no branches, no allocation —
// see the AllocsPerRun gates in cutthrough_test.go); this file is the
// scrape-side glue that exposes those atomics, plus the lock-held
// snapshots (Stats, EgressBacklogAll), through an obs.Registry. With no
// registry attached the instrumentation cost is exactly the atomic
// adds; attaching one adds cost only at scrape time.

import (
	"netibis/internal/identity"
	"netibis/internal/obs"
)

// MetricsInto registers the relay server's metric families: the relay
// family (routing and attach outcomes), the estab family as seen from
// the relay's vantage (establishment frames crossing it), and the flow
// family (credit frames and egress backlog).
func (s *Server) MetricsInto(reg *obs.Registry) {
	counterOf := func(a interface{ Load() int64 }) func() float64 {
		return func() float64 { return float64(a.Load()) }
	}

	reg.CounterFunc("netibis_relay_routed_frames_total",
		"Frames delivered to locally attached nodes (mesh-injected included).",
		counterOf(&s.framesRouted))
	reg.CounterFunc("netibis_relay_routed_bytes_total",
		"Payload bytes delivered to locally attached nodes.",
		counterOf(&s.bytesRouted))
	reg.CounterFunc("netibis_relay_forwarded_frames_total",
		"Frames handed to peer relays via the overlay mesh.",
		counterOf(&s.framesForwarded))
	reg.CounterFunc("netibis_relay_injected_frames_total",
		"Frames injected by the mesh for local delivery.",
		counterOf(&s.framesInjected))
	reg.CounterVec("netibis_relay_peer_forwarded_frames_total",
		"Frames forwarded, by receiving peer relay.",
		func(emit obs.EmitFunc) {
			st := s.Stats()
			for i := range st.ForwardedByPeer {
				pf := &st.ForwardedByPeer[i]
				emit(obs.Labels("peer", pf.Peer), float64(pf.Frames))
			}
		})
	reg.GaugeFunc("netibis_relay_attached_nodes",
		"Nodes currently attached to this relay.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.nodes))
		})
	reg.CounterVec("netibis_relay_attach_total",
		"Attach verdicts by outcome (ok, auth_required, unknown_identity, identity_mismatch, bad_signature, replay, malformed).",
		func(emit obs.EmitFunc) {
			for i := range s.attachOutcomes {
				emit(obs.Labels("outcome", identity.VerdictName(i)), float64(s.attachOutcomes[i].Load()))
			}
		})
	reg.CounterFunc("netibis_relay_detach_total",
		"Attachments that ended (connection loss or close).",
		counterOf(&s.detaches))

	// The estab family from the relay's vantage: establishment traffic
	// crossing this relay. Opens that greatly outnumber open-OKs mean
	// lost races or unreachable destinations; abandons are the discarded
	// halves of lost races.
	reg.CounterFunc("netibis_estab_open_frames_total",
		"Routed link-open frames crossing this relay.",
		counterOf(&s.kindFrames[KindOpen-KindOpen]))
	reg.CounterFunc("netibis_estab_open_ok_frames_total",
		"Routed link-open accepts crossing this relay.",
		counterOf(&s.kindFrames[KindOpenOK-KindOpen]))
	reg.CounterFunc("netibis_estab_open_fail_frames_total",
		"Routed link-open refusals crossing this relay.",
		counterOf(&s.kindFrames[KindOpenFail-KindOpen]))
	reg.CounterFunc("netibis_estab_abandon_frames_total",
		"Routed link abandons (lost establishment races) crossing this relay.",
		counterOf(&s.kindFrames[KindAbandon-KindOpen]))

	// The flow family: credit traffic and egress backlog.
	reg.CounterFunc("netibis_flow_credit_frames_total",
		"Credit (flow-control) frames crossing this relay.",
		counterOf(&s.kindFrames[KindCredit-KindOpen]))
	reg.GaugeFunc("netibis_flow_egress_backlog_frames",
		"Frames queued across all attached nodes' egress schedulers.",
		func() float64 {
			total := 0
			for _, nb := range s.EgressBacklogAll() {
				total += nb.Frames
			}
			return float64(total)
		})
	reg.GaugeVec("netibis_flow_node_egress_backlog_frames",
		"Frames queued towards one attached node, by node.",
		func(emit obs.EmitFunc) {
			for _, nb := range s.EgressBacklogAll() {
				emit(obs.Labels("node", nb.Node), float64(nb.Frames))
			}
		})
	reg.RegisterHistogram("netibis_relay_egress_frames_per_write",
		"Frames emitted per egress vectored write (batching efficiency; mean > 1 under load).",
		s.egressHist)
	reg.GaugeFunc("netibis_flow_egress_queue_limit_frames",
		"Per-source egress queue bound (frames).",
		func() float64 { return DefaultEgressQueueFrames })
}

// MetricsInto registers the client's flow-control counters (the node
// side of the flow family). core.Node wires this up when its Config
// carries a registry.
func (c *Client) MetricsInto(reg *obs.Registry) {
	reg.CounterFunc("netibis_flow_credit_stalls_total",
		"Writes that parked on an exhausted send window.",
		func() float64 { return float64(c.flowStalls.Load()) })
	reg.CounterFunc("netibis_flow_blocked_writer_seconds_total",
		"Total time writers spent parked on exhausted send windows.",
		func() float64 { return float64(c.flowBlockedNanos.Load()) / 1e9 })
	reg.CounterFunc("netibis_flow_sent_credit_frames_total",
		"Credit grants returned to peers' send windows.",
		func() float64 { return float64(c.flowCreditSent.Load()) })
}
