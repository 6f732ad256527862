package core

import (
	"fmt"
	"hash/fnv"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netibis/internal/emunet"
	"netibis/internal/obs"
	"netibis/internal/relay"
	"netibis/internal/wire"
)

// rttBucket quantises probe round-trip times: relays whose RTTs fall in
// the same bucket are considered equally near, and the choice between
// them is spread pseudo-randomly by node ID so a pool's nodes
// load-balance across the mesh instead of piling onto one member.
const rttBucket = 2 * time.Millisecond

// Reattach policy after a relay failure.
const (
	reattachAttempts = 5
	reattachDelay    = 100 * time.Millisecond
	// A healthy failover detaches once; more than detachStormLimit
	// detaches within detachStormWindow mean something is repeatedly
	// killing the attachment — most likely another live node joined under
	// the same identity and relays are applying latest-attachment-wins to
	// the two in turn. Give up instead of fighting forever.
	detachStormLimit  = 5
	detachStormWindow = 10 * time.Second
)

// Attachment is everything about which relay a node is on: it probes the
// candidate relays, attaches to the nearest one, and when that relay
// dies resumes the attachment — node identity and open routed links
// included — on the nearest survivor, or abandons it for good. Fill in
// the exported fields, then call Attach.
type Attachment struct {
	// Host is the machine the node runs on.
	Host *emunet.Host
	// NodeID is the identity the node attaches under ("pool/name").
	NodeID string
	// Pinned, when non-empty, is the candidate set of the first attach.
	// A failover searches Pinned and Discover together.
	Pinned []emunet.Endpoint
	// Discover lists the relays of the mesh (a Node lists the registry's,
	// through overlay.ListRelays); a dead relay may linger in it — probing
	// skips it. May be nil.
	Discover func() []emunet.Endpoint
	// Auth is the relay client's security configuration (nil for an
	// anonymous attach). Every resume runs the same handshake again.
	Auth *relay.AuthConfig
	// Trace, when non-nil, records detachments and failover outcomes.
	Trace *obs.Trace
	// OnResume, when non-nil, runs after each successful failover with
	// the time from detach to resume.
	OnResume func(took time.Duration)

	cli       *relay.Client
	done      chan struct{} // closed by Close
	closeOnce sync.Once

	mu          sync.Mutex
	ep          emunet.Endpoint // relay currently attached to
	detachTimes []time.Time     // recent detachments (storm detection)

	// detaches counts attachment losses, results the failover outcomes
	// (0 = resumed on a surviving relay, 1 = attachment abandoned).
	detaches atomic.Int64
	results  [2]atomic.Int64
}

// candidates is the search set: Pinned alone for a pinned first attach,
// otherwise everything the node knows of.
func (a *Attachment) candidates(failover bool) []emunet.Endpoint {
	if a.Discover == nil || (!failover && len(a.Pinned) > 0) {
		return a.Pinned
	}
	return append(append([]emunet.Endpoint(nil), a.Pinned...), a.Discover()...)
}

// relayProbe is one probed candidate: an open, not yet attached
// connection plus its measured round-trip time and the Reader the probe
// built (zero and nil when it was the only one reachable).
type relayProbe struct {
	ep   emunet.Endpoint
	conn net.Conn
	r    *wire.Reader
	rtt  time.Duration
}

// probe dials every distinct candidate at once and returns the reachable
// ones ordered best-first. Only a choice needs ranking: when more than one
// is reachable, each measures its pre-attach round-trip time, all at
// once, and they are ordered by RTT bucket (ties spread by a hash of the
// node ID); a lone one is returned unprobed. The caller owns the returned
// connections.
func (a *Attachment) probe(cands []emunet.Endpoint) []relayProbe {
	var probes []relayProbe
	for _, ep := range cands {
		if !ep.IsZero() && !slices.ContainsFunc(probes, func(p relayProbe) bool { return p.ep == ep }) {
			probes = append(probes, relayProbe{ep: ep})
		}
	}
	// each runs f on every probe concurrently and keeps those left with a
	// connection.
	each := func(f func(p *relayProbe)) {
		var wg sync.WaitGroup
		for i := range probes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f(&probes[i])
			}()
		}
		wg.Wait()
		probes = slices.DeleteFunc(probes, func(p relayProbe) bool { return p.conn == nil })
	}
	each(func(p *relayProbe) {
		p.conn, _ = a.Host.Dial(p.ep) // nil: unreachable or dead relay, skipped
	})
	if len(probes) < 2 {
		return probes
	}
	each(func(p *relayProbe) {
		var err error
		if p.rtt, p.r, err = relay.ProbeRTT(p.conn); err != nil {
			p.conn.Close()
			p.conn = nil
		}
	})
	spread := func(ep emunet.Endpoint) uint32 {
		h := fnv.New32a()
		h.Write([]byte(a.NodeID))
		h.Write([]byte{'|'})
		h.Write([]byte(ep.String()))
		return h.Sum32()
	}
	sort.Slice(probes, func(i, j int) bool {
		bi, bj := probes[i].rtt/rttBucket, probes[j].rtt/rttBucket
		if bi != bj {
			return bi < bj
		}
		return spread(probes[i].ep) < spread(probes[j].ep)
	})
	return probes
}

// firstOf offers the probed connections to try, best first, until one
// accepts; try closes a connection it refuses, firstOf the ones that
// lost to a better candidate. It returns the winner's endpoint, or the
// first refusal.
func firstOf(probes []relayProbe, try func(net.Conn, *wire.Reader) error) (emunet.Endpoint, error) {
	err := ErrPeerUnavailable
	for i, p := range probes {
		terr := try(p.conn, p.r)
		if terr == nil {
			for _, rest := range probes[i+1:] {
				rest.conn.Close()
			}
			return p.ep, nil
		}
		if i == 0 {
			err = terr
		}
	}
	return emunet.Endpoint{}, err
}

// Attach probes the candidates and attaches to the nearest relay that
// accepts the node (running the authentication handshake when Auth is
// set), then arms the failover. ErrPeerUnavailable means no candidate
// was reachable.
func (a *Attachment) Attach() error {
	ep, err := firstOf(a.probe(a.candidates(false)), func(conn net.Conn, r *wire.Reader) (err error) {
		a.cli, err = relay.AttachProbed(conn, r, a.NodeID, a.Auth) // closes conn on error
		return err
	})
	if err != nil {
		return err
	}
	a.ep = ep
	a.done = make(chan struct{})
	a.cli.SetDetachHandler(a.onDetach)
	return nil
}

// Client returns the relay client; it is the same object across
// failovers.
func (a *Attachment) Client() *relay.Client { return a.cli }

// Endpoint returns the endpoint of the relay currently attached to.
func (a *Attachment) Endpoint() emunet.Endpoint {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ep
}

// Close releases the attachment; a failover in progress stops without
// abandoning.
func (a *Attachment) Close() error {
	a.closeOnce.Do(func() { close(a.done) })
	return a.cli.Close()
}

// MetricsInto registers the core family: relay attachment losses and
// failover outcomes.
func (a *Attachment) MetricsInto(reg *obs.Registry) {
	reg.CounterFunc("netibis_core_relay_detach_total",
		"Relay attachment losses observed by this node.",
		func() float64 { return float64(a.detaches.Load()) })
	reg.CounterVec("netibis_core_reattach_total",
		"Failover outcomes: resumed on a surviving relay, or attachment abandoned.",
		func(emit obs.EmitFunc) {
			emit(obs.Labels("result", "ok"), float64(a.results[0].Load()))
			emit(obs.Labels("result", "abandoned"), float64(a.results[1].Load()))
		})
}

// abandon fails the attachment for good.
func (a *Attachment) abandon(why string, err error) {
	a.results[1].Add(1)
	a.Trace.Eventf("core", "node %s abandoning attachment: %s", a.NodeID, why)
	a.cli.Abandon(err)
}

// onDetach runs when the relay connection dies: it probes the surviving
// relays and resumes the attachment on the nearest one. Frames sent
// while detached are lost, as they would be on a real TCP failure; once
// the mesh's directory gossip announces the new home relay, traffic
// flows again.
func (a *Attachment) onDetach(err error) {
	start := time.Now()
	a.detaches.Add(1)
	a.Trace.Eventf("core", "node %s lost its relay attachment: %v", a.NodeID, err)
	a.mu.Lock()
	keep := a.detachTimes[:0]
	for _, t := range a.detachTimes {
		if start.Sub(t) < detachStormWindow {
			keep = append(keep, t)
		}
	}
	a.detachTimes = append(keep, start)
	storm := len(a.detachTimes) > detachStormLimit
	a.mu.Unlock()
	if storm {
		a.abandon("detach storm", fmt.Errorf("core: attachment repeatedly revoked (duplicate node identity %q in the pool?): %w", a.NodeID, err))
		return
	}
	for attempt := 1; ; attempt++ {
		select {
		case <-a.done:
			return
		default:
		}
		if ep, rerr := firstOf(a.probe(a.candidates(true)), a.cli.Resume); rerr == nil {
			a.mu.Lock()
			a.ep = ep
			a.mu.Unlock()
			a.results[0].Add(1)
			took := time.Since(start)
			a.Trace.Eventf("core", "node %s resumed on relay at %s after %v (attempt %d)", a.NodeID, ep, took, attempt)
			if a.OnResume != nil {
				a.OnResume(took)
			}
			return
		}
		if attempt >= reattachAttempts {
			break
		}
		select {
		case <-a.done:
			return
		case <-time.After(reattachDelay):
		}
	}
	a.abandon("no relay reachable", fmt.Errorf("core: relay failover failed: %w: %w", ErrPeerUnavailable, err))
}
