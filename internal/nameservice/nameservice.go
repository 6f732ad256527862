// Package nameservice implements the Ibis Name Service: the registry
// grid processes use to bootstrap connectivity with their peers.
//
// The paper (Section 5) describes it as "a registry, called Ibis Name
// Service, ... provided to locate receive ports, allowing to bootstrap
// connections". Processes register contact information (addresses, port
// numbers, relay identities) under symbolic names; peers look names up,
// optionally waiting until the name appears, which is how processes that
// start at different times synchronise during application startup.
//
// The service is transport independent: it serves any net.Listener and
// clients speak to it over any established net.Conn, so it runs equally
// over real TCP sockets (cmd/netibis-nameserver) and over the emulated
// internetwork used by tests and examples.
package nameservice

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"netibis/internal/obs"
	"netibis/internal/wire"
)

// Protocol operation codes.
const (
	opRegister byte = iota + 1
	opLookup
	opUnregister
	opList
	opPing
	opElect
)

// Response status codes.
const (
	statusOK byte = iota
	statusNotFound
	statusTimeout
	statusError
	statusDenied // registration rejected by the server's verification policy
)

// Errors returned by the client.
var (
	// ErrNotFound is returned by Lookup when the key is not registered
	// and the caller did not ask to wait.
	ErrNotFound = errors.New("nameservice: name not found")
	// ErrTimeout is returned by Lookup when the wait deadline expired.
	ErrTimeout = errors.New("nameservice: lookup timed out")
	// ErrClosed is returned after the client or server has been closed.
	ErrClosed = errors.New("nameservice: closed")
	// ErrDenied is returned by Register when the server's verification
	// policy rejected the record (e.g. a trust-enforcing registry was
	// handed an unsigned or mis-signed relay record; see SetVerifier).
	ErrDenied = errors.New("nameservice: registration rejected by server policy")
)

// Record is one registered name.
type Record struct {
	// Key is the symbolic name, e.g. "ibis/node-3/receive-port/result".
	Key string
	// Value is the opaque contact information stored by the owner.
	Value []byte
}

// Server is the registry. The zero value is not usable; use NewServer.
type Server struct {
	mu      sync.Mutex
	cond    *sync.Cond
	records map[string][]byte
	elected map[string]string
	verify  func(key string, value []byte) error
	closed  bool

	lnMu      sync.Mutex
	lnClosed  bool // Close has run: no further conn is tracked or served
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	wg        sync.WaitGroup

	// Request outcome counters, one atomic add per request (see
	// MetricsInto). registerOutcomes is indexed ok/denied/malformed,
	// lookupOutcomes ok/not_found/timeout/error.
	registerOutcomes [3]atomic.Int64
	lookupOutcomes   [4]atomic.Int64
	unregisters      atomic.Int64
}

// NewServer creates an empty registry.
func NewServer() *Server {
	s := &Server{
		records: make(map[string][]byte),
		elected: make(map[string]string),
		conns:   make(map[net.Conn]struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// SetVerifier installs a registration policy hook: every Register
// request is passed through verify and rejected (statusDenied on the
// wire, ErrDenied at the client) when it returns an error. The registry
// stays agnostic of what the policy checks — identity.RegistryVerifier
// builds the standard one, which demands that relay and node records
// carry a valid signature from the identity they name, so a registry
// poisoner cannot redirect establishment even when it can reach the
// registry. Meant to be set before Serve.
func (s *Server) SetVerifier(verify func(key string, value []byte) error) {
	s.mu.Lock()
	s.verify = verify
	s.mu.Unlock()
}

func (s *Server) verifier() func(key string, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.verify
}

// Serve accepts registry clients on l until the listener or the server
// is closed. It can be called for several listeners concurrently (for
// example one per network interface).
func (s *Server) Serve(l net.Listener) error {
	s.lnMu.Lock()
	s.listeners = append(s.listeners, l)
	s.lnMu.Unlock()
	for {
		c, err := l.Accept()
		if err != nil {
			return err
		}
		// Tracking and wg.Add happen under the lock Close takes before it
		// walks conns and waits: a conn accepted after that is refused,
		// not left open with nobody to close it.
		s.lnMu.Lock()
		if s.lnClosed {
			s.lnMu.Unlock()
			c.Close()
			return net.ErrClosed
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.lnMu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(c)
			s.lnMu.Lock()
			delete(s.conns, c)
			s.lnMu.Unlock()
		}()
	}
}

// Close shuts the registry down, wakes all waiting lookups and
// disconnects all clients.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.lnMu.Lock()
	s.lnClosed = true
	for _, l := range s.listeners {
		l.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.lnMu.Unlock()
	s.wg.Wait()
}

// Snapshot returns a copy of all records, mainly for monitoring tools.
func (s *Server) Snapshot() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, 0, len(s.records))
	for k, v := range s.records {
		out = append(out, Record{Key: k, Value: append([]byte(nil), v...)})
	}
	return out
}

func (s *Server) register(key string, value []byte) {
	s.mu.Lock()
	s.records[key] = append([]byte(nil), value...)
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *Server) unregister(key string) {
	s.mu.Lock()
	delete(s.records, key)
	s.mu.Unlock()
}

// lookup returns the value for key, optionally waiting up to wait for it
// to appear.
func (s *Server) lookup(key string, wait time.Duration) ([]byte, byte) {
	deadline := time.Now().Add(wait)
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if v, ok := s.records[key]; ok {
			return append([]byte(nil), v...), statusOK
		}
		if s.closed {
			return nil, statusError
		}
		if wait <= 0 {
			return nil, statusNotFound
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, statusTimeout
		}
		t := time.AfterFunc(remaining, func() {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		})
		s.cond.Wait()
		t.Stop()
	}
}

func (s *Server) list(prefix string) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Record
	for k, v := range s.records {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			out = append(out, Record{Key: k, Value: append([]byte(nil), v...)})
		}
	}
	return out
}

// elect returns the first candidate registered for a key: the paper's
// registry also arbitrates which process plays a distinguished role
// (e.g. which node hosts a shared object); first-come-first-elected.
func (s *Server) elect(key, candidate string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if winner, ok := s.elected[key]; ok {
		return winner
	}
	s.elected[key] = candidate
	return candidate
}

// countLookup maps a lookup's wire status to its outcome counter.
func (s *Server) countLookup(status byte) {
	switch status {
	case statusOK:
		s.lookupOutcomes[0].Add(1)
	case statusNotFound:
		s.lookupOutcomes[1].Add(1)
	case statusTimeout:
		s.lookupOutcomes[2].Add(1)
	default:
		s.lookupOutcomes[3].Add(1)
	}
}

// MetricsInto registers the nameservice family: request outcomes (the
// denied register count is the registry poisoner's signature — see the
// verifier in SetVerifier) and the live record gauge.
func (s *Server) MetricsInto(reg *obs.Registry) {
	registerLabels := [...]string{"ok", "denied", "malformed"}
	reg.CounterVec("netibis_nameservice_register_total",
		"Register requests by outcome (denied = rejected by the verification policy).",
		func(emit obs.EmitFunc) {
			for i := range s.registerOutcomes {
				emit(obs.Labels("result", registerLabels[i]), float64(s.registerOutcomes[i].Load()))
			}
		})
	lookupLabels := [...]string{"ok", "not_found", "timeout", "error"}
	reg.CounterVec("netibis_nameservice_lookup_total",
		"Lookup requests by outcome.",
		func(emit obs.EmitFunc) {
			for i := range s.lookupOutcomes {
				emit(obs.Labels("result", lookupLabels[i]), float64(s.lookupOutcomes[i].Load()))
			}
		})
	reg.CounterFunc("netibis_nameservice_unregister_total",
		"Unregister requests served.",
		func() float64 { return float64(s.unregisters.Load()) })
	reg.GaugeFunc("netibis_nameservice_directory_records",
		"Names currently registered.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.records))
		})
}

// handle serves one client connection.
func (s *Server) handle(c net.Conn) {
	defer c.Close()
	r := wire.NewReader(c)
	w := wire.NewWriter(c)
	for {
		f, err := r.ReadFrame()
		if err != nil {
			return
		}
		if f.Kind == wire.KindClose {
			return
		}
		if f.Kind != wire.KindControl || len(f.Payload) == 0 {
			continue
		}
		op := f.Payload[0]
		d := wire.NewDecoder(f.Payload[1:])
		var resp []byte
		switch op {
		case opRegister:
			key := d.String()
			val := d.Bytes()
			if d.Err() != nil {
				s.registerOutcomes[2].Add(1)
				resp = []byte{statusError}
			} else if verify := s.verifier(); verify != nil && verify(key, val) != nil {
				s.registerOutcomes[1].Add(1)
				resp = []byte{statusDenied}
			} else {
				s.register(key, val)
				s.registerOutcomes[0].Add(1)
				resp = []byte{statusOK}
			}
		case opLookup:
			key := d.String()
			waitMs := d.Uvarint()
			if d.Err() != nil {
				s.lookupOutcomes[3].Add(1)
				resp = []byte{statusError}
			} else {
				val, status := s.lookup(key, time.Duration(waitMs)*time.Millisecond)
				s.countLookup(status)
				resp = append([]byte{status}, wire.AppendBytes(nil, val)...)
			}
		case opUnregister:
			key := d.String()
			if d.Err() != nil {
				resp = []byte{statusError}
			} else {
				s.unregister(key)
				s.unregisters.Add(1)
				resp = []byte{statusOK}
			}
		case opList:
			prefix := d.String()
			recs := s.list(prefix)
			resp = []byte{statusOK}
			resp = wire.AppendUvarint(resp, uint64(len(recs)))
			for _, rec := range recs {
				resp = wire.AppendString(resp, rec.Key)
				resp = wire.AppendBytes(resp, rec.Value)
			}
		case opElect:
			key := d.String()
			candidate := d.String()
			if d.Err() != nil {
				resp = []byte{statusError}
			} else {
				winner := s.elect(key, candidate)
				resp = wire.AppendString([]byte{statusOK}, winner)
			}
		case opPing:
			resp = []byte{statusOK}
		default:
			resp = []byte{statusError}
		}
		if err := w.WriteFrame(wire.KindControl, 0, resp); err != nil {
			return
		}
	}
}

// Client talks to a registry over an established connection. A Client
// serialises its requests; it is safe for concurrent use.
type Client struct {
	mu     sync.Mutex
	conn   net.Conn
	r      *wire.Reader
	w      *wire.Writer
	closed bool
}

// NewClient wraps an established connection to the registry.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, r: wire.NewReader(conn), w: wire.NewWriter(conn)}
}

// Close releases the client connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.w.WriteFrame(wire.KindClose, 0, nil)
	return c.conn.Close()
}

// roundTrip sends one request and waits for its response.
func (c *Client) roundTrip(req []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if err := c.w.WriteFrame(wire.KindControl, 0, req); err != nil {
		return nil, err
	}
	f, err := c.r.ReadFrame()
	if err != nil {
		return nil, err
	}
	if len(f.Payload) == 0 {
		return nil, fmt.Errorf("nameservice: empty response")
	}
	return append([]byte(nil), f.Payload...), nil
}

// Register stores value under key, overwriting any previous value.
func (c *Client) Register(key string, value []byte) error {
	req := wire.AppendString([]byte{opRegister}, key)
	req = wire.AppendBytes(req, value)
	resp, err := c.roundTrip(req)
	if err != nil {
		return err
	}
	if resp[0] == statusDenied {
		return fmt.Errorf("nameservice: register %q: %w", key, ErrDenied)
	}
	if resp[0] != statusOK {
		return fmt.Errorf("nameservice: register %q failed (status %d)", key, resp[0])
	}
	return nil
}

// Lookup retrieves the value registered under key. If wait is positive,
// the call blocks server-side until the key appears or the wait expires.
func (c *Client) Lookup(key string, wait time.Duration) ([]byte, error) {
	req := wire.AppendString([]byte{opLookup}, key)
	req = wire.AppendUvarint(req, uint64(wait/time.Millisecond))
	resp, err := c.roundTrip(req)
	if err != nil {
		return nil, err
	}
	switch resp[0] {
	case statusOK:
		d := wire.NewDecoder(resp[1:])
		val := d.Bytes()
		if d.Err() != nil {
			return nil, d.Err()
		}
		return append([]byte(nil), val...), nil
	case statusNotFound:
		return nil, ErrNotFound
	case statusTimeout:
		return nil, ErrTimeout
	default:
		return nil, fmt.Errorf("nameservice: lookup %q failed (status %d)", key, resp[0])
	}
}

// Unregister removes key from the registry.
func (c *Client) Unregister(key string) error {
	req := wire.AppendString([]byte{opUnregister}, key)
	resp, err := c.roundTrip(req)
	if err != nil {
		return err
	}
	if resp[0] != statusOK {
		return fmt.Errorf("nameservice: unregister %q failed (status %d)", key, resp[0])
	}
	return nil
}

// List returns all records whose key starts with prefix.
func (c *Client) List(prefix string) ([]Record, error) {
	req := wire.AppendString([]byte{opList}, prefix)
	resp, err := c.roundTrip(req)
	if err != nil {
		return nil, err
	}
	if resp[0] != statusOK {
		return nil, fmt.Errorf("nameservice: list failed (status %d)", resp[0])
	}
	d := wire.NewDecoder(resp[1:])
	n := d.Uvarint()
	// Cap the pre-allocation: the count comes off the wire, and a
	// malicious (or corrupted) registry response must not make the
	// client allocate unboundedly before the per-record decode fails.
	capHint := n
	if capHint > 1024 {
		capHint = 1024
	}
	recs := make([]Record, 0, capHint)
	for i := uint64(0); i < n; i++ {
		k := d.String()
		v := d.Bytes()
		recs = append(recs, Record{Key: k, Value: append([]byte(nil), v...)})
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return recs, nil
}

// Elect proposes candidate for the distinguished role named key and
// returns the winner (the first candidate ever proposed).
func (c *Client) Elect(key, candidate string) (string, error) {
	req := wire.AppendString([]byte{opElect}, key)
	req = wire.AppendString(req, candidate)
	resp, err := c.roundTrip(req)
	if err != nil {
		return "", err
	}
	if resp[0] != statusOK {
		return "", fmt.Errorf("nameservice: elect failed (status %d)", resp[0])
	}
	d := wire.NewDecoder(resp[1:])
	winner := d.String()
	return winner, d.Err()
}

// Ping verifies the registry is alive.
func (c *Client) Ping() error {
	resp, err := c.roundTrip([]byte{opPing})
	if err != nil {
		return err
	}
	if resp[0] != statusOK {
		return fmt.Errorf("nameservice: ping failed (status %d)", resp[0])
	}
	return nil
}
