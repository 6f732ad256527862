// Package invariant is the checking half of the churn engine: it runs
// continuously during chaos scenarios and fails loudly when the stack
// breaks a promise the rest of the repo relies on. The invariants are
//
//   - no lost, duplicated, misdelivered or corrupted bytes: every
//     routed stream carries sequence-tagged, checksummed records whose
//     payload is regenerable from (stream, seq), verified end to end
//     through sealed links, and retransmitted across relay crashes and
//     partitions until every record has been verified exactly once in
//     order (Sender/Receiver);
//   - eventual directory convergence: after every partition heals, all
//     relays agree on exactly the set of live attachments
//     (ConvergedTo);
//   - bounded resources: process heap and relay egress backlog stay
//     under configured ceilings, scraped from the internal/obs metrics
//     registries (Bounds.Check);
//   - no leaked goroutines, via testutil.LeakCheck / LeakReport.
//
// The package deliberately depends only on the standard library, obs
// and workload, so overlay/relay tests can import it without cycles.
package invariant

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"netibis/internal/wire"
)

// Violation is one observed breach of a scenario invariant.
type Violation struct {
	// At is the offset from recorder creation.
	At time.Duration
	// Kind labels the invariant: "corrupted", "misdelivered",
	// "duplicate", "backlog", "heap", "goroutines", "convergence",
	// "stream-incomplete".
	Kind string
	// Detail is a human-readable description.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%8.3fs] %s: %s", v.At.Seconds(), v.Kind, v.Detail)
}

// Recorder collects violations and an event log during a scenario. It
// is safe for concurrent use.
type Recorder struct {
	mu         sync.Mutex
	start      time.Time
	violations []Violation
	log        io.Writer
}

// NewRecorder creates a Recorder; events and violations are echoed to
// log when non-nil.
func NewRecorder(log io.Writer) *Recorder {
	return &Recorder{start: time.Now(), log: log} //nolint:netibis-determinism // event-log timestamps measure the run; they never feed scenario state
}

// Violatef records a violation.
func (r *Recorder) Violatef(kind, format string, args ...any) {
	v := Violation{At: time.Since(r.start), Kind: kind, Detail: fmt.Sprintf(format, args...)} //nolint:netibis-determinism // violation timestamp for the log only
	r.mu.Lock()
	r.violations = append(r.violations, v)
	log := r.log
	r.mu.Unlock()
	if log != nil {
		fmt.Fprintf(log, "VIOLATION %s\n", v)
	}
}

// Eventf records a scenario event in the log without raising a
// violation (establishments, crashes, heals, rotations...).
func (r *Recorder) Eventf(format string, args ...any) {
	r.mu.Lock()
	log := r.log
	at := time.Since(r.start) //nolint:netibis-determinism // event timestamp for the log only
	r.mu.Unlock()
	if log != nil {
		fmt.Fprintf(log, "[%8.3fs] %s\n", at.Seconds(), fmt.Sprintf(format, args...))
	}
}

// Violations returns a copy of all recorded violations.
func (r *Recorder) Violations() []Violation {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Violation(nil), r.violations...)
}

// Count returns the number of recorded violations.
func (r *Recorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.violations)
}

// --- sequenced stream checker ------------------------------------------------

// Stream wire format, one record per Write so relay framing tends to
// align with record boundaries:
//
//	0xC5 | varint streamID | varint seq | varint len | payload | crc32c
//
// The CRC (Castagnoli, over everything before it) distinguishes
// transport truncation from payload corruption: a record that parses
// and passes the CRC but whose payload differs from the regenerated
// expectation was corrupted (or cross-wired) inside the stack, which is
// a violation; a record that fails the CRC or the framing means the
// byte stream itself lost data (a severed link's in-flight frames),
// which the sender repairs by rewinding to the last acknowledged record
// on a fresh connection.
//
// Acknowledgements flow on the same connection's reverse direction:
//
//	0xA7 | varint nextExpected
const (
	recordMagic = 0xC5
	ackMagic    = 0xA7
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrDesync reports that a receiver observed a torn or out-of-order
// byte stream (lost in-flight frames) and tore the connection down so
// the sender can rewind and retransmit.
var ErrDesync = errors.New("invariant: stream desynchronized, retransmission required")

// ErrStalled reports that a sender saw no acknowledgement progress
// within the ack timeout and tore the connection down to re-establish.
var ErrStalled = errors.New("invariant: no ack progress, re-establish required")

// StreamConfig describes one checked stream.
type StreamConfig struct {
	// ID tags every record; a receiver getting another stream's ID has
	// caught misdelivery.
	ID uint64
	// Seed makes payloads regenerable; sender and receiver must agree.
	Seed int64
	// RecordBytes is the payload size per record (default 512).
	RecordBytes int
	// Records is the total number of records the stream must deliver.
	Records uint64
	// AckEvery is the receiver's ack cadence in records (default 16).
	AckEvery int
	// AckTimeout is how long the sender tolerates zero ack progress
	// before tearing the connection down to re-establish (default 2s).
	AckTimeout time.Duration
	// Pace inserts a delay between records so a stream spans a whole
	// scenario instead of bursting to completion on an unshaped
	// fabric; 0 sends flat out.
	Pace time.Duration
	// PayloadFor overrides payload generation (e.g. with
	// workload.Generate); nil selects the built-in generator.
	PayloadFor func(seq uint64) []byte
}

func (cfg *StreamConfig) recordBytes() int {
	if cfg.RecordBytes <= 0 {
		return 512
	}
	return cfg.RecordBytes
}

func (cfg *StreamConfig) ackEvery() int {
	if cfg.AckEvery <= 0 {
		return 16
	}
	return cfg.AckEvery
}

func (cfg *StreamConfig) ackTimeout() time.Duration {
	if cfg.AckTimeout <= 0 {
		return 2 * time.Second
	}
	return cfg.AckTimeout
}

// payloadFor returns the payload of record seq: either the configured
// generator or a splitmix64-filled deterministic buffer.
func (cfg *StreamConfig) payloadFor(seq uint64) []byte {
	if cfg.PayloadFor != nil {
		return cfg.PayloadFor(seq)
	}
	n := cfg.recordBytes()
	out := make([]byte, n)
	x := uint64(cfg.Seed) ^ (cfg.ID << 32) ^ seq
	for i := 0; i < n; i += 8 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], z)
		copy(out[i:], w[:])
	}
	return out
}

// appendRecord encodes record seq into buf.
func (cfg *StreamConfig) appendRecord(buf []byte, seq uint64) []byte {
	payload := cfg.payloadFor(seq)
	buf = append(buf, recordMagic)
	buf = binary.AppendUvarint(buf, cfg.ID)
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	crc := crc32.Checksum(buf, castagnoli)
	return binary.BigEndian.AppendUint32(buf, crc)
}

// Sender drives the sending half of a checked stream. Its Run method is
// re-invocable across connection incarnations: each call rewinds to the
// last acknowledged record (retransmitting anything in doubt) and
// streams until everything is acknowledged or the connection dies.
type Sender struct {
	cfg StreamConfig

	mu        sync.Mutex
	acked     uint64 // all records < acked are verified delivered
	highWater uint64 // highest seq ever transmitted + 1
	resent    uint64 // records transmitted more than once
	done      chan struct{}
	doneOnce  sync.Once
}

// NewSender creates the sending half of a stream.
func NewSender(cfg StreamConfig) *Sender {
	return &Sender{cfg: cfg, done: make(chan struct{})}
}

func (s *Sender) markDone() { s.doneOnce.Do(func() { close(s.done) }) }

// Acked returns the number of verified-delivered records.
func (s *Sender) Acked() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acked
}

// Resent returns how many record transmissions were retransmissions.
func (s *Sender) Resent() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resent
}

// Done reports whether every record has been acknowledged.
func (s *Sender) Done() bool { return s.Acked() >= s.cfg.Records }

// DoneCh is closed once every record has been acknowledged.
func (s *Sender) DoneCh() <-chan struct{} { return s.done }

// Run streams records over conn from the last acknowledged position,
// consuming acks from the reverse direction, until either every record
// is acknowledged (nil) or the connection breaks / stalls (error, and
// the caller should re-establish and call Run again). Run closes conn
// before returning.
func (s *Sender) Run(conn net.Conn) error {
	defer conn.Close()

	s.mu.Lock()
	start := s.acked
	if s.highWater > start {
		// Everything between acked and the previous incarnation's
		// high-water mark is in doubt and about to be retransmitted.
		s.resent += s.highWater - start
	}
	s.mu.Unlock()
	if start >= s.cfg.Records {
		s.markDone()
		return nil
	}

	// Ack consumer: reads the reverse direction, advances acked.
	ackErr := make(chan error, 1)
	progress := make(chan struct{}, 1)
	go func() {
		r := wire.NewReader(conn)
		for {
			magic, err := r.Peek(1)
			if err != nil {
				ackErr <- err
				return
			}
			if magic[0] != ackMagic {
				ackErr <- fmt.Errorf("%w: bad ack magic 0x%02x", ErrDesync, magic[0])
				return
			}
			r.Discard(1)
			nextExpected, err := r.ReadUvarint()
			if err != nil {
				ackErr <- err
				return
			}
			s.mu.Lock()
			if nextExpected > s.acked {
				s.acked = nextExpected
			}
			complete := s.acked >= s.cfg.Records
			s.mu.Unlock()
			select {
			case progress <- struct{}{}:
			default:
			}
			if complete {
				s.markDone()
				ackErr <- nil
				return
			}
		}
	}()

	// Writer: one Write per record, skipping ahead past anything acked
	// while we were transmitting.
	writeErr := make(chan error, 1)
	go func() {
		buf := make([]byte, 0, s.cfg.recordBytes()+32)
		for seq := start; seq < s.cfg.Records; seq++ {
			s.mu.Lock()
			if seq < s.acked {
				s.mu.Unlock()
				continue
			}
			if seq+1 > s.highWater {
				s.highWater = seq + 1
			}
			s.mu.Unlock()
			buf = s.cfg.appendRecord(buf[:0], seq)
			if _, err := conn.Write(buf); err != nil {
				writeErr <- err
				return
			}
			if s.cfg.Pace > 0 {
				time.Sleep(s.cfg.Pace)
			}
		}
		writeErr <- nil
	}()

	// Supervise: finish on completion, propagate conn death, tear the
	// connection down when acks stop making progress (partitioned path,
	// crashed relay) so the caller can re-establish and resume.
	timeout := s.cfg.ackTimeout()
	stall := time.NewTimer(timeout)
	defer stall.Stop()
	writing := true
	for {
		select {
		case err := <-writeErr:
			writing = false
			if err != nil {
				conn.Close()
				<-ackErr
				if s.Done() {
					return nil
				}
				return err
			}
			// All records written; keep waiting for the final acks.
		case err := <-ackErr:
			conn.Close()
			if writing {
				<-writeErr
			}
			if s.Done() {
				return nil
			}
			if err != nil {
				return err
			}
			return ErrStalled
		case <-stall.C:
			conn.Close()
			if writing {
				<-writeErr
			}
			<-ackErr
			if s.Done() {
				return nil
			}
			return ErrStalled
		case <-progress:
			if !stall.Stop() {
				select {
				case <-stall.C:
				default:
				}
			}
			stall.Reset(timeout)
		}
	}
}

// Receiver is the verifying half of a checked stream. Its Run method is
// re-invocable across connection incarnations; verified in-order
// position survives reconnects.
type Receiver struct {
	cfg StreamConfig
	rec *Recorder

	mu       sync.Mutex
	expected uint64 // next in-order seq
	dupes    uint64 // verified retransmissions discarded
	resets   uint64 // connections torn down on desync
}

// NewReceiver creates the verifying half of a stream; violations are
// reported to rec.
func NewReceiver(cfg StreamConfig, rec *Recorder) *Receiver {
	return &Receiver{cfg: cfg, rec: rec}
}

// Verified returns the number of in-order verified records.
func (r *Receiver) Verified() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.expected
}

// Dupes returns how many verified retransmissions were discarded.
func (r *Receiver) Dupes() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dupes
}

// Resets returns how many connection incarnations ended in desync.
func (r *Receiver) Resets() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.resets
}

// Run verifies records arriving on conn and writes acks back, until the
// connection ends (EOF/error) or the stream completes. It closes conn
// before returning. A desync (torn framing, lost in-flight frames)
// returns ErrDesync after counting a reset; the sender's rewind
// repairs it on the next incarnation.
func (r *Receiver) Run(conn net.Conn) error {
	defer conn.Close()
	br := wire.NewReader(conn)
	sinceAck := 0
	ackBuf := make([]byte, 0, 16)
	sendAck := func() error {
		r.mu.Lock()
		next := r.expected
		r.mu.Unlock()
		ackBuf = ackBuf[:0]
		ackBuf = append(ackBuf, ackMagic)
		ackBuf = binary.AppendUvarint(ackBuf, next)
		_, err := conn.Write(ackBuf)
		sinceAck = 0
		return err
	}
	desync := func(format string, args ...any) error {
		r.mu.Lock()
		r.resets++
		r.mu.Unlock()
		if r.rec != nil {
			r.rec.Eventf("stream %d reset: %s", r.cfg.ID, fmt.Sprintf(format, args...))
		}
		return ErrDesync
	}
	for {
		head, err := br.Peek(1)
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if head[0] != recordMagic {
			return desync("bad record magic 0x%02x at seq %d", head[0], r.Verified())
		}
		rec, seq, id, err := r.readRecord(br)
		if err != nil {
			if errors.Is(err, errBadCRC) || errors.Is(err, errBadFrame) {
				return desync("torn record near seq %d: %v", r.Verified(), err)
			}
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil
			}
			return err
		}
		if id != r.cfg.ID {
			// The CRC held, so this is a well-formed record of another
			// stream: genuine misdelivery.
			if r.rec != nil {
				r.rec.Violatef("misdelivered", "stream %d received record of stream %d (seq %d)", r.cfg.ID, id, seq)
			}
			continue
		}
		want := r.cfg.payloadFor(seq)
		if !bytesEqual(rec, want) {
			// Framing and CRC held but content is wrong: the stack
			// corrupted (or cross-wired) payload bytes.
			if r.rec != nil {
				r.rec.Violatef("corrupted", "stream %d seq %d payload mismatch (%d bytes)", r.cfg.ID, seq, len(rec))
			}
			return desync("corrupt payload at seq %d", seq)
		}
		r.mu.Lock()
		switch {
		case seq == r.expected:
			r.expected++
		case seq < r.expected:
			// Verified retransmission of something already delivered:
			// discard, but ack immediately so a rewound sender catches
			// up to the real position quickly.
			r.dupes++
			sinceAck = r.cfg.ackEvery() // force an ack below
		default: // seq > expected
			// In-flight frames were lost while framing stayed aligned
			// (whole records dropped). Transport-level loss: reset so
			// the sender rewinds; not an end-to-end violation unless
			// retransmission never repairs it (stream-incomplete).
			r.mu.Unlock()
			return desync("gap: expected seq %d, got %d", r.Verified(), seq)
		}
		complete := r.expected >= r.cfg.Records
		r.mu.Unlock()
		sinceAck++
		if sinceAck >= r.cfg.ackEvery() || complete {
			if err := sendAck(); err != nil {
				return err
			}
		}
		if complete {
			// Hold the connection open briefly so the final ack drains
			// before close; the sender closes its side on completion.
			conn.SetReadDeadline(time.Now().Add(time.Second)) //nolint:netibis-determinism // arms a real network read deadline; wall clock is the only correct base
			io.Copy(io.Discard, conn)
			return nil
		}
	}
}

var (
	errBadCRC   = errors.New("invariant: record CRC mismatch")
	errBadFrame = errors.New("invariant: malformed record")
)

// readRecord parses one record (magic already peeked). It returns the
// payload, sequence number and stream ID.
func (r *Receiver) readRecord(br *wire.Reader) (payload []byte, seq, id uint64, err error) {
	br.Discard(1)
	var fields [3]uint64 // id, seq, payload length
	for i := range fields {
		if fields[i], err = br.ReadUvarint(); err != nil {
			return nil, 0, 0, wrapFrame(err)
		}
	}
	id, seq, n := fields[0], fields[1], fields[2]
	if n > 16<<20 {
		return nil, 0, 0, errBadFrame
	}
	payload = make([]byte, int(n))
	var crcBytes [4]byte
	if err := br.ReadFull(payload); err != nil {
		return nil, 0, 0, wrapFrame(err)
	}
	if err := br.ReadFull(crcBytes[:]); err != nil {
		return nil, 0, 0, wrapFrame(err)
	}
	// The CRC covers the header as the sender encodes it: a varint that
	// is not minimal fails it.
	hdr := binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint([]byte{recordMagic}, id), seq), n)
	crc := crc32.Checksum(hdr, castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	if crc != binary.BigEndian.Uint32(crcBytes[:]) {
		return nil, 0, 0, errBadCRC
	}
	return payload, seq, id, nil
}

func wrapFrame(err error) error {
	switch {
	case err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF):
		return io.ErrUnexpectedEOF
	case err == wire.ErrCorruptFrame:
		return errBadFrame
	}
	return err
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- directory convergence ---------------------------------------------------

// DirEntry mirrors an overlay directory entry without importing the
// overlay package (whose tests import this one).
type DirEntry struct {
	// Node is the attached node's relay ID.
	Node string
	// Home is the relay the node is attached to.
	Home string
	// Present is false for detach tombstones.
	Present bool
}

// sortedKeys returns m's keys in sorted order, so divergence reports
// are a deterministic function of the map contents.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ConvergedTo reports whether every relay's directory view agrees
// exactly with the expected live attachment map (node -> home relay).
// Tombstones are ignored; any missing, extra or misplaced present entry
// fails with a description of the first divergence found.
func ConvergedTo(views map[string][]DirEntry, expected map[string]string) (bool, string) {
	relays := make([]string, 0, len(views))
	for name := range views {
		relays = append(relays, name)
	}
	sort.Strings(relays)
	for _, relay := range relays {
		present := make(map[string]string)
		for _, e := range views[relay] {
			if e.Present {
				present[e.Node] = e.Home
			}
		}
		// Walk both maps in sorted key order so the "first divergence"
		// reported is the same divergence on every run of a seed.
		for _, node := range sortedKeys(expected) {
			home := expected[node]
			got, ok := present[node]
			if !ok {
				return false, fmt.Sprintf("relay %s missing %s (home %s)", relay, node, home)
			}
			if got != home {
				return false, fmt.Sprintf("relay %s has %s on %s, expected %s", relay, node, got, home)
			}
		}
		for _, node := range sortedKeys(present) {
			if _, ok := expected[node]; !ok {
				return false, fmt.Sprintf("relay %s has stale present entry %s on %s", relay, node, present[node])
			}
		}
	}
	return true, ""
}

// Agreeing reports whether all views agree with each other on the set
// of present attachments (without an external expectation), returning
// the first divergence otherwise. Useful mid-gossip where the true set
// is in flux but symmetry is still required at quiesce points.
func Agreeing(views map[string][]DirEntry) (bool, string) {
	var ref map[string]string
	var refName string
	relays := make([]string, 0, len(views))
	for name := range views {
		relays = append(relays, name)
	}
	sort.Strings(relays)
	for _, relay := range relays {
		present := make(map[string]string)
		for _, e := range views[relay] {
			if e.Present {
				present[e.Node] = e.Home
			}
		}
		if ref == nil {
			ref, refName = present, relay
			continue
		}
		if len(present) != len(ref) {
			return false, fmt.Sprintf("relay %s sees %d present nodes, %s sees %d", relay, len(present), refName, len(ref))
		}
		// Sorted order keeps the reported disagreement stable run to run.
		for _, node := range sortedKeys(ref) {
			if got, ok := present[node]; !ok || got != ref[node] {
				return false, fmt.Sprintf("relay %s disagrees with %s about %s", relay, refName, node)
			}
		}
	}
	return true, ""
}

// --- resource bounds ---------------------------------------------------------

// Bounds holds the resource ceilings a scenario enforces.
type Bounds struct {
	// MaxHeapBytes bounds the process heap (runtime.ReadMemStats
	// HeapAlloc); 0 disables the check.
	MaxHeapBytes uint64
	// MaxBacklogFrames bounds any single relay's total egress backlog
	// as scraped from netibis_flow_egress_backlog_frames; 0 disables.
	MaxBacklogFrames int
}

// CheckHeap records a violation when heapAlloc exceeds the bound.
// It returns true when within bounds.
func (b Bounds) CheckHeap(rec *Recorder, heapAlloc uint64) bool {
	if b.MaxHeapBytes > 0 && heapAlloc > b.MaxHeapBytes {
		rec.Violatef("heap", "heap %d bytes exceeds bound %d", heapAlloc, b.MaxHeapBytes)
		return false
	}
	return true
}

// CheckBacklog records a violation when a relay's scraped egress
// backlog exceeds the bound. It returns true when within bounds.
func (b Bounds) CheckBacklog(rec *Recorder, relayName string, backlogFrames float64) bool {
	if b.MaxBacklogFrames > 0 && int(backlogFrames) > b.MaxBacklogFrames {
		rec.Violatef("backlog", "relay %s egress backlog %.0f frames exceeds bound %d", relayName, backlogFrames, b.MaxBacklogFrames)
		return false
	}
	return true
}

// FormatViolations renders violations one per line, or "none".
func FormatViolations(vs []Violation) string {
	if len(vs) == 0 {
		return "none"
	}
	var b strings.Builder
	for _, v := range vs {
		b.WriteString(v.String())
		b.WriteByte('\n')
	}
	return b.String()
}
