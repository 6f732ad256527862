package main

import (
	"errors"
	"fmt"
	"hash/crc32"

	"netibis/internal/ipl"
	"netibis/internal/workload"
)

// payloadPool holds the distinct payloads a phase cycles through, each
// with its CRC computed once at set-up so the sender pays nothing per
// message. The payloads are overlapping windows of one seeded
// workload.Grid buffer: same seed, same bytes.
type payloadPool struct {
	size int
	bufs [][]byte
	crcs []uint32
}

const poolVariants = 8

func newPayloadPool(size int, seed int64) *payloadPool {
	stride := size / poolVariants
	if stride == 0 {
		stride = 1
	}
	raw := workload.Generate(workload.Grid, size+stride*(poolVariants-1), seed)
	p := &payloadPool{size: size}
	for i := 0; i < poolVariants; i++ {
		b := raw[i*stride : i*stride+size]
		p.bufs = append(p.bufs, b)
		p.crcs = append(p.crcs, crc32.ChecksumIEEE(b))
	}
	return p
}

func (p *payloadPool) pick(seq int64) ([]byte, uint32) {
	i := int(seq % int64(len(p.bufs)))
	return p.bufs[i], p.crcs[i]
}

// Every benchmark message is (sequence number, CRC32 of payload, last
// flag, payload). The receiver checks order, length and CRC.
type header struct {
	seq  int64
	crc  uint32
	last bool
}

var (
	errReordered = errors.New("benchmark: message out of order")
	errLength    = errors.New("benchmark: message has wrong length")
	errCorrupt   = errors.New("benchmark: payload CRC mismatch")
)

// isCorruption reports whether err means the program delivered wrong
// bytes (as opposed to failing to deliver in time).
func isCorruption(err error) bool {
	return errors.Is(err, errReordered) || errors.Is(err, errLength) || errors.Is(err, errCorrupt) ||
		errors.Is(err, ipl.ErrTypeMismatch) || errors.Is(err, ipl.ErrShortMessage)
}

func encode(wm *ipl.WriteMessage, h header, payload []byte) {
	wm.WriteInt(h.seq).WriteInt(int64(h.crc)).WriteBool(h.last).WriteBytes(payload)
}

// decode reads one benchmark message and verifies it against the
// expected sequence number and payload length.
func decode(rm *ipl.ReadMessage, wantSeq int64, wantLen int) (header, []byte, error) {
	var h header
	seq, err := rm.ReadInt()
	if err != nil {
		return h, nil, err
	}
	crc, err := rm.ReadInt()
	if err != nil {
		return h, nil, err
	}
	last, err := rm.ReadBool()
	if err != nil {
		return h, nil, err
	}
	payload, err := rm.ReadBytes()
	if err != nil {
		return h, nil, err
	}
	if err := rm.Finish(); err != nil {
		return h, nil, err
	}
	h = header{seq: seq, crc: uint32(crc), last: last}
	return h, payload, verify(h, payload, wantSeq, wantLen)
}

func verify(h header, payload []byte, wantSeq int64, wantLen int) error {
	if h.seq != wantSeq {
		return fmt.Errorf("%w: got %d, want %d", errReordered, h.seq, wantSeq)
	}
	if len(payload) != wantLen {
		return fmt.Errorf("%w: got %d bytes, want %d", errLength, len(payload), wantLen)
	}
	if crc32.ChecksumIEEE(payload) != h.crc {
		return fmt.Errorf("%w: message %d", errCorrupt, h.seq)
	}
	return nil
}

// selfTest proves the receiver's check fires: a message with one byte
// flipped, one out of order and one truncated must each be rejected,
// and the untouched message accepted.
func selfTest() error {
	pool := newPayloadPool(256, 1)
	payload, crc := pool.pick(3)
	h := header{seq: 3, crc: crc}
	if err := verify(h, payload, 3, len(payload)); err != nil {
		return fmt.Errorf("self-test: intact message rejected: %w", err)
	}
	flipped := append([]byte(nil), payload...)
	flipped[len(flipped)/2] ^= 0x01
	if err := verify(h, flipped, 3, len(flipped)); !errors.Is(err, errCorrupt) {
		return fmt.Errorf("self-test: flipped byte not detected (got %v)", err)
	}
	if err := verify(h, payload, 4, len(payload)); !errors.Is(err, errReordered) {
		return fmt.Errorf("self-test: reordering not detected (got %v)", err)
	}
	if err := verify(h, payload[:len(payload)-1], 3, len(payload)); !errors.Is(err, errLength) {
		return fmt.Errorf("self-test: truncation not detected (got %v)", err)
	}
	return nil
}
