package zip

// An LZ4-class block codec, implemented from scratch on the stdlib only.
//
// DEFLATE's entropy-coding stage is what makes the zip driver CPU-bound:
// one flate level-1 encoder tops out well below modern link rates. This
// codec drops entropy coding entirely and emits the classic byte-aligned
// LZ77 "sequence" format (the one popularised by LZ4/Snappy): a token
// byte whose high nibble is the literal length and low nibble the match
// length minus the 4-byte minimum (15 escapes into 255-valued
// continuation bytes), the literals, then a 2-byte little-endian
// backwards offset. It trades a worse ratio than DEFLATE for an order of
// magnitude more throughput — the right trade whenever the link is
// faster than a flate encoder but slower than memcpy.
//
// The encoder is greedy with a skip accelerator: a single hash-table
// probe per position, and the step size grows while nothing matches so
// incompressible regions are skimmed instead of hashed byte by byte.

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
)

// flagLZ marks blocks encoded by this codec. (0 and 1 are the legacy
// stored/deflate flags; decoders dispatch per block, so streams may mix
// flags freely.)
const flagLZ byte = 2

const (
	lzHashLog  = 14 // 16 Ki entries: 64 KiB table
	lzMinMatch = 4
	// The format's structural margins (from the LZ4 block spec): the
	// last sequence is literals-only covering at least the final 5
	// bytes, and no match may start within the last 12 bytes.
	lzLastLiterals = 5
	lzMatchMargin  = 12
	lzMaxOffset    = 65535
	lzSkipStrength = 6 // step doubles every 64 failed probes
)

// lzTables pools the encoder hash tables. Entries are positions + 1 (0
// means empty) and are NOT cleared between blocks: a stale entry either
// fails the bounds checks or the explicit byte comparison below, and a
// comparison that succeeds is a genuine match wherever the probe came
// from — so skipping the 128 KiB clear per block costs nothing but a
// slightly different probe pattern.
var lzTables = sync.Pool{New: func() any { return new([1 << lzHashLog]int32) }}

// lzHash6 hashes the low six bytes of an eight-byte load — six-byte
// probes collide far less than four-byte ones on structured text, where
// common 4-grams would otherwise thrash the table.
func lzHash6(u uint64) uint32 {
	return uint32(((u << 16) * 227718039650203) >> (64 - lzHashLog))
}

type lzCodec struct{}

func (lzCodec) Name() string { return "lz" }
func (lzCodec) Flag() byte   { return flagLZ }

// Bound is the format's worst case: one literal run needs one
// continuation byte per 255 literals, plus the token and the escape
// thresholds.
func (lzCodec) Bound(n int) int { return n + n/255 + 16 }

func (lzCodec) Compress(dst, src []byte) (int, error) {
	table := lzTables.Get().(*[1 << lzHashLog]int32)
	n, err := lzCompressBlock(dst, src, table)
	lzTables.Put(table)
	return n, err
}

// lzEmit appends one sequence (literals plus an optional match) and
// reports the new dst offset, or an error when dst is exhausted.
func lzEmit(dst, lits []byte, di, offset, matchLen int) (int, error) {
	litLen := len(lits)
	// Worst case for this sequence: token + length continuations +
	// literals + offset.
	if di+1+litLen/255+1+litLen+2+matchLen/255+1 > len(dst) {
		return 0, errBound
	}
	token := di
	di++
	if litLen >= 15 {
		dst[token] = 15 << 4
		for r := litLen - 15; ; r -= 255 {
			if r < 255 {
				dst[di] = byte(r)
				di++
				break
			}
			dst[di] = 255
			di++
		}
	} else {
		dst[token] = byte(litLen) << 4
	}
	if litLen <= 16 && cap(lits) >= 16 && di+16 <= len(dst) {
		// Short-literal fast path: lits is a window into the source
		// block, so when 16 bytes are readable past its start, copy
		// them unconditionally — the slack past litLen is overwritten
		// by the sequence tail.
		long := lits[:16:16]
		binary.LittleEndian.PutUint64(dst[di:], binary.LittleEndian.Uint64(long))
		binary.LittleEndian.PutUint64(dst[di+8:], binary.LittleEndian.Uint64(long[8:]))
		di += litLen
	} else {
		di += copy(dst[di:], lits)
	}
	if matchLen == 0 { // final literals-only sequence
		return di, nil
	}
	binary.LittleEndian.PutUint16(dst[di:], uint16(offset))
	di += 2
	ml := matchLen - lzMinMatch
	if ml >= 15 {
		dst[token] |= 15
		for r := ml - 15; ; r -= 255 {
			if r < 255 {
				dst[di] = byte(r)
				di++
				break
			}
			dst[di] = 255
			di++
		}
	} else {
		dst[token] |= byte(ml)
	}
	return di, nil
}

// lzCompressBlock encodes src into dst (len(dst) >= Bound(len(src)))
// and returns the encoded length, or errBound when the encoding would
// overrun dst (pathological inputs; the caller stores the block).
func lzCompressBlock(dst, src []byte, table *[1 << lzHashLog]int32) (int, error) {
	di, si, anchor := 0, 0, 0

	var err error
	step, probes := 1, 1<<lzSkipStrength
	// The limits are spelled as comparisons against len(src) rather than
	// hoisted locals so the compiler's prove pass can discharge the
	// bounds checks on every load in the loop body.
	for si+lzMatchMargin < len(src) {
		v8 := binary.LittleEndian.Uint64(src[si:])
		v := uint32(v8)
		h := lzHash6(v8)
		ref := int(table[h]) - 1
		table[h] = int32(si + 1)
		if ref < 0 || ref >= si || si-ref > lzMaxOffset ||
			binary.LittleEndian.Uint32(src[ref:]) != v {
			si += step
			step = probes >> lzSkipStrength
			probes++
			continue
		}
		step, probes = 1, 1<<lzSkipStrength
		for si > anchor && ref > 0 && src[si-1] == src[ref-1] {
			si--
			ref--
		}
		ml := lzMinMatch
		for {
			if si+ml+8+lzLastLiterals > len(src) {
				for si+ml+lzLastLiterals < len(src) && src[ref+ml] == src[si+ml] {
					ml++
				}
				break
			}
			x := binary.LittleEndian.Uint64(src[ref+ml:]) ^ binary.LittleEndian.Uint64(src[si+ml:])
			if x != 0 {
				ml += bits.TrailingZeros64(x) >> 3
				break
			}
			ml += 8
		}
		// Inline the dominant sequence shape — short literal run, short
		// match, room for a 16-byte over-copy on both sides — and leave
		// every escape (long lengths, block edges, tight dst) to lzEmit.
		// The encoder emits one sequence per ~10 input bytes on
		// structured data, so the call and per-case checks it skips are
		// a measurable share of the whole encode.
		if litLen := si - anchor; uint(litLen) < 15 && ml < 19 &&
			anchor+16 <= len(src) && di+19 <= len(dst) {
			d := dst[di : di+19 : di+19]
			s := src[anchor : anchor+16 : anchor+16]
			d[0] = byte(litLen)<<4 | byte(ml-lzMinMatch)
			binary.LittleEndian.PutUint64(d[1:9], binary.LittleEndian.Uint64(s))
			binary.LittleEndian.PutUint64(d[9:17], binary.LittleEndian.Uint64(s[8:16]))
			binary.LittleEndian.PutUint16(d[1+litLen:3+litLen], uint16(si-ref))
			di += 3 + litLen
		} else if di, err = lzEmit(dst, src[anchor:si], di, si-ref, ml); err != nil {
			return 0, err
		}
		si += ml
		anchor = si
	}
	if di, err = lzEmit(dst, src[anchor:], di, 0, 0); err != nil {
		return 0, err
	}
	return di, nil
}

var errLZCorrupt = fmt.Errorf("%w: bad lz sequence", ErrCorrupt)

// decodeLZ decodes one flagLZ block. src must decode to exactly len(dst)
// bytes; every length, offset and copy is bounds-checked so corrupt or
// adversarial blocks fail instead of reading or writing out of range.
func decodeLZ(dst, src []byte) error {
	di, si := 0, 0
	for si < len(src) {
		token := src[si]
		// Fast path for the dominant sequence shape: both nibble lengths
		// short (no continuation bytes) and enough margin on both buffers
		// that every copy below can over-copy unconditionally. All other
		// shapes — long lengths, block edges, tight buffers — take the
		// fully-checked path after this branch. Margins: literals read
		// src[si+1:si+17] and the offset at most src[si+15:si+17] (18
		// total); dst sees at most 14 literal bytes plus a 24-byte match
		// over-copy (38 < 42).
		if token>>4 != 15 && token&15 != 15 && si+18 <= len(src) && di+42 <= len(dst) {
			// Hoist both windows into fixed-length sub-slices so the
			// compiler proves every access below in-range once, here,
			// instead of re-checking at each load and store.
			s := src[si : si+18 : si+18]
			d := dst[di : di+42 : len(dst)]
			litLen := int(token >> 4) // 0..14
			binary.LittleEndian.PutUint64(d, binary.LittleEndian.Uint64(s[1:]))
			binary.LittleEndian.PutUint64(d[8:16], binary.LittleEndian.Uint64(s[9:17]))
			offset := int(binary.LittleEndian.Uint16(s[1+litLen : 3+litLen]))
			si += 3 + litLen
			di += litLen
			if offset == 0 || offset > di {
				return errLZCorrupt
			}
			matchLen := int(token&15) + lzMinMatch // 4..18
			m := di - offset
			if offset >= 16 {
				// Disjoint: over-copy in eight-byte steps. The third step
				// may re-read bytes the first two just wrote (offset
				// exactly 16, matchLen > 16) — those are decoded output
				// already, so the copy stays correct.
				mm := dst[m : m+24 : len(dst)]
				dd := d[litLen:]
				binary.LittleEndian.PutUint64(dd, binary.LittleEndian.Uint64(mm))
				binary.LittleEndian.PutUint64(dd[8:16], binary.LittleEndian.Uint64(mm[8:16]))
				if matchLen > 16 {
					binary.LittleEndian.PutUint64(dd[16:24], binary.LittleEndian.Uint64(mm[16:24]))
				}
			} else {
				// Overlapping short match: a byte loop beats setting up
				// the doubling copy at these lengths.
				for i := 0; i < matchLen; i++ {
					dst[di+i] = dst[m+i]
				}
			}
			di += matchLen
			continue
		}
		si++
		litLen := int(token >> 4)
		if litLen == 15 {
			for {
				if si >= len(src) {
					return errLZCorrupt
				}
				b := src[si]
				si++
				litLen += int(b)
				if b != 255 {
					break
				}
			}
		}
		if litLen > len(src)-si || litLen > len(dst)-di {
			return errLZCorrupt
		}
		if litLen <= 16 && si+16 <= len(src) && di+16 <= len(dst) {
			// Short-literal fast path: copy 16 bytes unconditionally
			// (cheaper than a memmove call); the slack past litLen is
			// overwritten by the next sequence or rejected with the
			// block.
			binary.LittleEndian.PutUint64(dst[di:], binary.LittleEndian.Uint64(src[si:]))
			binary.LittleEndian.PutUint64(dst[di+8:], binary.LittleEndian.Uint64(src[si+8:]))
		} else {
			copy(dst[di:], src[si:si+litLen])
		}
		di += litLen
		si += litLen
		if si == len(src) {
			// Literals-only final sequence.
			break
		}
		if si+2 > len(src) {
			return errLZCorrupt
		}
		offset := int(binary.LittleEndian.Uint16(src[si:]))
		si += 2
		if offset == 0 || offset > di {
			return errLZCorrupt
		}
		matchLen := int(token&15) + lzMinMatch
		if token&15 == 15 {
			for {
				if si >= len(src) {
					return errLZCorrupt
				}
				b := src[si]
				si++
				matchLen += int(b)
				if b != 255 {
					break
				}
			}
		}
		if matchLen > len(dst)-di {
			return errLZCorrupt
		}
		if matchLen <= 16 && offset >= 16 && di+16 <= len(dst) {
			// Short-match fast path, same over-copy trick; offset >= 16
			// keeps source and destination disjoint.
			binary.LittleEndian.PutUint64(dst[di:], binary.LittleEndian.Uint64(dst[di-offset:]))
			binary.LittleEndian.PutUint64(dst[di+8:], binary.LittleEndian.Uint64(dst[di-offset+8:]))
			di += matchLen
		} else if offset >= matchLen {
			copy(dst[di:di+matchLen], dst[di-offset:])
			di += matchLen
		} else {
			// Overlapping match (the RLE case): each copy of the
			// already-written prefix doubles the distance to the source,
			// so the repetition materialises in O(log n) memmoves.
			pos := di - offset
			for n := matchLen; n > 0; {
				avail := di - pos
				if avail > n {
					avail = n
				}
				copy(dst[di:di+avail], dst[pos:pos+avail])
				di += avail
				n -= avail
			}
		}
	}
	if di != len(dst) {
		return errLZCorrupt
	}
	return nil
}
