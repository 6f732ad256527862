package zip

// DEFLATE level 1 (RFC 1951) over whole blocks in contiguous memory, on
// the stdlib only, in place of compress/flate's streams. The encoder runs
// the lz finder (lz.go) and writes each block — dynamic, fixed or stored,
// the smallest by exact bit count — through a 64-bit accumulator into the
// output; the decoder inflates straight into its destination, which is
// its own window, through a 64-bit refill reader and pooled two-level
// tables. The bytes are raw DEFLATE, as compress/flate's are.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

const (
	deflateBlockMax = 65535 // input bytes per DEFLATE block, a stored block's largest
	deflateWindow   = 32 << 10
	deflateMaxMatch = 258
	numLitLen       = 286 // literal/length symbols a block may use
	numDist         = 30
	numCodeLen      = 19
	endOfBlock      = 256

	// Decode table roots. A code longer than its root continues in a
	// sub-table of 2^(15-root) entries at most, under a root prefix that
	// at least two such codes share: 143 prefixes of the literal/length
	// code at most, 15 of the distance code.
	litRoot      = 10
	distRoot     = 8
	codeLenRoot  = 7
	litTableLen  = 1<<litRoot + 143<<(15-litRoot)
	distTableLen = 1<<distRoot + 15<<(15-distRoot)
)

// Decode table entries: bits 0-3 the code length (a link's: its sub-table's
// index width), 4-6 the kind, 8-11 the extra bits after the code, 16-31 the
// value — a literal, a base length or distance, or a sub-table offset.
// The zero entry is an invalid code.
const (
	kindLit  = 1 << 4
	kindBase = 2 << 4
	kindEOB  = 3 << 4
	kindLink = 4 << 4
	kindMask = 7 << 4
)

// ErrCorrupt is wrapped by every error a malformed compressed block produces.
var ErrCorrupt = errors.New("zip: corrupt compressed block")

var (
	errHuffmanCode = fmt.Errorf("%w: over-subscribed or incomplete Huffman code", ErrCorrupt)
	errSymbol      = fmt.Errorf("%w: invalid block header or symbol", ErrCorrupt)
	errDistance    = fmt.Errorf("%w: distance before the start of the output", ErrCorrupt)
	errOutputLen   = fmt.Errorf("%w: output past or short of the declared length", ErrCorrupt)
	errNoFinal     = fmt.Errorf("%w: no final block", ErrCorrupt)
	errPastPayload = fmt.Errorf("%w: bits read past the payload", ErrCorrupt)
)

var (
	lengthBase  = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lengthExtra = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase    = [30]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra   = [30]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
	// The order a dynamic header sends the code-length code's lengths
	// in, and the extra bits of its repeat symbols 16, 17 and 18.
	codeLenOrder = [numCodeLen]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
	codeLenExtra = [3]uint8{2, 3, 7}
)

// Derived once: length and distance codes, decode table entries, and the
// fixed codes (RFC 1951 3.2.6), whose literal/length symbols 286 and 287
// and distances 30 and 31 are invalid in a block.
var (
	lengthCode          [deflateMaxMatch + 1]uint8
	distCodes           [512]uint8 // at min(d-1, 256+(d-1)>>7)
	litEntry, distEntry [288]uint32
	fixedLit, fixedDist huffEncoder
	fixedLitTable       [1 << litRoot]uint32
	fixedDistTable      [1 << 5]uint32
)

func init() {
	for c, base := range lengthBase { // 258 is 284's last length and 285's only one
		for l := base; l < base+1<<lengthExtra[c]; l++ {
			lengthCode[l] = uint8(c)
		}
	}
	for c, base := range distBase {
		for d := int(base) - 1; d < int(base)-1+1<<distExtra[c]; d++ {
			distCodes[min(d, 256+d>>7)] = uint8(c)
		}
	}
	for sym := range 288 {
		switch {
		case sym < endOfBlock:
			litEntry[sym] = kindLit | uint32(sym)<<16
		case sym == endOfBlock:
			litEntry[sym] = kindEOB
		case sym < numLitLen:
			litEntry[sym] = kindBase | uint32(lengthExtra[sym-257])<<8 | uint32(lengthBase[sym-257])<<16
		}
		if sym < numDist {
			distEntry[sym] = kindBase | uint32(distExtra[sym])<<8 | uint32(distBase[sym])<<16
		}
		fixedLit.lens[sym] = [4]uint8{8, 9, 7, 8}[min(sym/144, 1)+sym/256+sym/280] // <144, <256, <280, <288
		fixedDist.lens[sym%32] = 5
	}
	fixedLit.assign()
	fixedDist.assign()
	if buildDecodeTable(fixedLitTable[:], litRoot, fixedLit.lens[:], litEntry[:]) != nil ||
		buildDecodeTable(fixedDistTable[:], 5, fixedDist.lens[:32], distEntry[:]) != nil {
		panic("zip: fixed Huffman tables")
	}
}

// deflateBound is DEFLATE's worst case, which both encoders stay under:
// 5 bytes of framing per 16 KiB stored, and a little for the last block.
func deflateBound(n int) int { return n + 5*((n+16383)/16384) + 16 }

// deflateCodec is DEFLATE level 1, the default codec.
type deflateCodec struct{}

func (deflateCodec) Name() string    { return "flate" }
func (deflateCodec) Flag() byte      { return flagDeflate }
func (deflateCodec) Bound(n int) int { return deflateBound(n) }

// Compress writes src as a DEFLATE stream of blocks of deflateBlockMax
// bytes, or fails with errBound when dst is too small.
func (deflateCodec) Compress(dst, src []byte) (int, error) {
	e := deflateEncoders.Get().(*deflateEncoder)
	defer deflateEncoders.Put(e)
	w := bitWriter{dst: dst}
	for start := 0; ; start += deflateBlockMax {
		end := min(start+deflateBlockMax, len(src))
		e.match(src, start, end)
		if !e.writeBlock(&w, src, start, end, end == len(src)) {
			return 0, errBound
		}
		if end == len(src) {
			w.put(0, (8-w.nbits)&7)
			return w.n, nil
		}
	}
}

// deflateSeq is lit literals, then a match of mlen bytes (3-258, 0 for
// none) dist bytes back, whose length and distance codes are lc and dc.
type deflateSeq struct {
	lit, mlen, dist uint16
	lc, dc          uint8
}

// huffEncoder is a prefix code for writing, codes bit-reversed (LSB first).
type huffEncoder struct {
	codes [288]uint16
	lens  [288]uint8
}

// deflateEncoder is the encoder's pooled state.
type deflateEncoder struct {
	table              [1 << lzHashLog]int32 // the lz finder's hash table
	seqs               []deflateSeq
	litFreq            [numLitLen]uint32
	distFreq           [numDist]uint32
	clFreq             [numCodeLen]uint32
	extraBits          int // the block's length and distance extra bits
	lit, dist, codeLen huffEncoder
	lens               [numLitLen + numDist]uint8 // a dynamic header's code lengths,
	clToks             []uint16                   // as code-length symbols, extra bits << 5
	weight, depth      [288]uint32                // Huffman scratch: weight<<9 | symbol, depth
}

var deflateEncoders = sync.Pool{New: func() any { return new(deflateEncoder) }}

// match runs the lz finder over src[start:end], reaching back at most
// deflateWindow bytes (before start too), and records the block's
// sequences and symbol frequencies. The hash table is not cleared
// between calls, for the reason lzTables gives.
func (e *deflateEncoder) match(src []byte, start, end int) {
	clear(e.litFreq[:])
	clear(e.distFreq[:])
	e.extraBits = 0
	seqs := e.seqs[:0]
	si, anchor := start, start
	step, probes := 1, 1<<lzSkipStrength
	for si+8 <= end {
		v8 := binary.LittleEndian.Uint64(src[si:])
		h := lzHash6(v8)
		ref := int(e.table[h]) - 1
		e.table[h] = int32(si + 1)
		if ref < 0 || ref >= si || si-ref > deflateWindow ||
			binary.LittleEndian.Uint32(src[ref:]) != uint32(v8) {
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
		ml := 4
		for si+ml+8 <= end {
			if x := binary.LittleEndian.Uint64(src[ref+ml:]) ^ binary.LittleEndian.Uint64(src[si+ml:]); x != 0 {
				ml += bits.TrailingZeros64(x) >> 3
				goto matched
			}
			ml += 8
		}
		for si+ml < end && src[ref+ml] == src[si+ml] {
			ml++
		}
	matched:
		for _, b := range src[anchor:si] {
			e.litFreq[b]++
		}
		lit, dist := uint16(si-anchor), si-ref
		dc := distCodes[min(dist-1, 256+(dist-1)>>7)]
		si += ml
		anchor = si
		for ml > 0 { // pieces of 3-258 bytes
			n := min(ml, deflateMaxMatch)
			if r := ml - n; r > 0 && r < 3 {
				n -= 3 - r
			}
			lc := lengthCode[n]
			e.litFreq[endOfBlock+1+int(lc)]++
			e.distFreq[dc]++
			e.extraBits += int(lengthExtra[lc] + distExtra[dc])
			seqs = append(seqs, deflateSeq{lit: lit, mlen: uint16(n), dist: uint16(dist), lc: lc, dc: dc})
			lit, ml = 0, ml-n
		}
	}
	for _, b := range src[anchor:end] {
		e.litFreq[b]++
	}
	e.litFreq[endOfBlock] = 1
	e.seqs = append(seqs, deflateSeq{lit: uint16(end - anchor)})
}

// writeBlock writes src[start:end] as one block, in whichever form is
// smallest; false means it does not fit the output.
func (e *deflateEncoder) writeBlock(w *bitWriter, src []byte, start, end int, final bool) bool {
	e.buildCode(e.litFreq[:], &e.lit, 15)
	e.buildCode(e.distFreq[:], &e.dist, 15)
	nlit, ndist, nclen, headerBits := e.dynamicHeader()
	dynamicBits := headerBits + e.extraBits + bitCost(e.litFreq[:], e.lit.lens[:]) + bitCost(e.distFreq[:], e.dist.lens[:])
	fixedBits := e.extraBits + bitCost(e.litFreq[:], fixedLit.lens[:]) + bitCost(e.distFreq[:], fixedDist.lens[:])
	// Stored: the 3 header bits padded to a byte, LEN, NLEN, the bytes.
	storedBits := (8-(int(w.nbits)+3)%8)%8 + 32 + 8*(end-start)
	if w.n+(int(w.nbits)+3+min(storedBits, fixedBits, dynamicBits)+7)/8+8 > len(w.dst) {
		return false // the block, and the put slack
	}
	hdr := uint64(0)
	if final {
		hdr = 1
	}
	switch {
	case storedBits <= min(fixedBits, dynamicBits):
		w.put(hdr, 3)
		w.put(0, (8-w.nbits)&7) // to a byte
		binary.LittleEndian.PutUint16(w.dst[w.n:], uint16(end-start))
		binary.LittleEndian.PutUint16(w.dst[w.n+2:], ^uint16(end-start))
		w.n += 4 + copy(w.dst[w.n+4:], src[start:end])
	case fixedBits <= dynamicBits:
		w.put(hdr|1<<1, 3)
		e.writeSeqs(w, src[start:end], &fixedLit, &fixedDist)
	default:
		w.put(hdr|2<<1|uint64(nlit-257)<<3|uint64(ndist-1)<<8|uint64(nclen-4)<<13, 17)
		for _, sym := range codeLenOrder[:nclen] {
			w.put(uint64(e.codeLen.lens[sym]), 3)
		}
		for _, t := range e.clToks {
			sym := t & 31
			w.put(uint64(e.codeLen.codes[sym]), uint(e.codeLen.lens[sym]))
			if sym >= 16 {
				w.put(uint64(t>>5), uint(codeLenExtra[sym-16]))
			}
		}
		e.writeSeqs(w, src[start:end], &e.lit, &e.dist)
	}
	return true
}

func bitCost(freq []uint32, lens []uint8) int {
	n := 0
	for sym, f := range freq {
		n += int(f) * int(lens[sym])
	}
	return n
}

// dynamicHeader run-length codes the literal/length and distance code
// lengths a dynamic header sends and builds the code-length code. It
// returns how many of each the header sends, and its size in bits.
func (e *deflateEncoder) dynamicHeader() (nlit, ndist, nclen, nbits int) {
	for nlit = numLitLen; e.lit.lens[nlit-1] == 0; nlit-- {
	}
	for ndist = numDist; e.dist.lens[ndist-1] == 0; ndist-- {
	}
	lens := e.lens[:nlit+ndist]
	copy(lens, e.lit.lens[:nlit])
	copy(lens[nlit:], e.dist.lens[:ndist])
	clear(e.clFreq[:])
	e.clToks = e.clToks[:0]
	emit := func(sym, extra uint16) {
		e.clToks = append(e.clToks, sym|extra<<5)
		e.clFreq[sym]++
	}
	for i := 0; i < len(lens); {
		l, run := lens[i], 1
		for i+run < len(lens) && lens[i+run] == l {
			run++
		}
		i += run
		if l == 0 {
			for ; run >= 11; run -= min(run, 138) {
				emit(18, uint16(min(run, 138)-11))
			}
			if run >= 3 {
				emit(17, uint16(run-3))
				run = 0
			}
		} else {
			emit(uint16(l), 0)
			for run--; run >= 3; run -= min(run, 6) {
				emit(16, uint16(min(run, 6)-3))
			}
		}
		for ; run > 0; run-- {
			emit(uint16(l), 0)
		}
	}
	e.buildCode(e.clFreq[:], &e.codeLen, 7)
	for nclen = numCodeLen; nclen > 4 && e.codeLen.lens[codeLenOrder[nclen-1]] == 0; nclen-- {
	}
	nbits = 5 + 5 + 4 + 3*nclen + bitCost(e.clFreq[:], e.codeLen.lens[:]) +
		int(2*e.clFreq[16]+3*e.clFreq[17]+7*e.clFreq[18])
	return nlit, ndist, nclen, nbits
}

// buildCode makes h a prefix code of at most maxBits bits for freq:
// optimal (Moffat and Katajainen's in-place algorithm) unless that is too
// deep, in which case the weights are halved until it is not. Every code
// it builds is complete: when fewer than two symbols have a frequency,
// unused ones make up two.
func (e *deflateEncoder) buildCode(freq []uint32, h *huffEncoder, maxBits uint32) {
	lens, n := h.lens[:len(freq)], 0
	for sym, f := range freq {
		lens[sym] = 0
		if f != 0 {
			e.weight[n] = f<<9 | uint32(sym)
			n++
		}
	}
	for sym := 0; n < 2; sym++ {
		if freq[sym] == 0 {
			e.weight[n] = uint32(sym)
			n++
		}
	}
	w, a := e.weight[:n], e.depth[:n]
	slices.Sort(w)
	for {
		for i, v := range w {
			a[i] = v >> 9
		}
		// a[i] becomes the depth of the i-th lightest symbol: first the
		// tree's parent links, then internal depths, then leaf depths.
		a[0] += a[1]
		root, leaf := 0, 2
		for next := 1; next < n-1; next++ {
			if leaf >= n || a[root] < a[leaf] {
				a[next], a[root] = a[root], uint32(next)
				root++
			} else {
				a[next] = a[leaf]
				leaf++
			}
			if leaf >= n || (root < next && a[root] < a[leaf]) {
				a[next], a[root] = a[next]+a[root], uint32(next)
				root++
			} else {
				a[next] += a[leaf]
				leaf++
			}
		}
		a[n-2] = 0
		for next := n - 3; next >= 0; next-- {
			a[next] = a[a[next]] + 1
		}
		avail, used, depth := 1, 0, uint32(0)
		for root, next := n-2, n-1; avail > 0; avail, depth, used = 2*used, depth+1, 0 {
			for ; root >= 0 && a[root] == depth; root-- {
				used++
			}
			for ; avail > used; avail-- {
				a[next] = depth
				next--
			}
		}
		if a[0] <= maxBits {
			break
		}
		for i, v := range w {
			w[i] = (v>>9+1)>>1<<9 | v&511
		}
	}
	for i, v := range w {
		lens[v&511] = uint8(a[i])
	}
	h.assign()
}

// assign gives the symbols their canonical codes from lens.
func (h *huffEncoder) assign() {
	var count, next [16]uint16
	for _, l := range h.lens {
		count[l]++
	}
	count[0] = 0
	for l := 1; l < 16; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	for sym, l := range h.lens {
		if l != 0 {
			h.codes[sym] = bits.Reverse16(next[l]) >> (16 - l)
			next[l]++
		}
	}
}

// writeSeqs writes the block's sequences and end-of-block code with the
// given codes, the accumulator in locals: literal codes (15 bits at most)
// until 48 bits are pending, each match (48 at most) between two flushes.
func (e *deflateEncoder) writeSeqs(w *bitWriter, src []byte, lit, dist *huffEncoder) {
	acc, nbits, out, n := w.bits, w.nbits, w.dst, w.n
	p := 0
	for _, s := range e.seqs {
		for _, b := range src[p : p+int(s.lit)] {
			acc |= uint64(lit.codes[b]) << nbits
			if nbits += uint(lit.lens[b]); nbits >= 48 {
				binary.LittleEndian.PutUint64(out[n:], acc)
				n, acc, nbits = n+int(nbits>>3), acc>>(nbits&^7), nbits&7
			}
		}
		p += int(s.lit) + int(s.mlen)
		if s.mlen == 0 {
			continue
		}
		binary.LittleEndian.PutUint64(out[n:], acc)
		n, acc, nbits = n+int(nbits>>3), acc>>(nbits&^7), nbits&7
		sym := endOfBlock + 1 + int(s.lc)
		acc |= (uint64(lit.codes[sym]) | uint64(s.mlen-lengthBase[s.lc])<<lit.lens[sym]) << nbits
		nbits += uint(lit.lens[sym] + lengthExtra[s.lc])
		acc |= (uint64(dist.codes[s.dc]) | uint64(s.dist-distBase[s.dc])<<dist.lens[s.dc]) << nbits
		nbits += uint(dist.lens[s.dc] + distExtra[s.dc])
		binary.LittleEndian.PutUint64(out[n:], acc)
		n, acc, nbits = n+int(nbits>>3), acc>>(nbits&^7), nbits&7
	}
	w.bits, w.nbits, w.n = acc, nbits, n
	w.put(uint64(lit.codes[endOfBlock]), uint(lit.lens[endOfBlock]))
}

// bitWriter packs bits least significant first into dst. Between calls
// it holds fewer than 8 pending bits, and dst has 8 bytes of slack past
// the bits it was checked to have room for.
type bitWriter struct {
	dst   []byte
	n     int
	bits  uint64
	nbits uint
}

// put adds the low nb bits of v, nb ≤ 56.
func (w *bitWriter) put(v uint64, nb uint) {
	w.bits |= v << w.nbits
	w.nbits += nb
	binary.LittleEndian.PutUint64(w.dst[w.n:], w.bits)
	w.n, w.bits, w.nbits = w.n+int(w.nbits>>3), w.bits>>(w.nbits&^7), w.nbits&7
}

// inflater is the decoder's pooled state: a dynamic block's tables.
type inflater struct {
	lit     [litTableLen]uint32
	dist    [distTableLen]uint32
	codeLen [1 << codeLenRoot]uint32
	lens    [numLitLen + numDist]uint8
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// inflate decodes one flagDeflate block: src is a raw DEFLATE stream
// that must reach a final block having produced exactly len(dst) bytes.
// Bytes after the final block are ignored, as compress/flate does.
func inflate(dst, src []byte) error {
	f := inflaters.Get().(*inflater)
	defer inflaters.Put(f)
	br := bitReader{src: src}
	di := 0
	for final := false; !final; {
		if (br.consumed()+7)/8 >= len(src) { // no room left for a block
			return errNoFinal
		}
		hdr := br.take(3)
		final = hdr&1 == 1
		var err error
		switch hdr >> 1 {
		case 0:
			di, err = br.stored(dst, di)
		case 1:
			di, err = br.huffman(dst, di, fixedLitTable[:], fixedDistTable[:], 5)
		case 2:
			if err = f.readDynamic(&br); err == nil {
				di, err = br.huffman(dst, di, f.lit[:], f.dist[:], distRoot)
			}
		default:
			err = errSymbol
		}
		if err != nil {
			return err
		}
	}
	switch {
	case br.consumed() > 8*len(src):
		return errPastPayload
	case di != len(dst):
		return errOutputLen
	}
	return nil
}

// readDynamic reads a dynamic block's header into the inflater's tables.
func (f *inflater) readDynamic(br *bitReader) error {
	nlit, ndist, nclen := int(br.take(5))+257, int(br.take(5))+1, int(br.take(4))+4
	if nlit > numLitLen || ndist > numDist {
		return errSymbol
	}
	var clLens [numCodeLen]uint8
	for _, sym := range codeLenOrder[:nclen] {
		clLens[sym] = uint8(br.take(3))
	}
	if err := buildDecodeTable(f.codeLen[:], codeLenRoot, clLens[:], litEntry[:]); err != nil {
		return err
	}
	lens := f.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		br.refill()
		e := f.codeLen[br.bits&(1<<codeLenRoot-1)]
		if e&kindMask == 0 {
			return errSymbol
		}
		br.bits, br.nbits = br.bits>>(e&15), br.nbits-uint(e&15)
		sym := uint8(e >> 16)
		if sym < 16 {
			lens[i] = sym
			i++
			continue
		}
		if sym == 16 && i == 0 {
			return errSymbol
		}
		rep, val := [3]int{3, 3, 11}[sym-16]+int(br.take(uint(codeLenExtra[sym-16]))), uint8(0)
		if sym == 16 {
			val = lens[i-1]
		}
		if i+rep > len(lens) {
			return errSymbol
		}
		for ; rep > 0; rep-- {
			lens[i] = val
			i++
		}
	}
	if err := buildDecodeTable(f.lit[:], litRoot, lens[:nlit], litEntry[:]); err != nil {
		return err
	}
	return buildDecodeTable(f.dist[:], distRoot, lens[nlit:], distEntry[:])
}

// buildDecodeTable fills t from the code lengths lens: each code's entry
// (entries[sym] plus its length) in every root slot its first root bits
// select, a longer code in the sub-table its root slot links to. The
// code must be complete, empty, or one 1-bit code — the exceptions
// compress/flate and zlib accept; an unused pattern decodes as invalid.
func buildDecodeTable(t []uint32, root uint, lens []uint8, entries []uint32) error {
	var count, next [16]int // next: each length's first canonical code
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	left, maxLen := 1, uint(0)
	for l := uint(1); l < 16; l++ {
		if left = left<<1 - count[l]; left < 0 {
			return errHuffmanCode
		}
		if count[l] > 0 {
			maxLen = l
		}
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	if left > 0 {
		if maxLen > 1 || (maxLen == 1 && count[1] != 1) {
			return errHuffmanCode
		}
		clear(t[:1<<root])
	}
	// The codes longer than root are the last ones, under the prefixes
	// from first on, each linking to a sub-table for the longest code.
	subBits := uint(0)
	if maxLen > root {
		subBits = maxLen - root
		first := next[root+1] >> 1
		if 1<<root+(1<<root-first)<<subBits > len(t) {
			return errHuffmanCode
		}
		for p := first; p < 1<<root; p++ {
			rev := bits.Reverse16(uint16(p)) >> (16 - root)
			t[rev] = kindLink | uint32(1<<root+(p-first)<<subBits)<<16 | uint32(subBits)
		}
	}
	for sym, l := range lens {
		if l == 0 {
			continue
		}
		rev := int(bits.Reverse16(uint16(next[l])) >> (16 - l))
		next[l]++
		entry := entries[sym] | uint32(l)
		if uint(l) <= root {
			for j := rev; j < 1<<root; j += 1 << l {
				t[j] = entry
			}
			continue
		}
		sub := int(t[rev&(1<<root-1)] >> 16)
		for j := rev >> root; j < 1<<subBits; j += 1 << (uint(l) - root) {
			t[sub+j] = entry
		}
	}
	return nil
}

// bitReader reads src least significant bit first. Its nbits bits are
// the stream's bits [8*pos - nbits, 8*pos); past the end of src it reads
// zeros, which consumed shows.
type bitReader struct {
	src   []byte
	pos   int
	bits  uint64
	nbits uint
}

// refill tops acc up to at least 56 bits from src[pos:].
func refill(src []byte, pos int, acc uint64, nbits uint) (int, uint64, uint) {
	if pos+8 <= len(src) {
		return pos + int(63-nbits)>>3, acc | binary.LittleEndian.Uint64(src[pos:])<<nbits, nbits | 56
	}
	for ; nbits <= 56; nbits += 8 {
		if pos < len(src) {
			acc |= uint64(src[pos]) << nbits
		}
		pos++
	}
	return pos, acc, nbits
}

func (br *bitReader) refill() { br.pos, br.bits, br.nbits = refill(br.src, br.pos, br.bits, br.nbits) }

func (br *bitReader) take(n uint) uint32 {
	if br.nbits < n {
		br.refill()
	}
	v := uint32(br.bits & (1<<n - 1))
	br.bits, br.nbits = br.bits>>n, br.nbits-n
	return v
}

// consumed is the number of bits read so far.
func (br *bitReader) consumed() int { return 8*br.pos - int(br.nbits) }

// stored copies a stored block's bytes to dst[di:].
func (br *bitReader) stored(dst []byte, di int) (int, error) {
	p := br.pos - int(br.nbits/8) // the next whole byte
	if p+4 > len(br.src) {
		return di, errPastPayload
	}
	n := int(binary.LittleEndian.Uint16(br.src[p:]))
	if ^uint16(n) != binary.LittleEndian.Uint16(br.src[p+2:]) {
		return di, errSymbol
	}
	if p += 4; n > len(br.src)-p {
		return di, errPastPayload
	}
	if n > len(dst)-di {
		return di, errOutputLen
	}
	copy(dst[di:], br.src[p:p+n])
	br.pos, br.bits, br.nbits = p+n, 0, 0
	return di + n, nil
}

// huffman decodes a Huffman-coded block into dst[di:] with the tables lt
// and dt (root distBits), the reader in locals; one refill covers a whole
// match (15+5 bits of length, 15+13 of distance).
func (br *bitReader) huffman(dst []byte, di int, lt, dt []uint32, distBits uint) (int, error) {
	src := br.src
	acc, nbits, pos := br.bits, br.nbits, br.pos
	for {
		if nbits < 48 {
			pos, acc, nbits = refill(src, pos, acc, nbits)
		}
		e := lt[acc&(1<<litRoot-1)]
		if e&kindMask == kindLink {
			e = lt[e>>16+uint32(acc>>litRoot)&(1<<(e&15)-1)]
		}
		acc, nbits = acc>>(e&15), nbits-uint(e&15)
		switch e & kindMask {
		case kindLit:
			if di >= len(dst) {
				return di, errOutputLen
			}
			dst[di] = byte(e >> 16)
			di++
		case kindBase:
			x := uint(e>>8) & 15
			length := int(e>>16) + int(acc&(1<<x-1))
			acc, nbits = acc>>x, nbits-x
			d := dt[acc&(1<<distBits-1)]
			if d&kindMask == kindLink {
				d = dt[d>>16+uint32(acc>>distBits)&(1<<(d&15)-1)]
			}
			if d&kindMask != kindBase {
				return di, errSymbol
			}
			acc, nbits = acc>>(d&15), nbits-uint(d&15)
			x = uint(d>>8) & 15
			dist := int(d>>16) + int(acc&(1<<x-1))
			acc, nbits = acc>>x, nbits-x
			if dist > di {
				return di, errDistance
			}
			if length > len(dst)-di {
				return di, errOutputLen
			}
			if dist >= 8 && di+length+8 <= len(dst) {
				// Eight bytes at a time, each read from output already
				// written; the overshoot is overwritten by what follows.
				for i := 0; i < length; i += 8 {
					binary.LittleEndian.PutUint64(dst[di+i:], binary.LittleEndian.Uint64(dst[di-dist+i:]))
				}
			} else {
				for i := range length {
					dst[di+i] = dst[di-dist+i]
				}
			}
			di += length
		case kindEOB:
			br.bits, br.nbits, br.pos = acc, nbits, pos
			return di, nil
		default:
			return di, errSymbol
		}
	}
}
