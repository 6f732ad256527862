package zip

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"testing"

	"netibis/internal/testutil"
	"netibis/internal/workload"
)

// interopInputs are the payload families the codec is checked on.
func interopInputs(n int) map[string][]byte {
	rng := rand.New(rand.NewSource(int64(n)))
	dna := make([]byte, n)
	for i := range dna {
		dna[i] = "ACGT"[rng.Intn(4)]
	}
	return map[string][]byte{
		"grid":   workload.Generate(workload.Grid, n, 3),
		"text":   workload.Generate(workload.TextLike, n, 3),
		"mixed":  workload.Generate(workload.Mixed, n, 3),
		"random": workload.Generate(workload.Random, n, 3),
		"zeros":  make([]byte, n),
		"acgt":   dna,
	}
}

var interopSizes = []int{0, 1, 2, 3, 5, 13, 4 << 10, 64<<10 - 1, 64 << 10, 64<<10 + 1, 128 << 10, 300 << 10}

// TestDeflateInterop holds the wire format to raw DEFLATE both ways:
// compress/flate decodes what the encoder writes, and the decoder reads
// what compress/flate writes at every level.
func TestDeflateInterop(t *testing.T) {
	for _, n := range interopSizes {
		for name, src := range interopInputs(n) {
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) {
				enc := make([]byte, deflateBound(n))
				m, err := deflateCodec{}.Compress(enc, src)
				if err != nil {
					t.Fatalf("compress: %v", err)
				}
				got, err := io.ReadAll(flate.NewReader(bytes.NewReader(enc[:m])))
				if err != nil || !bytes.Equal(got, src) {
					t.Fatalf("compress/flate decoding our %d bytes: %d bytes, %v", m, len(got), err)
				}
				dst := make([]byte, n)
				for level := flate.HuffmanOnly; level <= flate.BestCompression; level++ {
					var b bytes.Buffer
					w, _ := flate.NewWriter(&b, level)
					w.Write(src)
					w.Close()
					clear(dst)
					if err := inflate(dst, b.Bytes()); err != nil || !bytes.Equal(dst, src) {
						t.Fatalf("decoding compress/flate level %d: %v", level, err)
					}
				}
			})
		}
	}
}

// seqBlock is a block as the finder would leave it: the bytes and the
// sequences that produce them.
type seqBlock struct {
	src  []byte
	seqs []deflateSeq
	lit  int // literals since the last match
}

func (b *seqBlock) literal(c byte) {
	b.src = append(b.src, c)
	b.lit++
}

func (b *seqBlock) match(n, dist int) {
	for range n {
		b.src = append(b.src, b.src[len(b.src)-dist])
	}
	b.seqs = append(b.seqs, deflateSeq{lit: uint16(b.lit), mlen: uint16(n), dist: uint16(dist),
		lc: lengthCode[n], dc: distCodes[min(dist-1, 256+(dist-1)>>7)]})
	b.lit = 0
}

// write counts the block's symbols as match does and writes it as one
// final block through writeBlock.
func (b *seqBlock) write(e *deflateEncoder) []byte {
	clear(e.litFreq[:])
	clear(e.distFreq[:])
	e.extraBits = 0
	e.seqs = append(b.seqs[:len(b.seqs):len(b.seqs)], deflateSeq{lit: uint16(b.lit)})
	p := 0
	for _, s := range e.seqs {
		for _, c := range b.src[p : p+int(s.lit)] {
			e.litFreq[c]++
		}
		p += int(s.lit) + int(s.mlen)
		if s.mlen > 0 {
			e.litFreq[endOfBlock+1+int(s.lc)]++
			e.distFreq[s.dc]++
			e.extraBits += int(lengthExtra[s.lc] + distExtra[s.dc])
		}
	}
	e.litFreq[endOfBlock] = 1
	w := bitWriter{dst: make([]byte, deflateBound(len(b.src)))}
	if !e.writeBlock(&w, b.src, 0, len(b.src), true) {
		panic("seqBlock: no room")
	}
	w.put(0, (8-w.nbits)&7)
	return w.dst[:w.n]
}

// TestDeflateLongCodes writes blocks whose codes run as long as DEFLATE
// allows where they meet: a one-off long match at a long distance, its
// length and distance codes among the rarest, then a one-off literal or
// the end of the block. Each of up to 7 bits pending before the match is
// covered by the number of leading literals.
func TestDeflateLongCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tail := range []string{"literal", "end of block"} {
		for lead := range 16 {
			var b seqBlock
			// Geometric literals (byte k about 2^-(k+1) of them) and
			// distance codes 28 and 13-0 at Fibonacci frequencies give the
			// rare symbols deep codes.
			for range 55000 + lead {
				b.literal(byte(bits.TrailingZeros32(rng.Uint32() | 1<<12)))
			}
			for c, f0, f1 := 13, 1, 2; c >= 0; c, f0, f1 = c-1, f1, f0+f1 {
				for range f0 {
					b.match(3, int(distBase[c]))
				}
			}
			b.match(200, 20000) // length code 282, distance code 28
			if tail == "literal" {
				b.literal(0xff)
			}
			e := new(deflateEncoder)
			enc := b.write(e)
			if enc[0]>>1&3 != 2 {
				t.Fatalf("%s, %d leading: block type %d, want dynamic", tail, lead, enc[0]>>1&3)
			}
			last := e.lit.lens[endOfBlock]
			if tail == "literal" {
				last = e.lit.lens[0xff]
			}
			if deep := int(e.lit.lens[endOfBlock+1+int(lengthCode[200])]) + int(e.dist.lens[28]) + int(last); deep+5+13+7 <= 64 {
				t.Fatalf("%s, %d leading: codes of %d bits cannot reach past 64 pending bits", tail, lead, deep)
			}
			got, err := io.ReadAll(flate.NewReader(bytes.NewReader(enc)))
			if err != nil || !bytes.Equal(got, b.src) {
				t.Fatalf("%s, %d leading: compress/flate decoded %d of %d bytes: %v", tail, lead, len(got), len(b.src), err)
			}
			dst := make([]byte, len(b.src))
			if err := inflate(dst, enc); err != nil || !bytes.Equal(dst, b.src) {
				t.Fatalf("%s, %d leading: inflate: %v", tail, lead, err)
			}
		}
	}
}

// TestDeflateRatioGrid guards the ratio-bound workloads (wan_stacks,
// connect_matrix), where zip goodput is link × ratio: on the Grid
// workload the encoder must compress at least as well as compress/flate
// level 1, which it replaced, and keep at least half of level 6's ratio
// — the paper's case for level 1 being the only level worth running.
func TestDeflateRatioGrid(t *testing.T) {
	flateRatio := func(src []byte, level int) float64 {
		var b bytes.Buffer
		w, _ := flate.NewWriter(&b, level)
		w.Write(src)
		w.Close()
		return float64(len(src)) / float64(b.Len())
	}
	for _, seed := range []int64{1, 7, 61} {
		for _, n := range []int{64 << 10, 128 << 10} {
			src := workload.Generate(workload.Grid, n, seed)
			enc := make([]byte, deflateBound(n))
			m, err := deflateCodec{}.Compress(enc, src)
			if err != nil {
				t.Fatal(err)
			}
			ours, one, six := float64(n)/float64(m), flateRatio(src, flate.BestSpeed), flateRatio(src, 6)
			t.Logf("seed %d, %d KiB: ratio %.3f, compress/flate level 1 %.3f, level 6 %.3f", seed, n>>10, ours, one, six)
			if ours < one {
				t.Errorf("seed %d, %d KiB: ratio %.3f below compress/flate level 1's %.3f", seed, n>>10, ours, one)
			}
			if ours < 0.5*six {
				t.Errorf("seed %d, %d KiB: ratio %.3f under half of compress/flate level 6's %.3f", seed, n>>10, ours, six)
			}
		}
	}
}

// TestDeflateZeroAllocs gates the codec's steady state: with the pools
// warm, compressing and decoding a 64 KiB Grid block allocates nothing.
func TestDeflateZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items under -race, so pooled codec state allocates by design")
	}
	src := workload.Generate(workload.Grid, 64<<10, 7)
	enc := make([]byte, deflateBound(len(src)))
	dst := make([]byte, len(src))
	var err error
	allocs := testing.AllocsPerRun(50, func() {
		var n int
		if n, err = (deflateCodec{}).Compress(enc, src); err == nil {
			err = inflate(dst, enc[:n])
		}
	})
	if err != nil || !bytes.Equal(dst, src) {
		t.Fatalf("round trip: %v", err)
	}
	if allocs != 0 {
		t.Fatalf("compress + decode of a 64 KiB block allocates %.1f objects, want 0", allocs)
	}
}

// TestInflateRejects gives the decoder one stream per way a block can be
// malformed; each must fail with its typed error, never panic.
func TestInflateRejects(t *testing.T) {
	valid := func(level int, src []byte) []byte {
		var b bytes.Buffer
		w, _ := flate.NewWriter(&b, level)
		w.Write(src)
		w.Close()
		return b.Bytes()
	}
	text := []byte("netibis netibis netibis netibis grid grid grid")
	stream := valid(flate.BestSpeed, text)
	for _, tc := range []struct {
		name string
		src  []byte
		n    int
		want error
	}{
		{"empty payload", nil, 0, errNoFinal},
		{"reserved block type", []byte{0x07}, 0, errSymbol},
		{"stored length mismatch", []byte{0x01, 0x05, 0x00, 0xfa, 0xf0}, 5, errSymbol},
		{"stored body cut", []byte{0x01, 0x05, 0x00, 0xfa, 0xff, 'a'}, 5, errPastPayload},
		{"stored body too long", []byte{0x01, 0x02, 0x00, 0xfd, 0xff, 'a', 'b'}, 1, errOutputLen},
		{"no final block", []byte{0x00, 0x00, 0x00, 0xff, 0xff}, 0, errNoFinal},
		// Fixed block: literal 'a', then length 3 (symbol 257) at
		// distance 2 (code 1), with one byte before it.
		{"distance before start", fixedBlock(t, 'a', 257, 1), 4, errDistance},
		{"fixed symbol 286", fixedBlock(t, 286), 0, errSymbol},
		{"fixed distance 30", fixedBlock(t, 'a', 257, 30), 4, errSymbol},
		{"output too long", stream, len(text) - 1, errOutputLen},
		{"output too short", stream, len(text) + 1, errOutputLen},
		{"cut in the last block", stream[:len(stream)-2], len(text), errPastPayload},
		// Dynamic header: HLIT 287 is out of range.
		{"too many literal codes", []byte{0x05 | 30<<3, 0x00}, 0, errSymbol},
		// Dynamic headers whose code-length code is three 1-bit codes
		// (over-subscribed), or a 1-bit and a 2-bit one (incomplete).
		{"over-subscribed code", dynamicCodeLens(t, 1, 1, 1), 0, errHuffmanCode},
		{"incomplete code", dynamicCodeLens(t, 1, 2), 0, errHuffmanCode},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := inflate(make([]byte, tc.n), tc.src)
			if !errors.Is(err, tc.want) || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// fixedBlock assembles a final fixed-Huffman block from literal/length
// symbols, each length symbol followed by its distance code (no extra
// bits are written, so lengths are the base and distances codes 0-3
// are 1-4), then the end-of-block code.
func fixedBlock(t *testing.T, syms ...int) []byte {
	t.Helper()
	w := bitWriter{dst: make([]byte, 64)}
	w.put(1|1<<1, 3)
	for i := 0; i < len(syms); i++ {
		s := syms[i]
		w.put(uint64(fixedLit.codes[s]), uint(fixedLit.lens[s]))
		if s > endOfBlock && s < numLitLen {
			i++
			w.put(uint64(fixedDist.codes[syms[i]]), 5)
		}
	}
	w.put(uint64(fixedLit.codes[endOfBlock]), uint(fixedLit.lens[endOfBlock]))
	w.put(0, (8-w.nbits)&7)
	return w.dst[:w.n]
}

// dynamicCodeLens assembles the start of a final dynamic block whose
// code-length code gives symbols 0, 1, 2, ... the given lengths.
func dynamicCodeLens(t *testing.T, lens ...uint64) []byte {
	t.Helper()
	w := bitWriter{dst: make([]byte, 64)}
	w.put(1|2<<1, 3)
	w.put(0, 5)
	w.put(0, 5)
	w.put(uint64(numCodeLen-4), 4)
	for _, sym := range codeLenOrder {
		l := uint64(0)
		if int(sym) < len(lens) {
			l = lens[sym]
		}
		w.put(l, 3)
	}
	w.put(0, 32)
	w.put(0, (8-w.nbits)&7)
	return w.dst[:w.n]
}

// FuzzInflate holds the decoder to compress/flate on arbitrary bytes and
// a declared length of at most 256 KiB: it never panics, every stream it
// accepts decodes to compress/flate's bytes, and it accepts every stream
// compress/flate decodes to exactly the declared length through a final
// block. tools/gencorpus writes the committed seeds.
func FuzzInflate(f *testing.F) {
	f.Add([]byte{}, uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, declared uint32) {
		n := int(declared % (256<<10 + 1))
		dst := make([]byte, n)
		err := inflate(dst, data)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("untyped error %v", err)
		}
		want, ferr := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(data)), int64(n)+1))
		theirs := ferr == nil && len(want) == n
		switch {
		case err == nil && !theirs:
			t.Fatalf("accepted a stream compress/flate rejects (%d bytes, %v)", len(want), ferr)
		case err == nil && !bytes.Equal(dst, want):
			t.Fatal("decoded bytes differ from compress/flate's")
		case err != nil && theirs:
			t.Fatalf("rejected a stream compress/flate decodes to %d bytes: %v", n, err)
		}
	})
}

// FuzzDeflate holds the encoder to raw DEFLATE on arbitrary bytes: both
// compress/flate and inflate must give back the input.
func FuzzDeflate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("netibis netibis netibis grid grid grid"))
	f.Add(workload.Generate(workload.Mixed, 4<<10, 1))
	f.Fuzz(func(t *testing.T, src []byte) {
		enc := make([]byte, deflateBound(len(src)))
		n, err := deflateCodec{}.Compress(enc, src)
		if err != nil {
			t.Fatalf("compress: %v", err)
		}
		got, err := io.ReadAll(flate.NewReader(bytes.NewReader(enc[:n])))
		if err != nil || !bytes.Equal(got, src) {
			t.Fatalf("compress/flate decoded %d of %d bytes: %v", len(got), len(src), err)
		}
		dst := make([]byte, len(src))
		if err := inflate(dst, enc[:n]); err != nil || !bytes.Equal(dst, src) {
			t.Fatalf("inflate: %v", err)
		}
	})
}
