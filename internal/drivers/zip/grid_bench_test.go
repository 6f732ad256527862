package zip

// Codec benchmarks on the Grid workload — the 9:1 text/noise mix the
// measured data-path suite pushes through the stacks (see
// internal/workload). The text benchmarks in lz_test.go use a more
// compressible corpus. These time the codec alone: the suite's zip and
// full rows also pay the port, the stack's framing and the pipe, so
// they read lower.

import (
	"testing"

	"netibis/internal/workload"
)

// BenchmarkCodecGrid times each codec's encoder and decoder on 64 KiB
// blocks and reports their compression ratio. It cycles through eight
// distinct blocks, overlapping windows of one Grid buffer, as the
// benchmark's payload pool does: a codec that codes one block over and
// over trains the branch predictor on its input and reads faster than it
// codes a stream.
func BenchmarkCodecGrid(b *testing.B) {
	const size, windows = 64 << 10, 8
	const stride = size / windows
	raw := workload.Generate(workload.Grid, size+stride*(windows-1), 7)
	srcs := make([][]byte, windows)
	for i := range srcs {
		srcs[i] = raw[i*stride : i*stride+size]
	}
	for _, c := range []Codec{deflateCodec{}, lzCodec{}} {
		encs := make([][]byte, windows)
		coded := 0
		for i, src := range srcs {
			enc := make([]byte, c.Bound(size))
			n, err := c.Compress(enc, src)
			if err != nil {
				b.Fatal(err)
			}
			encs[i] = enc[:n]
			coded += n
		}
		ratio := float64(size*windows) / float64(coded)
		decode := decoders[c.Flag()].decode
		enc := make([]byte, c.Bound(size))
		dst := make([]byte, size)
		b.Run(c.Name()+"/compress", func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				if _, err := c.Compress(enc, srcs[i%windows]); err != nil {
					b.Fatal(err)
				}
				i++
			}
			b.ReportMetric(ratio, "ratio")
		})
		b.Run(c.Name()+"/decode", func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				if err := decode(dst, encs[i%windows]); err != nil {
					b.Fatal(err)
				}
				i++
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}
