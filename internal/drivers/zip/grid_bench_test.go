package zip

// Codec benchmarks on the Grid workload — the 9:1 text/noise mix the
// measured data-path suite pushes through the stacks (see
// internal/workload). The text benchmarks in lz_test.go use a more
// compressible corpus; these are the numbers that predict the suite's
// zip and full rows.

import (
	"testing"

	"netibis/internal/workload"
)

// BenchmarkCodecGrid times each codec's encoder and decoder on one
// 64 KiB block and reports the block's compression ratio.
func BenchmarkCodecGrid(b *testing.B) {
	src := workload.Generate(workload.Grid, 64<<10, 7)
	for _, c := range []Codec{deflateCodec{}, lzCodec{}} {
		enc := make([]byte, c.Bound(len(src)))
		n, err := c.Compress(enc, src)
		if err != nil {
			b.Fatal(err)
		}
		ratio := float64(len(src)) / float64(n)
		decode := decoders[c.Flag()].decode
		dst := make([]byte, len(src))
		b.Run(c.Name()+"/compress", func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := c.Compress(enc, src); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(ratio, "ratio")
		})
		b.Run(c.Name()+"/decode", func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			for b.Loop() {
				if err := decode(dst, enc[:n]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}
