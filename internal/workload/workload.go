package workload

import (
	"bytes"
	"math/rand"
)

// Kind selects the payload family.
type Kind int

const (
	// TextLike is redundant, structured data (serialized objects,
	// numerical records with repeating structure). It compresses well.
	TextLike Kind = iota
	// Grid is the evaluation workload: mostly structured records with a
	// fraction of high-entropy numeric payload, chosen so that DEFLATE
	// level 1 achieves a ratio in the same regime as the paper's
	// measurements (roughly 3.5:1 — the paper's Amsterdam–Rennes run
	// turns a 0.9 MB/s wire into ~3.25 MB/s of application data).
	Grid
	// Mixed is half structured, half random (e.g. floating point fields
	// with noisy mantissas). It compresses moderately.
	Mixed
	// Random is incompressible data (already compressed or encrypted
	// input).
	Random
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case TextLike:
		return "text-like"
	case Grid:
		return "grid-records"
	case Mixed:
		return "mixed"
	case Random:
		return "random"
	default:
		return "unknown"
	}
}

// vocabulary used by the text-like generator: field names and values of
// the kind a grid application's serialized records contain.
var vocabulary = []string{
	"timestep", "particle", "velocity", "position", "energy", "density",
	"iteration", "residual", "boundary", "partition", "node", "result",
	"0.000000", "1.000000", "3.141592", "2.718281", "-1.000000",
}

// Generate returns n bytes of the requested payload kind, deterministic
// for a given seed.
func Generate(kind Kind, n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	switch kind {
	case TextLike:
		return generateText(rng, n)
	case Grid:
		// Nine parts structured records, one part incompressible numeric
		// payload, interleaved in small chunks.
		var buf bytes.Buffer
		buf.Grow(n)
		const chunk = 512
		for buf.Len() < n {
			buf.Write(generateText(rng, 9*chunk))
			noise := make([]byte, chunk)
			rng.Read(noise)
			buf.Write(noise)
		}
		return buf.Bytes()[:n]
	case Mixed:
		half := n / 2
		out := generateText(rng, half)
		noise := make([]byte, n-half)
		rng.Read(noise)
		// Interleave structured and noisy chunks, as real records do.
		var buf bytes.Buffer
		buf.Grow(n)
		chunk := 512
		for len(out) > 0 || len(noise) > 0 {
			k := chunk
			if k > len(out) {
				k = len(out)
			}
			buf.Write(out[:k])
			out = out[k:]
			k = chunk
			if k > len(noise) {
				k = len(noise)
			}
			buf.Write(noise[:k])
			noise = noise[k:]
		}
		return buf.Bytes()[:n]
	default:
		out := make([]byte, n)
		rng.Read(out)
		return out
	}
}

func generateText(rng *rand.Rand, n int) []byte {
	var buf bytes.Buffer
	buf.Grow(n + 32)
	record := 0
	for buf.Len() < n {
		record++
		buf.WriteString("record=")
		writeInt(&buf, record)
		for i := 0; i < 6; i++ {
			buf.WriteByte(' ')
			buf.WriteString(vocabulary[rng.Intn(len(vocabulary))])
			buf.WriteByte('=')
			buf.WriteString(vocabulary[rng.Intn(len(vocabulary))])
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()[:n]
}

func writeInt(buf *bytes.Buffer, v int) {
	var tmp [20]byte
	i := len(tmp)
	if v == 0 {
		buf.WriteByte('0')
		return
	}
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	buf.Write(tmp[i:])
}
