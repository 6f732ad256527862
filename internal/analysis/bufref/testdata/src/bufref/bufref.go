// Fixture package for the bufref analyzer: each function exercises one
// ownership shape, flagged or allowed. The `// want` comments are
// matched by internal/analysis/analysistest.
package bufref

import (
	"errors"

	"netibis/internal/wire"
)

// WriteBuf mimics the driver sink: consuming by contract (matched by
// name, like every BufWriter implementation).
func WriteBuf(b *wire.Buf) error {
	b.Release()
	return nil
}

// route mimics the relay borrow-and-retain contract.
func route(b *wire.Buf) {}

// stash has no known contract: ownership escapes into it.
func stash(b *wire.Buf) {}

type queue struct{}

// Enqueue mimics egress scheduling: consumes the reference the caller
// retained for it.
func (q *queue) Enqueue(b *wire.Buf) {}

func errorLeak() error {
	b := wire.GetBuf(64)
	if b.Len() == 0 {
		return errors.New("empty") // want "error return leaks b acquired via wire.GetBuf"
	}
	b.Release()
	return nil
}

func errBranchIsNil(r *wire.Reader) error {
	_, _, payload, err := r.ReadFrameBuf()
	if err != nil {
		return err // allowed: payload is nil on the acquisition's error branch
	}
	payload.Release()
	return nil
}

func nextHandOut(r *wire.Reader) error {
	b, body, err := r.Next(64)
	if err != nil {
		return err // allowed: the unit is nil on the acquisition's error branch
	}
	if len(body) == 0 {
		return errors.New("empty") // want "error return leaks b acquired via Next"
	}
	b.Release()
	return nil
}

func nextReleasedTwice(r *wire.Reader) {
	b, _, err := r.Next(64)
	if err != nil {
		return
	}
	b.Release()
	b.Release() // want "double release of b: already released at"
}

func doubleRelease(b *wire.Buf) {
	b.Release()
	b.Release() // want "double release of b: already released at"
}

func useAfterConsume(b *wire.Buf) int {
	_ = WriteBuf(b)
	return b.Len() // want "use of b after it was consumed by WriteBuf at"
}

func sendThenRelease(ch chan *wire.Buf, b *wire.Buf) {
	ch <- b
	b.Release() // want "b used after being consumed by channel send at"
}

func releaseInLoop(items []int) {
	b := wire.GetBuf(64)
	for range items {
		b.Release() // want "b acquired before the loop is released inside it"
	}
}

func releaseThenBreak(items []int) {
	b := wire.GetBuf(64)
	for range items {
		b.Release() // allowed: the next statement leaves the loop
		break
	}
}

func batchRelease(parts [3]int) {
	b := wire.GetBuf(64)
	b.Retain()
	b.Retain() // one reference per fragment of the batch
	route(b)   // the batched write borrows the frame
	for range parts {
		b.Release() // allowed: the batch holds one reference per iteration
	}
}

func perIterationAcquire(items []int) {
	for range items {
		b := wire.GetBuf(32)
		b.Release() // allowed: acquired fresh each iteration
	}
}

func overwriteHeld() {
	b := wire.GetBuf(16)
	b = wire.GetBuf(32) // want "b overwritten while still holding the reference acquired via wire.GetBuf"
	b.Release()
}

func retainAfterRelease(b *wire.Buf) {
	b.Release()
	b.Retain() // want "b retained after being consumed by Release at"
}

func retainForEnqueue(q *queue, b *wire.Buf) {
	b.Retain()
	q.Enqueue(b) // allowed: Enqueue consumes the retained reference
}

func routeBorrows(b *wire.Buf) int {
	route(b)
	return b.Len() // allowed: route retains internally, our reference stays valid
}

func escapeToUnknown(b *wire.Buf) {
	stash(b)
	b.Release() // allowed: unknown callee, tracking stopped rather than guessed
}

func deferredRelease() error {
	b := wire.GetBuf(8)
	defer b.Release()
	if b.Len() == 0 {
		return errors.New("empty") // allowed: the deferred release covers every path
	}
	return nil
}
