package driver

import "netibis/internal/wire"

// BufCursor serves the io.Reader contract of an Input from a sequence
// of owned Bufs: BlockInput loads each decoded block that did not fit the
// caller's slice into the cursor and copies it out piecewise. It
// single-sources the refcount-sensitive consumption logic — release
// exactly once when a block is exhausted or dropped. Not safe for
// concurrent use; callers hold their Input's lock.
type BufCursor struct {
	cur *wire.Buf
	pos int
}

// Loaded reports whether the cursor holds unconsumed bytes.
func (c *BufCursor) Loaded() bool { return c.cur != nil }

// Load hands ownership of b to the cursor. Empty buffers are released
// immediately and leave the cursor unloaded, so callers can loop on
// Loaded after Load.
func (c *BufCursor) Load(b *wire.Buf) {
	if b.Len() == 0 {
		b.Release()
		return
	}
	c.cur, c.pos = b, 0
}

// Copy copies unconsumed bytes into p (the io.Reader final edge),
// releasing the held Buf once it is exhausted. It must only be called
// while Loaded.
func (c *BufCursor) Copy(p []byte) int {
	n := copy(p, c.cur.Bytes()[c.pos:])
	c.pos += n
	if c.pos == c.cur.Len() {
		c.cur.Release()
		c.cur = nil
		c.pos = 0
	}
	return n
}

// Drop releases any held Buf (teardown).
func (c *BufCursor) Drop() {
	if c.cur != nil {
		c.cur.Release()
		c.cur = nil
		c.pos = 0
	}
}
