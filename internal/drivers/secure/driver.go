// Package secure is the "secure" filtering driver: authenticated
// encryption as a composable member of the driver stack ("the encryption
// driver using SSL" the paper names as future work in Section 4.4,
// realised with an AEAD so it composes freely: zip/secure/multi/tcpblk is
// a valid stack). Naming it in a port type's stack is the one way to ask
// for a sealed data link: the driver seals the byte stream inside the
// stack, on whatever connection establishment produced, which lets
// compression run on plaintext while parallel sub-streams each carry
// independently sealed records.
//
// Key material, in order of precedence: key=<64 hex chars>, then
// psk=<passphrase> (hashed), then driver.Env.LinkKey — the key the two
// nodes' identities agreed on the service link (identity.LinkKeys.Export),
// never transmitted and held by exactly the authenticated peer. With none
// of the three both builders fail with ErrNoKey before anything below is
// built; there is no plaintext fallback. psk= and key= are as secret as
// the two configuration files they are written in (the stack string never
// crosses the wire): the one key source for deployments without identities.
//
// Wire format (per link, i.e. per driver instance):
//
//	salt[16]                                  once, first bytes on the stream
//	{ ctLen[4 big-endian] ct[ctLen] }*        sealed records
//
// Each link derives its own record key as SHA-256(master key ‖ salt), so
// the per-record counter nonces can never collide across the many links
// that share one master key. Sealing and opening reuse the AEAD codec
// state and work in pooled buffers: a record is sealed into the buffer
// that travels down the stack by ownership transfer, and opened in place
// in the buffer the ciphertext was read into.
//
// Nonce-reuse safety across reconnects and Resume: the record nonce is
// a plain counter that restarts at 1 on every SealOutput — including
// the rebuilt driver stack of a link re-established after a relay
// failover (relay.Client.Resume) or an application-level reconnect.
// Restarting the counter is safe *only* because every SealOutput draws
// a fresh random 128-bit salt in NewSealOutput and therefore seals
// under a fresh derived key: the (key, nonce) pair is never repeated
// even though the nonce sequence is. Nothing may ever reuse a
// SealOutput (or its salt) across sessions — the regression test
// TestResumedSessionNeverReusesKeyNonce pins this invariant down.
package secure

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"

	"netibis/internal/driver"
	"netibis/internal/wire"
)

// DriverName is the registered name of the AEAD filtering driver.
const DriverName = "secure"

// DefaultSealBlock is the default plaintext record size. It matches the
// TCP_Block default so a sealed record still bypasses the aggregation
// buffer below.
const DefaultSealBlock = 64 * 1024

// saltSize is the per-link key-derivation salt.
const saltSize = 16

// recordLenSize is the ciphertext length prefix.
const recordLenSize = 4

// ErrNoKey is returned when the secure driver has no key material: no
// key= or psk= in the stack, no 32-byte identity-derived key on the link.
var ErrNoKey = errors.New("secure: no key (no key= or psk= in the stack, no identity-keyed link)")

func init() {
	driver.Register(DriverName, buildDriverOutput, buildDriverInput)
}

// masterKey selects the 32-byte master key: key=, psk= (hashed), link key.
func masterKey(spec driver.Spec, env *driver.Env) ([]byte, error) {
	if h := spec.Param("key", ""); h != "" {
		key, err := hex.DecodeString(h)
		if err != nil || len(key) != 32 {
			return nil, fmt.Errorf("secure: key= must be 64 hex characters (32 bytes)")
		}
		return key, nil
	}
	if psk := spec.Param("psk", ""); psk != "" {
		sum := sha256.Sum256([]byte(psk))
		return sum[:], nil
	}
	if env != nil && len(env.LinkKey) == 32 {
		return env.LinkKey, nil
	}
	return nil, ErrNoKey
}

func buildDriverOutput(spec driver.Spec, env *driver.Env, lower func() (driver.Output, error)) (driver.Output, error) {
	if lower == nil {
		return nil, errors.New("secure: requires a lower driver (it is a filtering driver)")
	}
	key, err := masterKey(spec, env)
	if err != nil {
		return nil, err
	}
	sub, err := lower()
	if err != nil {
		return nil, err
	}
	out, err := NewSealOutput(sub, key, spec.IntParam("block", DefaultSealBlock))
	if err != nil {
		sub.Close()
		return nil, err
	}
	return out, nil
}

func buildDriverInput(spec driver.Spec, env *driver.Env, lower func() (driver.Input, error)) (driver.Input, error) {
	if lower == nil {
		return nil, errors.New("secure: requires a lower driver (it is a filtering driver)")
	}
	key, err := masterKey(spec, env)
	if err != nil {
		return nil, err
	}
	sub, err := lower()
	if err != nil {
		return nil, err
	}
	return NewSealInput(sub, key, spec.IntParam("block", DefaultSealBlock)), nil
}

// linkAEAD derives the per-link record cipher from the master key and
// the link salt.
func linkAEAD(master, salt []byte) (cipher.AEAD, error) {
	mac := sha256.New()
	mac.Write(master)
	mac.Write(salt)
	block, err := aes.NewCipher(mac.Sum(nil))
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// SealOutput is the sealing side of the secure driver.
type SealOutput struct {
	mu        sync.Mutex
	lower     driver.Output
	aead      cipher.AEAD
	salt      [saltSize]byte
	saltSent  bool
	blockSize int
	buf       []byte
	seq       uint64
	nonce     [12]byte
	closed    bool
}

// NewSealOutput creates a sealing output over lower with the given
// 32-byte master key.
func NewSealOutput(lower driver.Output, master []byte, blockSize int) (*SealOutput, error) {
	if blockSize <= 0 {
		blockSize = DefaultSealBlock
	}
	o := &SealOutput{lower: lower, blockSize: blockSize, buf: make([]byte, 0, blockSize)}
	if _, err := rand.Read(o.salt[:]); err != nil {
		return nil, err
	}
	aead, err := linkAEAD(master, o.salt[:])
	if err != nil {
		return nil, err
	}
	o.aead = aead
	return o, nil
}

// Write implements driver.Output.
func (o *SealOutput) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return 0, io.ErrClosedPipe
	}
	total := 0
	for len(p) > 0 {
		space := o.blockSize - len(o.buf)
		if space == 0 {
			if err := o.emitLocked(); err != nil {
				return total, err
			}
			continue
		}
		n := len(p)
		if n > space {
			n = space
		}
		o.buf = append(o.buf, p[:n]...)
		p = p[n:]
		total += n
	}
	return total, nil
}

// emitLocked seals the buffered plaintext into a pooled record buffer
// and hands ownership to the lower driver.
func (o *SealOutput) emitLocked() error {
	if len(o.buf) == 0 {
		return nil
	}
	if !o.saltSent {
		if _, err := o.lower.Write(o.salt[:]); err != nil {
			return err
		}
		o.saltSent = true
	}
	o.seq++
	binary.BigEndian.PutUint64(o.nonce[4:], o.seq)
	out := wire.GetBuf(recordLenSize + len(o.buf) + o.aead.Overhead())
	ct := o.aead.Seal(out.Bytes()[recordLenSize:recordLenSize], o.nonce[:], o.buf, nil)
	binary.BigEndian.PutUint32(out.Bytes()[:recordLenSize], uint32(len(ct)))
	out.SetLen(recordLenSize + len(ct))
	o.buf = o.buf[:0]
	return driver.WriteBuf(o.lower, out)
}

// Flush implements driver.Output.
func (o *SealOutput) Flush() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return io.ErrClosedPipe
	}
	if err := o.emitLocked(); err != nil {
		return err
	}
	return o.lower.Flush()
}

// Close seals pending data and closes the lower driver.
func (o *SealOutput) Close() error {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return nil
	}
	err := o.emitLocked()
	o.closed = true
	o.mu.Unlock()
	if ferr := o.lower.Flush(); err == nil {
		err = ferr
	}
	if cerr := o.lower.Close(); err == nil {
		err = cerr
	}
	return err
}

// SealInput is the opening side of the secure driver.
type SealInput struct {
	mu        sync.Mutex
	lower     driver.Input
	master    []byte
	aead      cipher.AEAD // nil until the salt arrived
	blockSize int
	seq       uint64
	nonce     [12]byte
	lenBuf    [recordLenSize]byte
	current   driver.BufCursor

	closeOnce sync.Once
	closed    chan struct{}
}

// NewSealInput creates an opening input over lower with the given
// 32-byte master key. blockSize is the sender's plaintext record size
// (both ends parse the same stack string); a longer record is refused.
func NewSealInput(lower driver.Input, master []byte, blockSize int) *SealInput {
	if blockSize <= 0 {
		blockSize = DefaultSealBlock
	}
	return &SealInput{lower: lower, master: append([]byte(nil), master...), blockSize: blockSize, closed: make(chan struct{})}
}

// Read implements driver.Input.
func (in *SealInput) Read(p []byte) (int, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for {
		if in.current.Loaded() {
			return in.current.Copy(p), nil
		}
		select {
		case <-in.closed:
			return 0, io.ErrClosedPipe
		default:
		}
		if err := in.fillLocked(); err != nil {
			return 0, err
		}
	}
}

// ReadBuf implements driver.BufReader.
func (in *SealInput) ReadBuf() (*wire.Buf, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for {
		if in.current.Loaded() {
			return in.current.Take(), nil
		}
		select {
		case <-in.closed:
			return nil, io.ErrClosedPipe
		default:
		}
		if err := in.fillLocked(); err != nil {
			return nil, err
		}
	}
}

// fillLocked reads and opens the next sealed record in place in its
// pooled buffer.
func (in *SealInput) fillLocked() error {
	if in.aead == nil {
		var salt [saltSize]byte
		if _, err := io.ReadFull(in.lower, salt[:]); err != nil {
			if err == io.ErrUnexpectedEOF {
				return io.EOF
			}
			return err
		}
		aead, err := linkAEAD(in.master, salt[:])
		if err != nil {
			return err
		}
		in.aead = aead
	}
	if _, err := io.ReadFull(in.lower, in.lenBuf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return io.EOF
		}
		return err
	}
	// Four unauthenticated bytes size the buffer below: hold them to what
	// a conforming sender emits, one block plus the AEAD tag.
	ctLen := int64(binary.BigEndian.Uint32(in.lenBuf[:]))
	if tag := int64(in.aead.Overhead()); ctLen < tag || ctLen > int64(in.blockSize)+tag {
		return fmt.Errorf("secure: record length %d out of range", ctLen)
	}
	rec := wire.GetBuf(int(ctLen))
	if _, err := io.ReadFull(in.lower, rec.Bytes()); err != nil {
		rec.Release()
		return fmt.Errorf("secure: truncated record: %w", err)
	}
	in.seq++
	binary.BigEndian.PutUint64(in.nonce[4:], in.seq)
	pt, err := in.aead.Open(rec.Bytes()[:0], in.nonce[:], rec.Bytes(), nil)
	if err != nil {
		rec.Release()
		return fmt.Errorf("secure: record authentication failed: %w", err)
	}
	rec.SetLen(len(pt))
	in.current.Load(rec) // empty records are released and skipped
	return nil
}

// Close closes the lower driver before taking the mutex (so a blocked
// Read is unblocked by the lower close), then recycles a partially
// consumed record.
func (in *SealInput) Close() error {
	var err error
	in.closeOnce.Do(func() {
		close(in.closed)
		err = in.lower.Close()
		in.mu.Lock()
		in.current.Drop()
		in.mu.Unlock()
	})
	return err
}
