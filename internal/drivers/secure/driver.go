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
// that share one master key. Each byte is touched once per direction
// beyond the AEAD pass. A block-sized write is sealed straight from the
// writer's slice into the pooled buffer that travels down the stack by
// ownership transfer; smaller writes aggregate into a block first. The
// input reads records through a wire.Reader whose read-ahead is one
// record long (see wire's package doc), and opens each from there into
// the reader's slice when the plaintext fits it, otherwise into a pooled
// buffer of its own.
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

// tagSize is the AES-GCM authentication tag a record's ciphertext
// carries: a record is at most recordLenSize + block + tagSize bytes,
// the size of the reader's read-ahead buffer.
const tagSize = 16

// ErrNoKey is returned when the secure driver has no key material: no
// key= or psk= in the stack, no 32-byte identity-derived key on the link.
var ErrNoKey = errors.New("secure: no key (no key= or psk= in the stack, no identity-keyed link)")

func init() {
	driver.Register(DriverName, buildDriverOutput, buildDriverInput)
}

// masterKey selects the 32-byte master key: key=, psk= (hashed), link key.
// key and psk are the layer's only parameters; both builders check them
// here, before anything below is built.
func masterKey(spec driver.Spec, env *driver.Env) ([]byte, error) {
	if err := driver.CheckParams(spec, "key", "psk"); err != nil {
		return nil, err
	}
	if h := spec.Param("key", ""); h != "" {
		key, err := hex.DecodeString(h)
		if err != nil || len(key) != 32 {
			return nil, fmt.Errorf("%w: secure: key= must be 64 hex characters (32 bytes)", driver.ErrBadParam)
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
	out, err := NewSealOutput(sub, key, DefaultSealBlock)
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
	return NewSealInput(sub, key, DefaultSealBlock), nil
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

// SealOutput is the sealing side of the secure driver: the block
// pipeline with one sealed record per block.
type SealOutput struct {
	*driver.BlockOutput
	lower    driver.Output
	aead     cipher.AEAD
	salt     [saltSize]byte
	saltSent bool
	seq      uint64
	nonce    [12]byte
}

// NewSealOutput creates a sealing output over lower with the given
// 32-byte master key.
func NewSealOutput(lower driver.Output, master []byte, blockSize int) (*SealOutput, error) {
	if blockSize <= 0 {
		blockSize = DefaultSealBlock
	}
	o := &SealOutput{lower: lower}
	if _, err := rand.Read(o.salt[:]); err != nil {
		return nil, err
	}
	aead, err := linkAEAD(master, o.salt[:])
	if err != nil {
		return nil, err
	}
	o.aead = aead
	// Writes of at least one block bypass the aggregation buffer, a block
	// at a time, so every record still holds at most one block.
	o.BlockOutput = driver.NewBlockOutput(lower, blockSize, blockSize, blockSize, false, o.emit)
	return o, nil
}

// emit seals the pending bytes (own) as a record of their own, then the
// block or bypassing piece (body) as the next. Nothing rides (lead is
// empty): a record is sealed from one contiguous slice.
func (o *SealOutput) emit(own, _, body []byte) (int, error) {
	if !o.saltSent {
		if _, err := o.lower.Write(o.salt[:]); err != nil {
			return 0, err
		}
		o.saltSent = true
	}
	n := 0
	if len(own) > 0 {
		k, err := o.seal(own)
		if err != nil {
			return 0, err
		}
		n = k
	}
	k, err := o.seal(body)
	return n + k, err
}

// seal seals one record into a pooled buffer and hands ownership to the
// lower driver.
func (o *SealOutput) seal(pt []byte) (int, error) {
	o.seq++
	binary.BigEndian.PutUint64(o.nonce[4:], o.seq)
	out := wire.GetBuf(recordLenSize + len(pt) + o.aead.Overhead())
	ct := o.aead.Seal(out.Bytes()[recordLenSize:recordLenSize], o.nonce[:], pt, nil)
	binary.BigEndian.PutUint32(out.Bytes()[:recordLenSize], uint32(len(ct)))
	out.SetLen(recordLenSize + len(ct))
	return out.Len(), driver.WriteBuf(o.lower, out)
}

// SealInput is the opening side of the secure driver.
type SealInput struct {
	*driver.BlockInput
	r         *wire.Reader // read-ahead of one whole record
	master    []byte
	aead      cipher.AEAD // nil until the salt arrived
	blockSize int
	seq       uint64
	nonce     [12]byte
}

// NewSealInput creates an opening input over lower with the given
// 32-byte master key. blockSize is the sender's plaintext record size
// (DefaultSealBlock on every link a stack builds); a longer record is
// refused.
func NewSealInput(lower driver.Input, master []byte, blockSize int) *SealInput {
	if blockSize <= 0 {
		blockSize = DefaultSealBlock
	}
	in := &SealInput{
		r:         wire.NewUnitReader(lower, recordLenSize+blockSize+tagSize),
		master:    append([]byte(nil), master...),
		blockSize: blockSize,
	}
	in.BlockInput = driver.NewBlockInput(lower, in.fill)
	return in
}

// fill reads the next sealed record and opens it: straight into the
// caller's slice when the plaintext fits it, otherwise into a pooled
// buffer. Either way nothing is delivered unless the record
// authenticates. A stream cut between records, or inside a salt or a
// length prefix, ends cleanly.
func (in *SealInput) fill(direct []byte) (int, *wire.Buf, error) {
	need := recordLenSize
	if in.aead == nil {
		need += saltSize
	}
	hdr, err := in.r.Peek(need)
	if err == io.ErrUnexpectedEOF {
		err = io.EOF
	}
	if err != nil {
		return 0, nil, err
	}
	if in.aead == nil {
		if in.aead, err = linkAEAD(in.master, hdr[:saltSize]); err != nil {
			return 0, nil, err
		}
		in.r.Discard(saltSize)
		hdr = hdr[saltSize:]
	}
	// Four unauthenticated bytes say how much more to read: hold them to
	// what a conforming sender emits, one block plus the AEAD tag.
	ctLen := int64(binary.BigEndian.Uint32(hdr))
	if ctLen < tagSize || ctLen > int64(in.blockSize)+tagSize {
		return 0, nil, fmt.Errorf("secure: record length %d out of range", ctLen)
	}
	in.r.Discard(recordLenSize)
	ct, err := in.r.Peek(int(ctLen))
	if err != nil {
		return 0, nil, fmt.Errorf("secure: truncated record: %w", err)
	}
	in.seq++
	binary.BigEndian.PutUint64(in.nonce[4:], in.seq)
	var rec *wire.Buf
	dst := direct[:0]
	if ptLen := int(ctLen) - tagSize; ptLen > len(direct) {
		rec = wire.GetBuf(ptLen)
		dst = rec.Bytes()[:0]
	}
	pt, err := in.aead.Open(dst, in.nonce[:], ct, nil)
	in.r.Discard(int(ctLen))
	if err != nil {
		if rec != nil {
			rec.Release()
		}
		return 0, nil, fmt.Errorf("secure: record authentication failed: %w", err)
	}
	if rec == nil {
		return len(pt), nil, nil // the pipeline skips an empty record
	}
	return 0, rec, nil
}
