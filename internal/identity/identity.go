// Package identity provides the mesh-wide security foundation of
// NetIbis: Ed25519 node identities with a lightweight trust model, the
// challenge/response handshakes that authenticate relay attachments and
// peer links, end-to-end key agreement for relay-blind routed links, and
// signed name-service records.
//
// The paper's title promises an integrated solution to connectivity,
// performance *and* security. This package is the one identity and the
// one PKI behind it: it secures the routed path, where untrusted
// third-party relays forward every frame, and its link handshake is what
// keys the "secure" driver (package drivers/secure) on data links of
// every establishment method. Its parts:
//
//   - Identity: an Ed25519 keypair bound to a node (or relay) name, with
//     file persistence so daemons keep their identity across restarts.
//   - Authority: a deployment certificate authority whose signature
//     binds a name to a public key ("cert"). Deployments that prefer no
//     CA pin (name, key) pairs directly instead.
//   - TrustStore: the verifier side — a set of trusted CA keys and/or
//     pinned identities. VerifyPeer rejects unknown identities and,
//     crucially, identities whose proven key does not match the claimed
//     name (one node cannot attach as another).
//   - Attach/peer handshake transcripts: nonce-based challenge/response
//     signatures with channel binding, so a captured handshake cannot be
//     replayed against a fresh connection.
//   - Link key agreement: an identity-signed X25519 exchange carried in
//     the routed open/open-OK bodies, deriving per-direction AEAD
//     subkeys. Payload frames sealed under those keys cross any number
//     of relays as ciphertext (see package relay).
//   - Signed records: name-service values wrapped with the registrant's
//     signature, so a registry poisoner cannot redirect establishment.
//
// All primitives come from the Go standard library (crypto/ed25519,
// crypto/ecdh, crypto/hkdf); there is no external dependency.
package identity

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"netibis/internal/wire"
)

// Typed errors. Every authentication failure maps to one of these, so
// callers (and the adversarial test suite) can assert the precise
// failure mode rather than string-match.
var (
	// ErrNoIdentity is returned when an operation needs a local identity
	// and none is configured.
	ErrNoIdentity = errors.New("identity: no local identity configured")
	// ErrUnknownIdentity is returned when a peer's key is neither pinned
	// nor certified by a trusted authority.
	ErrUnknownIdentity = errors.New("identity: unknown identity (not pinned, no trusted authority signature)")
	// ErrIdentityMismatch is returned when a peer proves possession of a
	// valid key that is bound to a *different* name than the one it
	// claims — the spoofed-attach case.
	ErrIdentityMismatch = errors.New("identity: claimed name does not match the proven key's binding")
	// ErrBadSignature is returned when a handshake or record signature
	// does not verify.
	ErrBadSignature = errors.New("identity: signature verification failed")
	// ErrReplayedNonce is returned when a handshake response echoes a
	// nonce other than the one issued for this connection — a captured
	// exchange replayed against a fresh challenge.
	ErrReplayedNonce = errors.New("identity: handshake nonce replayed")
	// ErrAuthRequired is returned when the peer did not authenticate and
	// local policy demands it.
	ErrAuthRequired = errors.New("identity: authentication required but peer sent none")
	// ErrDowngraded is returned when a secure capability this side
	// offered came back stripped: either the peer has no identity to
	// seal with or something on the path removed the offer. With a
	// require-secure policy the link fails closed instead of silently
	// running in the clear.
	ErrDowngraded = errors.New("identity: secure capability stripped (peer answered without it)")
	// ErrMalformed is returned when a handshake blob or signed record
	// cannot be decoded.
	ErrMalformed = errors.New("identity: malformed handshake or record")
	// ErrUnsignedRecord is returned when a registry record that must be
	// signed is not.
	ErrUnsignedRecord = errors.New("identity: registry record is not signed")
)

// NonceSize is the size of handshake nonces.
const NonceSize = 16

// Domain-separation contexts. Every signature in the protocol signs
// context ‖ SHA-256(transcript), with a distinct context per message
// type, so a signature produced for one exchange can never be presented
// as another.
const (
	ctxCert       = "netibis/identity-cert/v1"
	ctxNodeAuth   = "netibis/node-auth/v1"
	ctxRelayAuth  = "netibis/relay-auth/v1"
	ctxPeerAccept = "netibis/peer-accept/v1"
	ctxPeerAuth   = "netibis/peer-auth/v1"
	ctxLinkOffer  = "netibis/link-offer/v1"
	ctxLinkAccept = "netibis/link-accept/v1"
	ctxRecord     = "netibis/record/v1"
)

// Identity is one Ed25519 identity: a name, its keypair, and (in CA
// deployments) the authority's certificate binding name to key.
type Identity struct {
	// Name is the identity's mesh-wide name: a node's relay identity
	// ("pool/name") or a relay's mesh ID ("relay-0").
	Name string
	// Public is the Ed25519 public key.
	Public ed25519.PublicKey
	// Private is the Ed25519 private key.
	Private ed25519.PrivateKey
	// Cert is the deployment authority's signature over (Name, Public);
	// empty in pinned-key deployments.
	Cert []byte
}

// Generate creates a fresh identity for the given name (uncertified; use
// Authority.Issue for CA deployments, or pin the public key).
func Generate(name string) (*Identity, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	return &Identity{Name: name, Public: pub, Private: priv}, nil
}

// sign produces a domain-separated signature over the transcript hash.
func (id *Identity) sign(context string, transcript []byte) []byte {
	sum := sha256.Sum256(transcript)
	msg := append([]byte(context), sum[:]...)
	return ed25519.Sign(id.Private, msg)
}

// verifySig checks a domain-separated signature over a transcript hash.
func verifySig(pub ed25519.PublicKey, context string, transcript, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize {
		return false
	}
	sum := sha256.Sum256(transcript)
	msg := append([]byte(context), sum[:]...)
	return ed25519.Verify(pub, msg, sig)
}

// NewNonce returns a fresh random handshake nonce.
func NewNonce() ([]byte, error) {
	n := make([]byte, NonceSize)
	if _, err := rand.Read(n); err != nil {
		return nil, err
	}
	return n, nil
}

// --- file persistence ------------------------------------------------------------

// identityFileMagic is the first line of a persisted identity file.
const identityFileMagic = "netibis-identity-v1"

// Save writes the identity to path (private key included; mode 0600).
func (id *Identity) Save(path string) error {
	var b strings.Builder
	fmt.Fprintln(&b, identityFileMagic)
	fmt.Fprintf(&b, "name %s\n", id.Name)
	fmt.Fprintf(&b, "key %s\n", hex.EncodeToString(id.Private.Seed()))
	if len(id.Cert) > 0 {
		fmt.Fprintf(&b, "cert %s\n", hex.EncodeToString(id.Cert))
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o700); err != nil {
			return err
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o600)
}

// Load reads an identity previously written by Save.
func Load(path string) (*Identity, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 || strings.TrimSpace(lines[0]) != identityFileMagic {
		return nil, fmt.Errorf("identity: %s: not a %s file", path, identityFileMagic)
	}
	id := &Identity{}
	for _, ln := range lines[1:] {
		f := strings.Fields(ln)
		if len(f) != 2 {
			continue
		}
		switch f[0] {
		case "name":
			id.Name = f[1]
		case "key":
			seed, err := hex.DecodeString(f[1])
			if err != nil || len(seed) != ed25519.SeedSize {
				return nil, fmt.Errorf("identity: %s: bad key", path)
			}
			id.Private = ed25519.NewKeyFromSeed(seed)
			id.Public = id.Private.Public().(ed25519.PublicKey)
		case "cert":
			cert, err := hex.DecodeString(f[1])
			if err != nil {
				return nil, fmt.Errorf("identity: %s: bad cert", path)
			}
			id.Cert = cert
		}
	}
	if id.Name == "" || id.Private == nil {
		return nil, fmt.Errorf("identity: %s: incomplete identity file", path)
	}
	return id, nil
}

// LoadOrGenerate loads the identity at path, generating (and persisting)
// a fresh one for name when the file does not exist yet. It returns the
// identity and whether it was newly generated.
func LoadOrGenerate(path, name string) (*Identity, bool, error) {
	id, err := Load(path)
	if err == nil {
		return id, false, nil
	}
	if !os.IsNotExist(err) {
		return nil, false, err
	}
	id, err = Generate(name)
	if err != nil {
		return nil, false, err
	}
	if err := id.Save(path); err != nil {
		return nil, false, err
	}
	return id, true, nil
}

// --- deployment authority ---------------------------------------------------------

// Authority is a deployment certificate authority: its signature over a
// (name, public key) pair is the certificate carried by issued
// identities. One authority key distributed to relays and nodes replaces
// per-node pinning.
type Authority struct {
	// Public is the authority's verifying key — the value distributed in
	// trust files.
	Public ed25519.PublicKey
	// Private is the authority's signing key.
	Private ed25519.PrivateKey
}

// NewAuthority creates a deployment certificate authority.
func NewAuthority() (*Authority, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	return &Authority{Public: pub, Private: priv}, nil
}

// certTranscript is the byte string an identity certificate signs.
func certTranscript(name string, pub ed25519.PublicKey) []byte {
	t := wire.AppendString(nil, name)
	return wire.AppendBytes(t, pub)
}

// Issue creates a fresh identity for name, certified by the authority.
func (a *Authority) Issue(name string) (*Identity, error) {
	id, err := Generate(name)
	if err != nil {
		return nil, err
	}
	id.Cert = a.Certify(name, id.Public)
	return id, nil
}

// Certify signs the binding of name to pub (used to certify an identity
// generated elsewhere, so private keys never travel).
func (a *Authority) Certify(name string, pub ed25519.PublicKey) []byte {
	sum := sha256.Sum256(certTranscript(name, pub))
	msg := append([]byte(ctxCert), sum[:]...)
	return ed25519.Sign(a.Private, msg)
}

// TrustStore returns a trust store that trusts exactly this authority.
func (a *Authority) TrustStore() *TrustStore {
	ts := NewTrustStore()
	ts.AddAuthority(a.Public)
	return ts
}

// --- trust store -----------------------------------------------------------------

// TrustStore is the verifier side of the trust model: trusted authority
// keys (CA mode), pinned (name, key) identities, or both. The zero value
// trusts nothing; use NewTrustStore.
type TrustStore struct {
	mu     sync.RWMutex
	cas    []ed25519.PublicKey
	pinned map[string]ed25519.PublicKey
}

// NewTrustStore creates an empty trust store.
func NewTrustStore() *TrustStore {
	return &TrustStore{pinned: make(map[string]ed25519.PublicKey)}
}

// AddAuthority trusts identities certified by the given authority key.
func (ts *TrustStore) AddAuthority(pub ed25519.PublicKey) {
	ts.mu.Lock()
	ts.cas = append(ts.cas, append(ed25519.PublicKey(nil), pub...))
	ts.mu.Unlock()
}

// Pin trusts exactly the given key for the given name.
func (ts *TrustStore) Pin(name string, pub ed25519.PublicKey) {
	ts.mu.Lock()
	ts.pinned[name] = append(ed25519.PublicKey(nil), pub...)
	ts.mu.Unlock()
}

// VerifyPeer checks that pub is a trusted key for the claimed name:
// either pinned for exactly that name, or certified for that name by a
// trusted authority. A valid key bound to a different name returns
// ErrIdentityMismatch (the spoofing case); a key with no trust path
// returns ErrUnknownIdentity. VerifyPeer checks the *binding* only — the
// caller must separately verify a signature proving possession of pub.
func (ts *TrustStore) VerifyPeer(name string, pub ed25519.PublicKey, cert []byte) error {
	if len(pub) != ed25519.PublicKeySize {
		return ErrMalformed
	}
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	if pinnedKey, ok := ts.pinned[name]; ok {
		if bytes.Equal(pinnedKey, pub) {
			return nil
		}
		// The name is known but the key is not the one pinned for it.
		return ErrIdentityMismatch
	}
	// Not pinned under the claimed name: the key may still be pinned
	// under its true name (a valid identity claiming someone else's) —
	// that is a mismatch, not an unknown.
	for pinnedName, pinnedKey := range ts.pinned {
		if bytes.Equal(pinnedKey, pub) && pinnedName != name {
			return ErrIdentityMismatch
		}
	}
	if len(cert) > 0 {
		sum := sha256.Sum256(certTranscript(name, pub))
		msg := append([]byte(ctxCert), sum[:]...)
		for _, ca := range ts.cas {
			if ed25519.Verify(ca, msg, cert) {
				return nil
			}
		}
		// The cert did not verify for the claimed name. If it verifies
		// for no trusted authority at all it is simply unknown; there is
		// no way to distinguish a forged cert from one binding another
		// name without that name, so both fail closed as unknown unless
		// the true binding is discoverable (pinned case above).
	}
	return ErrUnknownIdentity
}

// Empty reports whether the store trusts nothing (no authorities, no
// pinned identities).
func (ts *TrustStore) Empty() bool {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	return len(ts.cas) == 0 && len(ts.pinned) == 0
}

// --- trust store persistence -------------------------------------------------------

// trustFileMagic is the first line of a persisted trust file.
const trustFileMagic = "netibis-trust-v1"

// SaveTrust writes the trust store to path: one "authority <hex>" line
// per trusted CA key and one "pin <name> <hex>" line per pinned
// identity.
func (ts *TrustStore) Save(path string) error {
	ts.mu.RLock()
	var b strings.Builder
	fmt.Fprintln(&b, trustFileMagic)
	for _, ca := range ts.cas {
		fmt.Fprintf(&b, "authority %s\n", hex.EncodeToString(ca))
	}
	for name, pub := range ts.pinned {
		fmt.Fprintf(&b, "pin %s %s\n", name, hex.EncodeToString(pub))
	}
	ts.mu.RUnlock()
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o700); err != nil {
			return err
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// LoadTrust reads a trust store previously written by Save.
func LoadTrust(path string) (*TrustStore, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 || strings.TrimSpace(lines[0]) != trustFileMagic {
		return nil, fmt.Errorf("identity: %s: not a %s file", path, trustFileMagic)
	}
	ts := NewTrustStore()
	for _, ln := range lines[1:] {
		f := strings.Fields(ln)
		switch {
		case len(f) == 2 && f[0] == "authority":
			pub, err := hex.DecodeString(f[1])
			if err != nil || len(pub) != ed25519.PublicKeySize {
				return nil, fmt.Errorf("identity: %s: bad authority key", path)
			}
			ts.AddAuthority(pub)
		case len(f) == 3 && f[0] == "pin":
			pub, err := hex.DecodeString(f[2])
			if err != nil || len(pub) != ed25519.PublicKeySize {
				return nil, fmt.Errorf("identity: %s: bad pinned key for %s", path, f[1])
			}
			ts.Pin(f[1], pub)
		}
	}
	return ts, nil
}

// --- identity announcements --------------------------------------------------------

// Announce is the public half of an identity as it travels in handshake
// frames: the key and (when issued by an authority) its certificate.
type Announce struct {
	Public ed25519.PublicKey
	Cert   []byte
}

// Announce returns the identity's announcement.
func (id *Identity) Announce() Announce {
	return Announce{Public: id.Public, Cert: id.Cert}
}

// AppendAnnounce appends the announcement's wire encoding.
func AppendAnnounce(dst []byte, a Announce) []byte {
	dst = wire.AppendBytes(dst, a.Public)
	dst = wire.AppendBytes(dst, a.Cert)
	return dst
}

// DecodeAnnounce consumes an announcement from a Decoder. The returned
// slices are copies (handshake material outlives the frame buffer).
func DecodeAnnounce(d *wire.Decoder) (Announce, error) {
	pub := d.Bytes()
	cert := d.Bytes()
	if d.Err() != nil {
		return Announce{}, ErrMalformed
	}
	return Announce{
		Public: append(ed25519.PublicKey(nil), pub...),
		Cert:   append([]byte(nil), cert...),
	}, nil
}
