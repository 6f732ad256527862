package identity

// Signed name-service records. Registration is the root of trust for
// connection establishment: nodes discover relays (and each other)
// through the registry, so a poisoner who can overwrite a record can
// redirect every establishment that reads it. Sealing wraps a record
// value with the registrant's identity and a signature binding the
// record *key* to the value, and verification pins which identity may
// sign which key (a relay signs its own overlay record, a node its own
// node record) — a valid identity cannot overwrite someone else's name.

import (
	"bytes"
	"strings"

	"netibis/internal/wire"
)

// recordMagic prefixes every sealed record value, distinguishing it from
// a raw, unsigned value.
var recordMagic = []byte("NIS1")

// SealRecord wraps a registry value with the identity's signature over
// (key, value, public key).
func SealRecord(id *Identity, key string, value []byte) []byte {
	t := wire.AppendString(nil, key)
	t = wire.AppendBytes(t, value)
	t = wire.AppendBytes(t, id.Public)
	sig := id.sign(ctxRecord, t)
	out := append([]byte(nil), recordMagic...)
	out = wire.AppendBytes(out, value)
	out = AppendAnnounce(out, id.Announce())
	out = wire.AppendBytes(out, sig)
	return out
}

// IsSealedRecord reports whether a registry value is a sealed record.
func IsSealedRecord(v []byte) bool { return bytes.HasPrefix(v, recordMagic) }

// parseSealedRecord splits a sealed record into its parts.
func parseSealedRecord(sealed []byte) (value []byte, a Announce, sig []byte, err error) {
	if !IsSealedRecord(sealed) {
		return nil, Announce{}, nil, ErrUnsignedRecord
	}
	d := wire.NewDecoder(sealed[len(recordMagic):])
	value = append([]byte(nil), d.Bytes()...)
	a, err = DecodeAnnounce(d)
	if err != nil {
		return nil, Announce{}, nil, err
	}
	sig = append([]byte(nil), d.Bytes()...)
	if d.Err() != nil || d.Remaining() != 0 {
		return nil, Announce{}, nil, ErrMalformed
	}
	return value, a, sig, nil
}

// VerifyRecord checks a sealed record: the signer must be the trusted
// identity named signerName, and the signature must bind this exact key
// to this exact value. It returns the unwrapped value.
func VerifyRecord(ts *TrustStore, signerName, key string, sealed []byte) ([]byte, error) {
	value, a, sig, err := parseSealedRecord(sealed)
	if err != nil {
		return nil, err
	}
	if err := ts.VerifyPeer(signerName, a.Public, a.Cert); err != nil {
		return nil, err
	}
	t := wire.AppendString(nil, key)
	t = wire.AppendBytes(t, value)
	t = wire.AppendBytes(t, a.Public)
	if !verifySig(a.Public, ctxRecord, t, sig) {
		return nil, ErrBadSignature
	}
	return value, nil
}

// UnwrapRecord extracts the value of a record without verification:
// sealed records yield their embedded value, raw records pass through.
// Readers without a trust store use it to interoperate with both signed
// and unsigned registrants.
func UnwrapRecord(v []byte) []byte {
	if !IsSealedRecord(v) {
		return v
	}
	value, _, _, err := parseSealedRecord(v)
	if err != nil {
		return v
	}
	return value
}

// RecordSigner returns the identity name that must sign the registry
// record stored under key, and whether a signature is mandatory under a
// trust-enforcing registry. The conventions:
//
//	overlay/relay/<id>   -> signed by <id>          (mandatory)
//	<pool>/node/<name>   -> signed by <pool>/<name> (mandatory)
//	anything else        -> app-level record; signature optional, but a
//	                        sealed one must still verify
func RecordSigner(key string) (signer string, mandatory bool) {
	if rest, ok := strings.CutPrefix(key, "overlay/relay/"); ok && rest != "" {
		return rest, true
	}
	if pool, name, ok := strings.Cut(key, "/node/"); ok && pool != "" && name != "" && !strings.Contains(name, "/") {
		return pool + "/" + name, true
	}
	return "", false
}

// RegistryVerifier returns a registration-time verification hook for a
// trust-enforcing registry (nameservice.Server.SetVerifier): records
// whose keys name a relay or node must carry a valid signature from
// exactly that identity; other records may be unsigned, but a sealed one
// must verify for *some* trusted identity (its named signer is embedded
// in the signature transcript via the key, so cross-key replay fails).
func RegistryVerifier(ts *TrustStore) func(key string, value []byte) error {
	return func(key string, value []byte) error {
		signer, mandatory := RecordSigner(key)
		if !IsSealedRecord(value) {
			if mandatory {
				return ErrUnsignedRecord
			}
			return nil
		}
		if mandatory {
			_, err := VerifyRecord(ts, signer, key, value)
			return err
		}
		// App-level sealed record: no particular name is mandated by the
		// key, but the signature must still verify for the announced key
		// (a tampered or cross-key-replayed record fails here).
		val, a, sig, err := parseSealedRecord(value)
		if err != nil {
			return err
		}
		t := wire.AppendString(nil, key)
		t = wire.AppendBytes(t, val)
		t = wire.AppendBytes(t, a.Public)
		if !verifySig(a.Public, ctxRecord, t, sig) {
			return ErrBadSignature
		}
		return nil
	}
}
