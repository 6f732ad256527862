package secure

// Regression test for nonce-reuse safety across resumed links: a link
// re-established after a relay failover (or any reconnect) rebuilds its
// driver stack, which restarts the secure driver's record counter at 1.
// Two sessions under the same pre-shared master key therefore emit
// records with identical nonce sequences — which is only safe because
// each session seals under a distinct derived key (fresh random salt).
// This test pins the invariant: same PSK, same plaintext, same nonce
// sequence, yet distinct salts, distinct derived keys and distinct
// ciphertexts — no (key, nonce) pair is ever reused.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"sync"
	"testing"
)

// sinkOutput is a driver.Output that records everything written.
type sinkOutput struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *sinkOutput) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}
func (s *sinkOutput) Flush() error { return nil }
func (s *sinkOutput) Close() error { return nil }
func (s *sinkOutput) bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.buf.Bytes()...)
}

// runSession seals one plaintext through a fresh SealOutput (a new
// session under master) and returns the raw stream: salt, then records.
func runSession(t testing.TB, master, plaintext []byte) []byte {
	t.Helper()
	sink := &sinkOutput{}
	out, err := NewSealOutput(sink, master, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := out.Write(plaintext); err != nil {
		t.Fatal(err)
	}
	if err := out.Flush(); err != nil {
		t.Fatal(err)
	}
	return sink.bytes()
}

func TestResumedSessionNeverReusesKeyNonce(t *testing.T) {
	master := sha256.Sum256([]byte("shared-psk"))
	plaintext := bytes.Repeat([]byte("resume-me"), 1024)

	// Session 1 (the original link) and session 2 (the same link,
	// re-established after a failover): identical key material,
	// identical plaintext, identical restarted nonce counter.
	s1 := runSession(t, master[:], plaintext)
	s2 := runSession(t, master[:], plaintext)

	if len(s1) < saltSize+recordLenSize || len(s2) < saltSize+recordLenSize {
		t.Fatalf("streams too short: %d, %d", len(s1), len(s2))
	}
	salt1, salt2 := s1[:saltSize], s2[:saltSize]
	if bytes.Equal(salt1, salt2) {
		t.Fatal("two sessions drew the same link salt — (key, nonce) pairs repeat")
	}

	// The derived record keys must differ (the salt feeds the KDF).
	aead1, err := linkAEAD(master[:], salt1)
	if err != nil {
		t.Fatal(err)
	}
	aead2, err := linkAEAD(master[:], salt2)
	if err != nil {
		t.Fatal(err)
	}
	// Same nonce (counter value 1), same plaintext: the outputs must
	// still differ, because the keys differ.
	var nonce [12]byte
	binary.BigEndian.PutUint64(nonce[4:], 1)
	ct1 := aead1.Seal(nil, nonce[:], []byte("probe"), nil)
	ct2 := aead2.Seal(nil, nonce[:], []byte("probe"), nil)
	if bytes.Equal(ct1, ct2) {
		t.Fatal("distinct salts derived the same record key")
	}

	// And the records actually on the wire differ too (beyond the salt).
	rec1, rec2 := s1[saltSize:], s2[saltSize:]
	if bytes.Equal(rec1, rec2) {
		t.Fatal("identical ciphertext across sessions: (key, nonce) reuse")
	}

	// Cross-decryption must fail: session 2's records do not open under
	// session 1's key (proving the keys are really distinct, not merely
	// producing different bytes).
	ctLen := binary.BigEndian.Uint32(rec2[:recordLenSize])
	record := rec2[recordLenSize : recordLenSize+int(ctLen)]
	if _, err := aead1.Open(nil, nonce[:], record, nil); err == nil {
		t.Fatal("session 2 record opened under session 1 key")
	}
	// While the rightful key opens it.
	pt, err := aead2.Open(nil, nonce[:], record, nil)
	if err != nil {
		t.Fatalf("session 2 record failed under its own key: %v", err)
	}
	if !bytes.HasPrefix(plaintext, pt[:min(len(pt), len(plaintext))]) {
		t.Fatal("decrypted record does not match the plaintext")
	}
}

// TestSealInputAcceptsFreshSaltAfterResume drives the full driver pair:
// a receiver built fresh for a resumed link (new SealInput) must decode
// the new session's stream even though it carries a different salt and
// a restarted counter.
func TestSealInputAcceptsFreshSaltAfterResume(t *testing.T) {
	master := sha256.Sum256([]byte("shared-psk"))
	for session := 0; session < 2; session++ {
		stream := runSession(t, master[:], []byte("hello after resume"))
		in := NewSealInput(readerInput{bytes.NewReader(stream)}, master[:], 0)
		got := make([]byte, len("hello after resume"))
		if _, err := io.ReadFull(in, got); err != nil {
			t.Fatalf("session %d: %v", session, err)
		}
		if string(got) != "hello after resume" {
			t.Fatalf("session %d: got %q", session, got)
		}
		in.Close()
	}
}

// readerInput adapts an io.Reader to driver.Input.
type readerInput struct{ io.Reader }

func (readerInput) Close() error { return nil }
