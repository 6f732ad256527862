package secure

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"

	"netibis/internal/driver"
	"netibis/internal/drivers/tcpblk"
)

// countingInput records the length of every Read its SealInput made.
type countingInput struct {
	driver.Input
	reads []int
}

func (c *countingInput) Read(p []byte) (int, error) {
	n, err := c.Input.Read(p)
	c.reads = append(c.reads, n)
	return n, err
}

// TestRecordIsOneLowerRead pins the read pattern over tcpblk: a record of
// a whole block is one frame, and the SealInput reads it in one lower Read
// that returns the whole frame — no separate read of its length prefix,
// no copy out of a block tcpblk had to buffer.
func TestRecordIsOneLowerRead(t *testing.T) {
	a, b := net.Pipe()
	out, err := NewSealOutput(tcpblk.NewOutput(a, 0), fuzzKey, 0)
	if err != nil {
		t.Fatal(err)
	}
	lower := &countingInput{Input: tcpblk.NewInput(b)}
	in := NewSealInput(lower, fuzzKey, 0)
	defer out.Close()
	defer in.Close() // first: the pipe is synchronous, out's close frame needs no reader

	payload := make([]byte, DefaultSealBlock)
	rand.New(rand.NewSource(5)).Read(payload)
	sent := make(chan error, 1)
	go func() {
		for _, msg := range [][]byte{[]byte("salt and a first record"), payload} {
			if _, err := out.Write(msg); err != nil {
				sent <- err
				return
			}
			if err := out.Flush(); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()

	first := make([]byte, len("salt and a first record"))
	if _, err := io.ReadFull(in, first); err != nil {
		t.Fatal(err)
	}
	lower.reads = nil
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(in, got); err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("record opened corrupted")
	}
	if frame := recordLenSize + DefaultSealBlock + tagSize; len(lower.reads) != 1 || lower.reads[0] != frame {
		t.Fatalf("a %d-byte record took lower reads of %v, want one of %d", DefaultSealBlock, lower.reads, frame)
	}
}

// refSeal writes the documented wire format — salt, then {ctLen ‖ ct}
// with AES-256-GCM under SHA-256(master ‖ salt) and counter nonces from 1
// — with nothing of the driver's.
func refSeal(t *testing.T, master, salt []byte, records [][]byte) []byte {
	t.Helper()
	aead := refAEAD(t, master, salt)
	stream := append([]byte(nil), salt...)
	var nonce [12]byte
	for i, pt := range records {
		binary.BigEndian.PutUint64(nonce[4:], uint64(i+1))
		ct := aead.Seal(nil, nonce[:], pt, nil)
		stream = binary.BigEndian.AppendUint32(stream, uint32(len(ct)))
		stream = append(stream, ct...)
	}
	return stream
}

// refOpen is refSeal's inverse: the records of a stream in the
// documented wire format.
func refOpen(t *testing.T, master, stream []byte) [][]byte {
	t.Helper()
	aead := refAEAD(t, master, stream[:saltSize])
	stream = stream[saltSize:]
	var records [][]byte
	var nonce [12]byte
	for len(stream) > 0 {
		ctLen := int(binary.BigEndian.Uint32(stream))
		binary.BigEndian.PutUint64(nonce[4:], uint64(len(records)+1))
		pt, err := aead.Open(nil, nonce[:], stream[recordLenSize:recordLenSize+ctLen], nil)
		if err != nil {
			t.Fatalf("record %d: %v", len(records), err)
		}
		records = append(records, pt)
		stream = stream[recordLenSize+ctLen:]
	}
	return records
}

func refAEAD(t *testing.T, master, salt []byte) cipher.AEAD {
	t.Helper()
	key := sha256.Sum256(append(append([]byte(nil), master...), salt...))
	block, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		t.Fatal(err)
	}
	return aead
}

// TestWireFormat holds both sides to the documented record format: a
// stream in it opens, and what the driver seals is in it, with the record
// boundaries of one block, then the rest.
func TestWireFormat(t *testing.T) {
	master := sha256.Sum256([]byte("wire-format"))
	msg := make([]byte, DefaultSealBlock+3)
	rand.New(rand.NewSource(9)).Read(msg)

	stream := refSeal(t, master[:], bytes.Repeat([]byte{0x5a}, saltSize), [][]byte{msg[:DefaultSealBlock], msg[DefaultSealBlock:]})
	in := NewSealInput(readerInput{bytes.NewReader(stream)}, master[:], 0)
	got, err := io.ReadAll(in)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("the driver opened %d bytes (%v) of a %d-byte stream in the format", len(got), err, len(msg))
	}

	records := refOpen(t, master[:], runSession(t, master[:], msg))
	if len(records) != 2 || len(records[0]) != DefaultSealBlock || !bytes.Equal(bytes.Join(records, nil), msg) {
		t.Fatalf("the driver sealed %d records, not a block and the rest of the message", len(records))
	}
}

// TestSealInputTruncations: a stream cut between records, inside the salt
// or inside a length prefix ends cleanly; one cut inside a record is a
// truncated record, wrapping io.EOF when none of its ciphertext arrived
// and io.ErrUnexpectedEOF when some did.
func TestSealInputTruncations(t *testing.T) {
	master := sha256.Sum256([]byte("truncations"))
	stream := refSeal(t, master[:], bytes.Repeat([]byte{1}, saltSize), [][]byte{[]byte("first"), []byte("second")})
	second := saltSize + recordLenSize + len("first") + tagSize
	for _, tc := range []struct {
		name string
		cut  int
		want error // nil: a clean end
	}{
		{"inside the salt", saltSize - 3, nil},
		{"between records", second, nil},
		{"inside a length prefix", second + 2, nil},
		{"after a length prefix", second + recordLenSize, io.EOF},
		{"inside a record", second + recordLenSize + 5, io.ErrUnexpectedEOF},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := NewSealInput(readerInput{bytes.NewReader(stream[:tc.cut])}, master[:], 0)
			defer in.Close()
			_, err := io.ReadAll(in)
			if tc.want == nil && err != nil {
				t.Fatalf("ReadAll = %v, want a clean end", err)
			}
			if tc.want != nil && (!errors.Is(err, tc.want) || !strings.Contains(err.Error(), "truncated record")) {
				t.Fatalf("ReadAll = %v, want a truncated record wrapping %v", err, tc.want)
			}
		})
	}
}
