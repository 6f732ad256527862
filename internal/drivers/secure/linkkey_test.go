package secure

// Tests of the keyless secure layer: a stack that names "secure" without
// key= or psk= is keyed by driver.Env.LinkKey — the key the two nodes'
// identities agreed on their service link — and by nothing else.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"netibis/internal/driver"
)

// tap records everything written through its conns.
type tap struct {
	mu    sync.Mutex
	wrote bytes.Buffer
}

type tapConn struct {
	net.Conn
	*tap
}

func (c tapConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.wrote.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// keyedPipe is driver.PipeEnv with a link key on each end; everything
// the dialing side writes on the pipe is recorded in the tap.
func keyedPipe(dialKey, acceptKey []byte) (dialEnv, acceptEnv *driver.Env, onPipe *tap) {
	dialEnv, acceptEnv = driver.PipeEnv()
	dialEnv.LinkKey, acceptEnv.LinkKey = dialKey, acceptKey
	onPipe = &tap{}
	dial := dialEnv.Dial
	dialEnv.Dial = func() (net.Conn, error) {
		conn, err := dial()
		return tapConn{Conn: conn, tap: onPipe}, err
	}
	return dialEnv, acceptEnv, onPipe
}

func TestKeylessStackSealsUnderLinkKey(t *testing.T) {
	key := bytes.Repeat([]byte{0x42}, 32)
	dialEnv, acceptEnv, onPipe := keyedPipe(key, key)
	out, in := sealedLinkOver(t, "secure/tcpblk", dialEnv, acceptEnv)

	var payload []byte
	for i := 0; len(payload) < 200*1024; i++ {
		payload = fmt.Appendf(payload, "record %06d of the grid application's data; ", i)
	}
	go func() {
		out.Write(payload)
		out.Flush()
		out.Close()
	}()
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(in, got); err != nil {
		t.Fatal(err)
	}
	in.Close()
	if !bytes.Equal(got, payload) {
		t.Fatal("payload sealed under the link key arrived corrupted")
	}

	onPipe.mu.Lock()
	defer onPipe.mu.Unlock()
	wrote := onPipe.wrote.Bytes()
	onWire := make(map[[8]byte]bool, len(wrote))
	for i := 0; i+8 <= len(wrote); i++ {
		onWire[[8]byte(wrote[i:])] = true
	}
	for i := 0; i+8 <= len(payload); i++ {
		if onWire[[8]byte(payload[i:])] {
			t.Fatalf("plaintext bytes %q appear on the pipe", payload[i:i+8])
		}
	}
}

// TestUntrustedPeerRejected: a reader that holds a different link key —
// anyone but the node the service link's handshake authenticated — opens
// nothing.
func TestUntrustedPeerRejected(t *testing.T) {
	dialEnv, acceptEnv, _ := keyedPipe(bytes.Repeat([]byte{1}, 32), bytes.Repeat([]byte{2}, 32))
	out, in := sealedLinkOver(t, "secure/tcpblk", dialEnv, acceptEnv)
	go func() {
		out.Write([]byte("for the authenticated peer only"))
		out.Flush()
	}()
	n, err := in.Read(make([]byte, 64))
	if n != 0 || err == nil || !strings.Contains(err.Error(), "record authentication failed") {
		t.Fatalf("read under a different link key = %d bytes, %v; want record authentication failed", n, err)
	}
	in.Close()
	out.Close()
}

func TestKeyPrecedence(t *testing.T) {
	hexKey := bytes.Repeat([]byte{0xAB}, 32)
	psk := sha256.Sum256([]byte("passphrase"))
	env := &driver.Env{LinkKey: bytes.Repeat([]byte{0x42}, 32)}
	spec := func(params map[string]string) driver.Spec { return driver.Spec{Name: DriverName, Params: params} }
	for what, tc := range map[string]struct {
		spec driver.Spec
		want []byte
	}{
		"key= over psk= and the link key": {spec(map[string]string{"key": hex.EncodeToString(hexKey), "psk": "passphrase"}), hexKey},
		"psk= over the link key":          {spec(map[string]string{"psk": "passphrase"}), psk[:]},
		"the link key":                    {spec(nil), env.LinkKey},
	} {
		got, err := masterKey(tc.spec, env)
		if err != nil || !bytes.Equal(got, tc.want) {
			t.Errorf("%s: masterKey = %x, %v; want %x", what, got, err, tc.want)
		}
	}
}

// TestNoIdentity: without identities on both ends the link has no key
// (nil), and a link key of any length but 32 is no key either. Both
// builders fail closed with ErrNoKey before anything below is built.
func TestNoIdentity(t *testing.T) {
	spec := driver.Spec{Name: DriverName}
	for _, n := range []int{0, 1, 16, 31, 33, 64} {
		env := &driver.Env{LinkKey: make([]byte, n)}
		_, err := buildDriverOutput(spec, env, func() (driver.Output, error) {
			t.Errorf("%d-byte link key: the output side built its lower driver", n)
			return nil, errors.New("unreachable")
		})
		if !errors.Is(err, ErrNoKey) {
			t.Errorf("%d-byte link key: BuildOutput = %v, want ErrNoKey", n, err)
		}
		_, err = buildDriverInput(spec, env, func() (driver.Input, error) {
			t.Errorf("%d-byte link key: the input side built its lower driver", n)
			return nil, errors.New("unreachable")
		})
		if !errors.Is(err, ErrNoKey) {
			t.Errorf("%d-byte link key: BuildInput = %v, want ErrNoKey", n, err)
		}
	}
}
