package secure

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"netibis/internal/driver"
	_ "netibis/internal/drivers/tcpblk"
)

func sealedLink(t *testing.T, spec string) (driver.Output, driver.Input) {
	t.Helper()
	dialEnv, acceptEnv := driver.PipeEnv()
	return sealedLinkOver(t, spec, dialEnv, acceptEnv)
}

func sealedLinkOver(t *testing.T, spec string, dialEnv, acceptEnv *driver.Env) (driver.Output, driver.Input) {
	t.Helper()
	stack, err := driver.ParseStack(spec)
	if err != nil {
		t.Fatal(err)
	}
	outCh := make(chan driver.Output, 1)
	errCh := make(chan error, 1)
	go func() {
		out, err := driver.BuildOutput(stack, dialEnv)
		errCh <- err
		if err == nil {
			outCh <- out
		}
	}()
	in, err := driver.BuildInput(stack, acceptEnv)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	return <-outCh, in
}

func TestSealRoundTrip(t *testing.T) {
	out, in := sealedLink(t, "secure:psk=grid-secret/tcpblk")
	payload := make([]byte, 300*1024)
	rand.New(rand.NewSource(11)).Read(payload)
	go func() {
		out.Write(payload)
		out.Flush()
		out.Close()
	}()
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(in, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("sealed payload corrupted")
	}
	in.Close()
}

func TestSealCiphertextNotPlaintext(t *testing.T) {
	// The bytes under the secure driver must not contain the plaintext.
	var wireBuf bytes.Buffer
	sink := &captureOutput{w: &wireBuf}
	out, err := NewSealOutput(sink, bytes.Repeat([]byte{7}, 32), 0)
	if err != nil {
		t.Fatal(err)
	}
	secret := bytes.Repeat([]byte("attack at dawn "), 100)
	out.Write(secret)
	out.Flush()
	if bytes.Contains(wireBuf.Bytes(), []byte("attack at dawn")) {
		t.Fatal("plaintext leaked below the secure driver")
	}
}

func TestSealWrongKeyFailsAuthentication(t *testing.T) {
	stack, _ := driver.ParseStack("tcpblk")
	dialEnv, acceptEnv := driver.PipeEnv()
	outCh := make(chan driver.Output, 1)
	go func() {
		lower, err := driver.BuildOutput(stack, dialEnv)
		if err != nil {
			t.Error(err)
			return
		}
		out, err := NewSealOutput(lower, bytes.Repeat([]byte{1}, 32), 0)
		if err != nil {
			t.Error(err)
			return
		}
		out.Write([]byte("sealed with key one"))
		out.Flush()
		outCh <- out
	}()
	lowerIn, err := driver.BuildInput(stack, acceptEnv)
	if err != nil {
		t.Fatal(err)
	}
	in := NewSealInput(lowerIn, bytes.Repeat([]byte{2}, 32), 0)
	if _, err := in.Read(make([]byte, 64)); err == nil {
		t.Fatal("record sealed under a different key must not authenticate")
	}
	in.Close()
	(<-outCh).Close()
}

func TestDriverSpecValidation(t *testing.T) {
	lower := func() (driver.Output, error) { t.Fatal("must not build lower without a key"); return nil, nil }
	if _, err := buildDriverOutput(driver.Spec{Name: DriverName}, nil, lower); err == nil {
		t.Fatal("secure without key material should be rejected")
	}
	bad := driver.Spec{Name: DriverName, Params: map[string]string{"key": "zz"}}
	if _, err := buildDriverOutput(bad, nil, lower); !errors.Is(err, driver.ErrBadParam) {
		t.Fatalf("malformed hex key: %v, want driver.ErrBadParam", err)
	}
	bad = driver.Spec{Name: DriverName, Params: map[string]string{"psk": "x", "block": "4096"}}
	if _, err := buildDriverOutput(bad, nil, lower); !errors.Is(err, driver.ErrBadParam) {
		t.Fatalf("a parameter secure does not take: %v, want driver.ErrBadParam", err)
	}
	if _, err := buildDriverOutput(driver.Spec{Name: DriverName, Params: map[string]string{"psk": "x"}}, nil, nil); err == nil {
		t.Fatal("secure as bottom driver should be rejected")
	}
}

// captureOutput is a driver.Output that records everything written.
type captureOutput struct{ w io.Writer }

func (c *captureOutput) Write(p []byte) (int, error) { return c.w.Write(p) }
func (c *captureOutput) Flush() error                { return nil }
func (c *captureOutput) Close() error                { return nil }
