// gencorpus writes seed corpus files for the repo's fuzz targets in the
// Go fuzzing testdata format, built with the real protocol encoders. Run
// it from anywhere inside the module: go run ./tools/gencorpus.
//
// The seeds embed freshly generated keys, nonces and signatures, so two
// runs never produce the same bytes: the output is committed, not
// regenerated or diffed by CI.
package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"netibis/internal/driver"
	"netibis/internal/drivers/multi"
	"netibis/internal/drivers/secure"
	"netibis/internal/drivers/zip"
	"netibis/internal/emunet"
	"netibis/internal/estab"
	"netibis/internal/identity"
	"netibis/internal/relay"
	"netibis/internal/wire"
)

// moduleRoot walks up from the working directory to the one holding
// go.mod.
func moduleRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		log.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			log.Fatal("gencorpus: no go.mod above the working directory")
		}
		dir = parent
	}
}

var root string // the module root, set by main

// sink is a driver.Output that keeps what is written to it.
type sink struct{ bytes.Buffer }

func (*sink) Flush() error { return nil }
func (*sink) Close() error { return nil }

func write(pkg, target, name string, args ...any) {
	dir := filepath.Join(root, "internal", pkg, "testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	var b bytes.Buffer
	b.WriteString("go test fuzz v1\n")
	for _, a := range args {
		switch v := a.(type) {
		case []byte:
			fmt.Fprintf(&b, "[]byte(%q)\n", v)
		case byte:
			fmt.Fprintf(&b, "byte(%q)\n", v)
		case uint32:
			fmt.Fprintf(&b, "uint32(%d)\n", v)
		default:
			log.Fatalf("unsupported arg type %T", a)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, name), b.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
}

func main() {
	root = moduleRoot()
	// wire: frames.
	var fb bytes.Buffer
	fw := wire.NewWriter(&fb)
	fw.WriteFrame(wire.KindData, 0, []byte("hello, grid"))
	write("wire", "FuzzReadFrame", "frame-data", fb.Bytes())
	fb.Reset()
	fw = wire.NewWriter(&fb)
	fw.WriteFrame(wire.KindControl, 2, nil)
	fw.WriteFrame(wire.KindFlush, 0, bytes.Repeat([]byte{0x5a}, 500))
	write("wire", "FuzzReadFrame", "frame-pair", fb.Bytes())
	write("wire", "FuzzReadFrame", "frame-huge-len",
		[]byte{wire.KindData, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})

	dec := wire.AppendString(nil, "node/alice")
	dec = wire.AppendUvarint(dec, 42)
	dec = wire.AppendBytes(dec, []byte{1, 2, 3})
	dec = wire.AppendUint32(dec, 7)
	dec = wire.AppendUint64(dec, 9)
	write("wire", "FuzzDecoder", "primitives", dec)
	write("wire", "FuzzReadFrameRoundtrip", "basic", byte(0), byte(0), []byte("payload"))

	// identity material reused below.
	ca, err := identity.NewAuthority()
	if err != nil {
		log.Fatal(err)
	}
	alice, _ := ca.Issue("pool/alice")
	relay0, _ := ca.Issue("relay-0")
	nonce, _ := identity.NewNonce()

	write("identity", "FuzzDecodeAnnounce", "issued", identity.AppendAnnounce(nil, alice.Announce()))
	offer, err := identity.OfferLink(alice, "pool/alice", "pool/bob", 3)
	if err != nil {
		log.Fatal(err)
	}
	write("identity", "FuzzDecodeLinkBlob", "offer", offer.Blob())
	write("identity", "FuzzVerifyRecord", "sealed",
		identity.SealRecord(relay0, "overlay/relay/relay-0", []byte("10.0.0.1:4500")))
	write("identity", "FuzzVerifyRecord", "raw", []byte("10.0.0.1:4500"))
	sig := identity.SignAttachNode(alice, nonce, nonce, "relay-0", "pool/alice")
	write("identity", "FuzzVerifyAttachNode", "real-parts",
		[]byte(alice.Public), alice.Cert, sig)

	// relay: routed payloads and handshake frames. The encoders are
	// unexported; rebuild the byte layouts with the wire primitives
	// (the formats are documented in internal/relay/auth.go).
	routed := wire.AppendString(nil, "pool/bob")
	routed = wire.AppendUvarint(routed, 7)
	routed = append(routed, []byte("body")...)
	write("relay", "FuzzParseRouted", "routed", routed)

	attach := wire.AppendString(nil, "pool/alice")
	write("relay", "FuzzDecodeAttach", "anonymous", wire.AppendUvarint(attach, identity.AuthAnonymous))
	ext := wire.AppendUvarint(attach, identity.AuthVersion)
	ext = wire.AppendBytes(ext, nonce)
	ext = identity.AppendAnnounce(ext, alice.Announce())
	write("relay", "FuzzDecodeAttach", "extended", ext)

	challenge := wire.AppendBytes(nil, make([]byte, 32))
	challenge = wire.AppendString(challenge, "relay-0")
	write("relay", "FuzzDecodeChallenge", "anonymous", wire.AppendUvarint(challenge, identity.AuthAnonymous))
	challenge = wire.AppendUvarint(challenge, identity.AuthVersion)
	challenge = identity.AppendAnnounce(challenge, relay0.Announce())
	challenge = wire.AppendBytes(challenge, sig)
	write("relay", "FuzzDecodeChallenge", "signed", challenge)

	resp := wire.AppendBytes(nil, make([]byte, 32))
	resp = wire.AppendBytes(resp, sig)
	write("relay", "FuzzDecodeAuthResponse", "basic", resp)

	// An open body ends in a purpose byte or in nothing.
	openBody := wire.AppendString(nil, "pool/alice")
	openBody = wire.AppendUvarint(openBody, 256<<10)
	write("relay", "FuzzOpenBody", "windowed", wire.AppendBytes(openBody, nil))
	write("relay", "FuzzOpenBody", "secure-open", append(wire.AppendBytes(openBody, offer.Blob()), relay.PurposeData))
	write("relay", "FuzzOpenBody", "service-open", append(wire.AppendBytes(openBody, nil), relay.PurposeService))

	// overlay: gossip / forward / nack / hello (formats documented in
	// internal/overlay/overlay.go).
	gossip := wire.AppendUvarint(nil, 2)
	for _, e := range []struct {
		node, home string
		ver        uint64
		present    byte
	}{{"pool/alice", "relay-0", 3, 1}, {"pool/bob", "relay-1", 9, 0}} {
		gossip = wire.AppendString(gossip, e.node)
		gossip = wire.AppendString(gossip, e.home)
		gossip = wire.AppendUvarint(gossip, e.ver)
		gossip = append(gossip, e.present)
	}
	write("overlay", "FuzzDecodeGossip", "two-entries", gossip)
	write("overlay", "FuzzDecodeGossip", "huge-count",
		[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x0f})

	fwd := wire.AppendString(nil, "relay-0")
	fwd = wire.AppendString(fwd, "relay-1")
	fwd = wire.AppendString(fwd, "pool/alice")
	fwd = wire.AppendUvarint(fwd, 1)
	fwd = append(fwd, 0x25)
	fwd = wire.AppendBytes(fwd, routed)
	write("overlay", "FuzzDecodeForward", "forward", fwd)

	nack := wire.AppendString(nil, "relay-0")
	nack = wire.AppendString(nack, "pool/bob")
	nack = wire.AppendString(nack, "pool/alice")
	nack = wire.AppendUvarint(nack, 7)
	nack = append(nack, 0x22)
	write("overlay", "FuzzDecodeNack", "nack", nack)

	hello := wire.AppendString(nil, "relay-1")
	write("overlay", "FuzzDecodePeerHello", "anonymous", wire.AppendUvarint(hello, identity.AuthAnonymous))
	hello = wire.AppendUvarint(hello, identity.AuthVersion)
	hello = wire.AppendBytes(hello, nonce)
	hello = identity.AppendAnnounce(hello, relay0.Announce())
	hello = wire.AppendBytes(hello, sig)
	write("overlay", "FuzzDecodePeerHello", "authenticated", hello)

	// core: the connect request and its reply (DESIGN.md, "Control-frame
	// bodies"). The request nests the initiator's profile, then the
	// method it launches first and a splice endpoint per establishment of
	// its four-stream stack; the reply is the acceptor's profile and its
	// own four endpoints.
	splice := make([]emunet.Endpoint, 4)
	for i := range splice {
		splice[i] = emunet.Endpoint{Addr: "10.1.0.1", Port: 40001 + i}
	}
	connect := wire.AppendString(nil, "inbox")
	typeDigest := sha256.Sum256(wire.AppendString(wire.AppendString(nil, "chan"), "zip/multi:streams=4/tcpblk"))
	connect = wire.AppendBytes(connect, typeDigest[:])
	connect = wire.AppendString(connect, "alice")
	connect = wire.AppendString(connect, "pool")
	connect = wire.AppendBytes(connect, estab.Profile{
		SiteName: "site-a", Firewalled: true, Addr: "10.1.0.2", PublicAddr: "10.1.0.1",
		HasRelay: true, RelayID: "pool/alice", HomeRelay: "relay-0",
	}.Encode())
	connect = estab.AppendEndpoints(append(connect, byte(estab.Routed)), splice)
	write("core", "FuzzDecodeConnectRequest", "request", connect)
	write("core", "FuzzDecodeConnectRequest", "request-truncated", connect[:len(connect)-9])

	reply := wire.AppendBytes(nil, estab.Profile{
		SiteName: "site-b", Firewalled: true, Addr: "10.2.0.2", PublicAddr: "10.2.0.2",
		HasRelay: true, RelayID: "pool/bob", HomeRelay: "relay-1",
	}.Encode())
	write("core", "FuzzDecodeConnectReply", "reply-no-splice", estab.AppendEndpoints(reply, nil))
	reply = estab.AppendEndpoints(reply, splice)
	write("core", "FuzzDecodeConnectReply", "reply", reply)
	write("core", "FuzzDecodeConnectReply", "reply-truncated", reply[:len(reply)-5])

	// estab: one mux message per type, whole and cut by a byte (uvarint
	// stream ‖ byte method ‖ byte type ‖ body; the type numbers and the
	// bodies are in DESIGN.md, "Control-frame bodies").
	endpoint := wire.AppendUvarint(wire.AppendString(nil, "10.1.0.2"), 40001)
	for _, m := range []struct {
		name   string
		method estab.Method
		t      byte
		body   []byte
	}{
		{"listen", estab.ClientServer, 1, endpoint},
		{"routed", estab.Routed, 2, nil},
		{"abort", estab.Proxy, 3, nil},
		{"elect", estab.MethodNone, 4, []byte{byte(estab.Splicing)}},
	} {
		full := append(append(wire.AppendUvarint(nil, 3), byte(m.method), m.t), m.body...)
		write("estab", "FuzzMuxMessage", m.name, full)
		write("estab", "FuzzMuxMessage", m.name+"-truncated", full[:len(full)-1])
	}

	// drivers/secure: one sealed record under FuzzSealInput's fixed key,
	// whole and cut mid-record.
	var sealed sink
	so, err := secure.NewSealOutput(&sealed, bytes.Repeat([]byte{7}, 32), 0)
	if err != nil {
		log.Fatal(err)
	}
	so.Write([]byte("one sealed record"))
	so.Flush()
	write("drivers/secure", "FuzzSealInput", "one-record", sealed.Bytes())
	write("drivers/secure", "FuzzSealInput", "one-record-truncated", sealed.Bytes()[:sealed.Len()-5])

	// drivers/tcpblk: data frames around a skipped keep-alive, one of a
	// single byte (it fits a 1-byte read), then the close frame; whole and
	// cut inside the last data frame.
	var blk bytes.Buffer
	bw := wire.NewWriter(&blk)
	bw.WriteFrame(wire.KindData, 0, []byte("one block"))
	bw.WriteFrame(wire.KindKeepAlive, 0, []byte("skipped"))
	bw.WriteFrame(wire.KindData, 0, []byte("!"))
	bw.WriteFrame(wire.KindData, 0, bytes.Repeat([]byte{0x5a}, 300))
	cut := blk.Len() - 3
	bw.WriteFrame(wire.KindClose, 0, nil)
	write("drivers/tcpblk", "FuzzTcpblkInput", "frames", blk.Bytes())
	write("drivers/tcpblk", "FuzzTcpblkInput", "frames-truncated", blk.Bytes()[:cut])

	// drivers/zip and drivers/multi: one valid stream each, whole and cut
	// by a byte.
	var zipped sink
	zo := zip.NewOutputOptions(&zipped, zip.Options{})
	zo.Write(bytes.Repeat([]byte("one compressed block "), 40))
	zo.Flush()
	write("drivers/zip", "FuzzZipInput", "one-block", zipped.Bytes())
	write("drivers/zip", "FuzzZipInput", "one-block-truncated", zipped.Bytes()[:zipped.Len()-1])

	// drivers/zip FuzzInflate: raw DEFLATE streams and their lengths. The
	// zip driver's own encoder writes a fixed block (short input) and a
	// dynamic one, each also cut by a byte. The committed "stored" and
	// "level9" seeds are compress/flate's stored blocks and multi-block
	// stream at its highest level; they are kept as they are, since only
	// the tests link compress/flate.
	records := bytes.Repeat([]byte("record=7 velocity=0.000000 energy=3.141592\n"), 64)
	for _, c := range []struct {
		name string
		src  []byte
	}{{"fixed", []byte("one compressed block")}, {"dynamic", records}} {
		var z sink
		zo := zip.NewOutputOptions(&z, zip.Options{})
		zo.Write(bytes.Repeat(c.src, 3))
		zo.Flush()
		stream := z.Bytes()[9:] // the block's 9-byte header
		write("drivers/zip", "FuzzInflate", c.name, stream, uint32(3*len(c.src)))
		write("drivers/zip", "FuzzInflate", c.name+"-truncated", stream[:len(stream)-1], uint32(3*len(c.src)))
	}

	// drivers/multi: each sub-stream starts with its stream index, written
	// as multi's builder writes it.
	var sub0, sub1 sink
	sub0.Write(wire.AppendUvarint(nil, 0))
	sub1.Write(wire.AppendUvarint(nil, 1))
	mo := multi.NewOutput([]driver.Output{&sub0, &sub1}, 8)
	mo.Write([]byte("fragments striped over two sub-streams"))
	mo.Close()
	write("drivers/multi", "FuzzMultiInput", "two-streams", sub0.Bytes(), sub1.Bytes())
	write("drivers/multi", "FuzzMultiInput", "two-streams-truncated", sub0.Bytes(), sub1.Bytes()[:sub1.Len()-1])

	fmt.Println("corpus written")
}
