// Command netibis-perf measures point-to-point bandwidth of the NetIbis
// link utilization stacks over real TCP sockets, the way the paper's
// quantitative evaluation measures its WAN links. Run one side with
// -server on the receiving machine and one side with -connect on the
// sending machine; the sender reports the achieved application-level
// bandwidth for the chosen driver stack.
//
//	netibis-perf -server -listen :9100
//	netibis-perf -connect host:9100 -stack zip/multi:streams=4/tcpblk -bytes 64000000
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"time"

	"netibis/internal/driver"
	_ "netibis/internal/drivers"
	"netibis/internal/workload"
)

func main() {
	server := flag.Bool("server", false, "run as the receiving side")
	listen := flag.String("listen", ":9100", "server: TCP address to listen on")
	connect := flag.String("connect", "", "client: server address to connect to")
	stackSpec := flag.String("stack", "tcpblk", "driver stack, e.g. zip/multi:streams=4/tcpblk")
	totalBytes := flag.Int64("bytes", 64<<20, "client: payload bytes to transfer")
	kind := flag.String("workload", "grid-records", "payload kind: text-like, grid-records, mixed, random")
	seed := flag.Int64("seed", 1, "payload generator seed; the same seed replays the exact same bytes")
	flag.Parse()

	stack, err := driver.ParseStack(*stackSpec)
	if err != nil {
		log.Fatalf("netibis-perf: %v", err)
	}
	switch {
	case *server:
		runServer(*listen, stack)
	case *connect != "":
		runClient(*connect, stack, *totalBytes, parseKind(*kind), *seed)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func parseKind(s string) workload.Kind {
	switch s {
	case "text-like":
		return workload.TextLike
	case "mixed":
		return workload.Mixed
	case "random":
		return workload.Random
	default:
		return workload.Grid
	}
}

// runServer accepts the connections of one measurement (one per
// sub-stream of the configured stack) and drains the data.
func runServer(addr string, stack driver.Stack) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("netibis-perf: listen: %v", err)
	}
	log.Printf("netibis-perf: receiving on %s with stack %s", l.Addr(), stack)
	for {
		env := &driver.Env{Accept: func() (net.Conn, error) { return l.Accept() }}
		in, err := driver.BuildInput(stack, env)
		if errors.Is(err, driver.ErrBadParam) {
			log.Fatalf("netibis-perf: build input: %v", err) // fails alike on every attempt
		}
		if err != nil {
			log.Printf("netibis-perf: build input: %v", err)
			continue
		}
		start := time.Now()
		n, err := io.Copy(io.Discard, in)
		elapsed := time.Since(start)
		in.Close()
		if err != nil && err != io.EOF {
			log.Printf("netibis-perf: receive: %v", err)
			continue
		}
		if n > 0 {
			log.Printf("netibis-perf: received %d bytes in %v (%.2f MB/s)",
				n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds()/1e6)
		}
	}
}

// runClient connects, pushes the payload through the stack and reports
// the achieved bandwidth.
func runClient(addr string, stack driver.Stack, totalBytes int64, kind workload.Kind, seed int64) {
	env := &driver.Env{Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) }}
	out, err := driver.BuildOutput(stack, env)
	if err != nil {
		log.Fatalf("netibis-perf: build output: %v", err)
	}
	payload := workload.Generate(kind, 1<<20, seed)

	start := time.Now()
	var sent int64
	for sent < totalBytes {
		chunk := payload
		if remaining := totalBytes - sent; remaining < int64(len(chunk)) {
			chunk = chunk[:remaining]
		}
		if _, err := out.Write(chunk); err != nil {
			log.Fatalf("netibis-perf: write: %v", err)
		}
		sent += int64(len(chunk))
	}
	if err := out.Flush(); err != nil {
		log.Fatalf("netibis-perf: flush: %v", err)
	}
	if err := out.Close(); err != nil {
		log.Fatalf("netibis-perf: close: %v", err)
	}
	elapsed := time.Since(start)
	fmt.Printf("stack %-40s workload %-12s %10d bytes in %10v  %8.2f MB/s\n",
		stack, kind, sent, elapsed.Round(time.Millisecond), float64(sent)/elapsed.Seconds()/1e6)
}
