// Command netibis-relay runs the routed-messages relay (paper Section
// 3.3, Figure 3) as a stand-alone daemon on a real TCP socket, for
// deployments where a gateway machine relays traffic for nodes that have
// no other way to communicate.
//
// With --nameserver (and/or --join) the relay federates into a mesh
// (package overlay): it registers itself in the Ibis Name Service,
// discovers the other relays, forms peer links and forwards routed
// frames to nodes attached elsewhere in the mesh. For example:
//
//	netibis-relay -listen :4500 -id relay-a -nameserver ns.example.org:4000
//	netibis-relay -listen :4501 -id relay-b -nameserver ns.example.org:4000
//
// or, without a name service, a static mesh:
//
//	netibis-relay -listen :4500 -id relay-a
//	netibis-relay -listen :4501 -id relay-b -join gw-a.example.org:4500
package main

import (
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"netibis/internal/identity"
	"netibis/internal/nameservice"
	"netibis/internal/obs"
	"netibis/internal/overlay"
	"netibis/internal/relay"
)

func main() {
	addr := flag.String("listen", ":4500", "TCP address to listen on")
	id := flag.String("id", "", "relay mesh ID (defaults to the listen address)")
	nameserver := flag.String("nameserver", "", "Ibis Name Service address for mesh registration and discovery")
	join := flag.String("join", "", "comma-separated peer relay addresses to join statically")
	advertise := flag.String("advertise", "", "address peers and nodes dial to reach this relay (defaults to the listen address)")
	identityFile := flag.String("identity", "",
		"Ed25519 identity file for this relay (generated and persisted on first use); enables signed registry records and lets the relay prove itself to nodes and peers")
	trustFile := flag.String("trust", "",
		"trust file (netibis-trust-v1: 'authority <hex>' / 'pin <name> <hex>' lines); makes node attaches and peer links mandatory-authenticated and discovery signature-checked")
	metricsAddr := flag.String("metrics", "",
		"address to serve /metrics (Prometheus text) and /debug/events (trace ring) on; off by default — the endpoint is unauthenticated, bind it to loopback or an ops network only")
	flag.Parse()

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("netibis-relay: listen %s: %v", *addr, err)
	}
	srv := relay.NewServer()
	log.Printf("netibis-relay: listening on %s", l.Addr())

	// Observability is opt-in: with no -metrics flag nothing listens and
	// the instrumentation cost is the hot-path atomic adds only.
	var obsReg *obs.Registry
	var obsTrace *obs.Trace
	if *metricsAddr != "" {
		obsReg = obs.NewRegistry()
		obsTrace = obs.NewTrace(obs.DefaultTraceEvents)
		srv.SetTrace(obsTrace)
		srv.MetricsInto(obsReg)
	}

	var relayIdent *identity.Identity
	var trust *identity.TrustStore
	if *identityFile != "" {
		name := *id
		if name == "" {
			name = l.Addr().String()
		}
		var created bool
		relayIdent, created, err = identity.LoadOrGenerate(*identityFile, name)
		if err != nil {
			log.Fatalf("netibis-relay: identity %s: %v", *identityFile, err)
		}
		if created {
			log.Printf("netibis-relay: generated identity %q in %s (pin or certify its public key to trust it)", name, *identityFile)
		} else if relayIdent.Name != name {
			log.Fatalf("netibis-relay: identity file %s is named %q, want %q", *identityFile, relayIdent.Name, name)
		}
	}
	if *trustFile != "" {
		trust, err = identity.LoadTrust(*trustFile)
		if err != nil {
			log.Fatalf("netibis-relay: trust %s: %v", *trustFile, err)
		}
		log.Printf("netibis-relay: trust loaded; node attaches and peer links must authenticate")
	}
	if relayIdent != nil || trust != nil {
		srv.SetAuth(relay.AuthConfig{Identity: relayIdent, Trust: trust})
	}
	if relayIdent != nil {
		// The attach transcript binds the server ID the relay announces;
		// it must match the name the identity is certified for even when
		// the overlay (which normally sets the ID) is not enabled.
		srv.SetID(relayIdent.Name)
	}

	var mesh *overlay.Relay
	// Any federation flag enables the overlay. A bare -id is enough: such
	// a relay accepts peer links and forwards, and other relays reach it
	// via their own -join or -nameserver configuration (the file-header
	// static-mesh example relies on exactly that).
	if *nameserver != "" || *join != "" || *id != "" {
		meshID := *id
		if meshID == "" {
			meshID = l.Addr().String()
		}
		adv := *advertise
		if adv == "" {
			adv = l.Addr().String()
		}
		// A wildcard listen address is not dialable; registering it in
		// the name service would silently break discovery for the whole
		// mesh, so demand an explicit -advertise instead.
		if *nameserver != "" {
			if host, _, err := net.SplitHostPort(adv); err == nil {
				if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
					log.Fatalf("netibis-relay: advertise address %q is not dialable; pass -advertise host:port when listening on a wildcard address", adv)
				}
			}
		}
		var registry *nameservice.Client
		if *nameserver != "" {
			nsConn, err := net.Dial("tcp", *nameserver)
			if err != nil {
				log.Fatalf("netibis-relay: nameserver %s: %v", *nameserver, err)
			}
			registry = nameservice.NewClient(nsConn)
		}
		mesh, err = overlay.New(overlay.Config{
			ID:        meshID,
			Server:    srv,
			Advertise: adv,
			Registry:  registry,
			Dial: func(addr string) (net.Conn, error) {
				return net.DialTimeout("tcp", addr, 10*time.Second)
			},
			Identity: relayIdent,
			Trust:    trust,
			Trace:    obsTrace,
		})
		if err != nil {
			log.Fatalf("netibis-relay: overlay: %v", err)
		}
		for _, peer := range strings.Split(*join, ",") {
			if peer = strings.TrimSpace(peer); peer == "" {
				continue
			}
			if err := mesh.AddPeer(peer); err != nil {
				log.Printf("netibis-relay: join %s: %v (will keep serving)", peer, err)
			}
		}
		log.Printf("netibis-relay: federated as %q (peers: %v)", meshID, mesh.Peers())
		if obsReg != nil {
			mesh.MetricsInto(obsReg)
		}
	}

	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatalf("netibis-relay: metrics listen %s: %v", *metricsAddr, err)
		}
		log.Printf("netibis-relay: serving /metrics and /debug/events on %s (unauthenticated; keep it off untrusted networks)", mln.Addr())
		go func() {
			if err := http.Serve(mln, obs.NewHandler(obsReg, obsTrace)); err != nil {
				log.Printf("netibis-relay: metrics serve: %v", err)
			}
		}()
	}

	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		st := srv.Stats()
		log.Printf("netibis-relay: shutting down (%d frames, %d bytes routed, %d forwarded to mesh, %d nodes attached)",
			st.FramesRouted, st.BytesRouted, st.FramesForwarded, len(srv.AttachedNodes()))
		if mesh != nil {
			mesh.Close()
		}
		srv.Close()
		os.Exit(0)
	}()

	if err := srv.Serve(l); err != nil {
		log.Printf("netibis-relay: serve: %v", err)
	}
}
