package core

import (
	"fmt"
	"net"
	"time"

	"netibis/internal/emunet"
	"netibis/internal/identity"
	"netibis/internal/nameservice"
	"netibis/internal/overlay"
	"netibis/internal/relay"
	"netibis/internal/socks"
)

// Well-known gateway ports used by Deployment.
const (
	RegistryPort = 4000
	RelayPort    = 4500
	SocksPort    = 1080
)

// meshRescanInterval is the overlay discovery interval used on emulated
// deployments; the real default is far too slow for tests.
const meshRescanInterval = 25 * time.Millisecond

// RelayInstance is one member of a deployment's relay mesh.
type RelayInstance struct {
	// Name is the relay's mesh ID ("relay-0", "relay-1", ...).
	Name string
	// Host is the gateway machine the relay runs on.
	Host *emunet.Host
	// Server is the relay process itself.
	Server *relay.Server
	// Overlay federates the server into the mesh.
	Overlay *overlay.Relay

	registry *nameservice.Client
}

// Endpoint returns the address nodes dial to attach to this relay.
func (ri *RelayInstance) Endpoint() emunet.Endpoint {
	return emunet.Endpoint{Addr: ri.Host.Address(), Port: RelayPort}
}

// Close stops the relay gracefully: it leaves the mesh and unregisters
// from the name service.
func (ri *RelayInstance) Close() {
	ri.Overlay.Close()
	ri.Server.Close()
	ri.registry.Close()
}

// Kill simulates a crash: the relay stops without unregistering, so its
// stale registry record lingers — exactly the situation surviving relays
// and reattaching nodes must cope with.
func (ri *RelayInstance) Kill() {
	ri.Overlay.Kill()
	ri.Server.Close()
	ri.registry.Close()
}

// Deployment bundles the shared grid infrastructure of a NetIbis run on
// an emulated internetwork: a public gateway site hosting the Ibis Name
// Service, a mesh of one or more routed-messages relays and a SOCKS
// proxy. Examples, tests and benchmarks build their multi-site worlds
// around one Deployment.
type Deployment struct {
	Fabric  *emunet.Fabric
	Gateway *emunet.Host

	Registry *nameservice.Server
	Relays   []*RelayInstance
	Socks    *socks.Server

	// CA and Trust are set on secure deployments (see
	// NewSecureFederatedDeployment): the deployment certificate
	// authority that issued every relay's identity, and the trust store
	// distributed to relays and (via SecureNodeConfig) nodes.
	CA    *identity.Authority
	Trust *identity.TrustStore
}

// NewDeployment creates the gateway site and starts the shared services
// with a single relay.
func NewDeployment(f *emunet.Fabric) (*Deployment, error) {
	return NewFederatedDeployment(f, 1)
}

// NewFederatedDeployment creates the gateway site and starts the shared
// services with a mesh of relayCount federated relays. The first relay
// runs on the gateway host itself (so RelayEndpoint keeps meaning what
// it always did); additional relays get their own public gateway hosts.
// The function returns once every relay holds a peer link to every
// other, so callers can rely on the mesh being formed.
func NewFederatedDeployment(f *emunet.Fabric, relayCount int) (*Deployment, error) {
	return newFederatedDeployment(f, relayCount, nil)
}

// NewSecureFederatedDeployment is NewFederatedDeployment under a
// deployment certificate authority: the registry enforces signed relay
// and node records, every relay runs with an issued identity and the
// CA's trust store (authenticated attaches, authenticated peer links),
// and SecureNodeConfig issues node identities so routed links run
// sealed end to end ("secure" in a stack is keyed by them too).
func NewSecureFederatedDeployment(f *emunet.Fabric, relayCount int, ca *identity.Authority) (*Deployment, error) {
	if ca == nil {
		var err error
		if ca, err = identity.NewAuthority(); err != nil {
			return nil, err
		}
	}
	return newFederatedDeployment(f, relayCount, ca)
}

// NewSpreadFederatedDeployment is NewFederatedDeployment with each relay
// placed in its own public site (RelaySiteName) instead of all sharing
// the gateway. Relay-to-relay traffic then crosses distinct WAN links,
// so chaos scenarios can partition, impair or jitter individual
// relay pairs with Fabric.SetLink/Partition — the topology the churn
// engine drives. The registry and SOCKS proxy stay on the gateway site,
// so a partition between two relay sites never cuts either relay off
// from discovery. Pass ca to run the spread mesh secured (nil for a
// plain mesh).
func NewSpreadFederatedDeployment(f *emunet.Fabric, relayCount int, ca *identity.Authority) (*Deployment, error) {
	d, err := newDeployment(f, relayCount, ca, true)
	return d, err
}

func newFederatedDeployment(f *emunet.Fabric, relayCount int, ca *identity.Authority) (*Deployment, error) {
	return newDeployment(f, relayCount, ca, false)
}

// RelaySiteName is the fabric site hosting relay i of a spread
// deployment (see NewSpreadFederatedDeployment).
func RelaySiteName(i int) string { return fmt.Sprintf("relay-site-%d", i) }

func newDeployment(f *emunet.Fabric, relayCount int, ca *identity.Authority, spread bool) (*Deployment, error) {
	if relayCount < 1 {
		relayCount = 1
	}
	gwSite := f.AddSite("gateway", emunet.SiteConfig{Firewall: emunet.Open})
	gw := gwSite.AddHost("gateway")

	d := &Deployment{Fabric: f, Gateway: gw}
	if ca != nil {
		d.CA = ca
		d.Trust = ca.TrustStore()
	}

	regL, err := gw.Listen(RegistryPort)
	if err != nil {
		return nil, fmt.Errorf("deployment: registry listener: %w", err)
	}
	d.Registry = nameservice.NewServer()
	if d.Trust != nil {
		d.Registry.SetVerifier(identity.RegistryVerifier(d.Trust))
	}
	go d.Registry.Serve(regL)

	for i := 0; i < relayCount; i++ {
		name := fmt.Sprintf("relay-%d", i)
		var host *emunet.Host
		switch {
		case spread:
			site := f.AddSite(RelaySiteName(i), emunet.SiteConfig{Firewall: emunet.Open})
			host = site.AddHost(name)
		case i == 0:
			host = gw
		default:
			host = gwSite.AddHost(name)
		}
		ri, err := startRelay(d, name, host)
		if err != nil {
			return nil, err
		}
		d.Relays = append(d.Relays, ri)
	}
	socksL, err := gw.Listen(SocksPort)
	if err != nil {
		return nil, fmt.Errorf("deployment: socks listener: %w", err)
	}
	d.Socks = socks.NewServer(func(host string, port int) (net.Conn, error) {
		return gw.Dial(emunet.Endpoint{Addr: emunet.Address(host), Port: port})
	}, nil)
	go d.Socks.Serve(socksL)

	if err := d.waitForMesh(5 * time.Second); err != nil {
		return nil, err
	}
	return d, nil
}

// startRelay launches one relay server plus its overlay membership on
// the given gateway host.
func startRelay(d *Deployment, name string, host *emunet.Host) (*RelayInstance, error) {
	l, err := host.Listen(RelayPort)
	if err != nil {
		return nil, fmt.Errorf("deployment: relay %s listener: %w", name, err)
	}
	srv := relay.NewServer()
	var relayIdent *identity.Identity
	if d.CA != nil {
		var err error
		relayIdent, err = d.CA.Issue(name)
		if err != nil {
			return nil, fmt.Errorf("deployment: relay %s identity: %w", name, err)
		}
		srv.SetID(name)
		srv.SetAuth(relay.AuthConfig{Identity: relayIdent, Trust: d.Trust})
	}
	go srv.Serve(l)

	regConn, err := host.Dial(d.RegistryEndpoint())
	if err != nil {
		return nil, fmt.Errorf("deployment: relay %s registry link: %w", name, err)
	}
	regCli := nameservice.NewClient(regConn)
	ov, err := overlay.New(overlay.Config{
		ID:        name,
		Server:    srv,
		Advertise: emunet.Endpoint{Addr: host.Address(), Port: RelayPort}.String(),
		Registry:  regCli,
		Dial: func(addr string) (net.Conn, error) {
			ep, ok := emunet.ParseEndpoint(addr)
			if !ok {
				return nil, fmt.Errorf("deployment: bad relay address %q", addr)
			}
			return host.Dial(ep)
		},
		RescanInterval: meshRescanInterval,
		Identity:       relayIdent,
		Trust:          d.Trust,
	})
	if err != nil {
		regCli.Close()
		return nil, fmt.Errorf("deployment: relay %s overlay: %w", name, err)
	}
	return &RelayInstance{Name: name, Host: host, Server: srv, Overlay: ov, registry: regCli}, nil
}

// RestartRelay brings relay i back after a Kill: a fresh server,
// overlay membership and registry record on the same host and port (the
// crashed server's listener is gone, so the port is free to rebind).
// The restarted instance replaces d.Relays[i]; it rejoins the mesh and
// re-registers, and surviving peers re-peer with it on their next
// rescan. The caller is responsible for having killed the old instance
// first.
func (d *Deployment) RestartRelay(i int) error {
	old := d.Relays[i]
	ri, err := startRelay(d, old.Name, old.Host)
	if err != nil {
		return fmt.Errorf("deployment: restart %s: %w", old.Name, err)
	}
	d.Relays[i] = ri
	return nil
}

// waitForMesh blocks until every relay is peered with every other.
func (d *Deployment) waitForMesh(timeout time.Duration) error {
	want := len(d.Relays) - 1
	if want <= 0 {
		return nil
	}
	deadline := time.Now().Add(timeout)
	for {
		formed := true
		for _, ri := range d.Relays {
			if len(ri.Overlay.Peers()) < want {
				formed = false
				break
			}
		}
		if formed {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("deployment: relay mesh did not form within %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// RegistryEndpoint returns the name service endpoint.
func (d *Deployment) RegistryEndpoint() emunet.Endpoint {
	return emunet.Endpoint{Addr: d.Gateway.Address(), Port: RegistryPort}
}

// RelayEndpoint returns the first relay's endpoint. On classic
// deployments that is the gateway host; on spread deployments the first
// relay's own site host.
func (d *Deployment) RelayEndpoint() emunet.Endpoint {
	if len(d.Relays) > 0 {
		return d.Relays[0].Endpoint()
	}
	return emunet.Endpoint{Addr: d.Gateway.Address(), Port: RelayPort}
}

// SocksEndpoint returns the SOCKS proxy endpoint.
func (d *Deployment) SocksEndpoint() emunet.Endpoint {
	return emunet.Endpoint{Addr: d.Gateway.Address(), Port: SocksPort}
}

// NodeConfig returns a ready-to-use Config for an instance on the given
// host. Sites whose NAT or firewall defeats splicing get the gateway's
// SOCKS proxy configured automatically, mirroring how the paper's
// deployments fell back to site proxies. The instance discovers the
// full relay mesh through the registry and attaches to the nearest
// member.
func (d *Deployment) NodeConfig(host *emunet.Host, pool, name string) Config {
	cfg := Config{
		Name:     name,
		Pool:     pool,
		Host:     host,
		Registry: d.RegistryEndpoint(),
	}
	topo := host.Topology()
	if topo.NAT == emunet.BrokenNAT || topo.NAT == emunet.PortRestrictedNAT || topo.StrictFirewall {
		cfg.Proxy = d.SocksEndpoint()
	}
	return cfg
}

// SecureNodeConfig is NodeConfig on a secure deployment: the node gets
// a CA-issued identity under its relay ID ("pool/name"), the
// deployment's trust store and "secure/tcpblk" as its default stack — its attaches are authenticated,
// its routed links sealed end to end, and a port type that names no
// stack is sealed whatever method carries its data link.
func (d *Deployment) SecureNodeConfig(host *emunet.Host, pool, name string) (Config, error) {
	cfg := d.NodeConfig(host, pool, name)
	if d.CA == nil {
		return cfg, fmt.Errorf("deployment: SecureNodeConfig on a deployment without a CA")
	}
	id, err := d.CA.Issue(pool + "/" + name)
	if err != nil {
		return cfg, err
	}
	cfg.NodeIdentity = id
	cfg.Trust = d.Trust
	cfg.DefaultStack = "secure/tcpblk"
	return cfg, nil
}

// NodeConfigOnRelay is NodeConfig with the instance pinned to the i'th
// relay of the mesh, for scenarios (benchmarks, failover tests) that
// need a deterministic attachment layout.
func (d *Deployment) NodeConfigOnRelay(host *emunet.Host, pool, name string, relayIdx int) Config {
	cfg := d.NodeConfig(host, pool, name)
	cfg.Relays = []emunet.Endpoint{d.Relays[relayIdx].Endpoint()}
	return cfg
}

// AddSite is a convenience wrapper that creates a site and, for strict
// firewalls, whitelists the gateway and relay hosts so the site can
// still reach the shared services.
func (d *Deployment) AddSite(name string, cfg emunet.SiteConfig) *emunet.Site {
	if cfg.Firewall == emunet.Strict {
		cfg.AllowedEgress = append(cfg.AllowedEgress, d.Gateway.Address())
		for _, ri := range d.Relays {
			if ri.Host != d.Gateway {
				cfg.AllowedEgress = append(cfg.AllowedEgress, ri.Host.Address())
			}
		}
	}
	return d.Fabric.AddSite(name, cfg)
}

// Close stops the shared services.
func (d *Deployment) Close() {
	// Relays first: leaving the mesh unregisters from the registry,
	// which must still be running.
	for _, ri := range d.Relays {
		ri.Close()
	}
	d.Registry.Close()
	d.Socks.Close()
}
