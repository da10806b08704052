// Package core assembles the FT-Cache system: it boots a fleet of HVAC
// servers over a shared PFS, hands out clients wired with one of the
// three fault-tolerance strategies, and exposes the failure-injection
// controls the experiments use. This is the library surface examples and
// integration tests program against; the root package repro re-exports
// it.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/ftcache"
	"repro/internal/ftpolicy"
	"repro/internal/hvac"
	"repro/internal/loadctl"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// NodeID aliases the cluster-wide node identifier.
type NodeID = cluster.NodeID

// FailureMode selects how a node is taken down.
type FailureMode uint8

// Failure modes.
const (
	// FailUnresponsive leaves connections up but the server silent —
	// the network-timeout failure the paper's detector targets.
	FailUnresponsive FailureMode = iota
	// FailKill closes the server and all its connections outright.
	FailKill
)

// ClusterConfig configures a live in-process (or TCP) FT-Cache cluster.
type ClusterConfig struct {
	// Nodes is the number of HVAC server nodes.
	Nodes int
	// Strategy selects the fault-tolerance policy new clients get.
	Strategy ftcache.StrategyKind
	// VirtualNodes per physical node for the ring strategy; <= 0 selects
	// the paper's 100.
	VirtualNodes int
	// RPCTimeout is the client TTL per request; <= 0 selects 500ms.
	RPCTimeout time.Duration
	// TimeoutLimit is the detector threshold; <= 0 selects the default.
	TimeoutLimit int
	// NVMeCapacity bounds each node's cache; 0 = unbounded.
	NVMeCapacity int64
	// RAMCapacity, when > 0, gives each server an in-memory hot-object
	// tier of this many bytes above its NVMe cache (see
	// hvac.ServerConfig.RAMCapacity). 0 disables the tier.
	RAMCapacity int64
	// Replication, when > 1 with the ring strategy, keeps that many
	// cached copies of every file on distinct ring owners (extension:
	// failover without any PFS traffic, at Replication× cache cost).
	Replication int
	// Network defaults to a fresh in-process network.
	Network rpc.Network
	// LoadControl, when non-nil, enables the hot-object load-control
	// subsystem on every client this cluster hands out (see loadctl).
	LoadControl *loadctl.Config
	// AdmissionLimit enables server-side admission control: each server
	// serves at most this many reads concurrently, queues AdmissionQueue
	// more, and sheds the rest with an explicit overload status.
	// <= 0 disables shedding.
	AdmissionLimit int
	// AdmissionQueue is the per-server wait-line depth; < 0 selects
	// AdmissionLimit.
	AdmissionQueue int
	// ReadDelay simulates per-read device service time on every server,
	// giving nodes finite capacity (see hvac.ServerConfig.ReadDelay).
	ReadDelay time.Duration
	// Retry, when non-nil, gives every client the bounded-backoff retry
	// policy for connection-class RPC failures (see rpc.RetryPolicy).
	Retry *rpc.RetryPolicy
	// Ingest, when non-nil, enables the batched async ingest pipeline on
	// every client this cluster hands out (see hvac.IngestConfig).
	Ingest *hvac.IngestConfig
}

// Cluster is a running FT-Cache deployment.
type Cluster struct {
	cfg     ClusterConfig
	network rpc.Network
	pfs     *storage.PFS
	servers map[NodeID]*hvac.Server
	nodes   []NodeID
	killed  map[NodeID]bool
}

// NewCluster boots cfg.Nodes HVAC servers over a fresh PFS.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, errors.New("core: Nodes must be positive")
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = 500 * time.Millisecond
	}
	if cfg.Strategy == "" {
		cfg.Strategy = ftcache.KindNVMe
	}
	network := cfg.Network
	if network == nil {
		network = rpc.NewInprocNetwork()
	}
	c := &Cluster{
		cfg:     cfg,
		network: network,
		pfs:     storage.NewPFS(),
		servers: make(map[NodeID]*hvac.Server, cfg.Nodes),
		killed:  make(map[NodeID]bool),
	}
	for i := 0; i < cfg.Nodes; i++ {
		node := NodeID(fmt.Sprintf("node-%04d", i))
		srv := hvac.NewServer(hvac.ServerConfig{
			Node:           node,
			NVMeCapacity:   cfg.NVMeCapacity,
			RAMCapacity:    cfg.RAMCapacity,
			AdmissionLimit: cfg.AdmissionLimit,
			AdmissionQueue: cfg.AdmissionQueue,
			ReadDelay:      cfg.ReadDelay,
		}, c.pfs)
		lis, err := network.Listen(string(node))
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("core: listen %s: %w", node, err)
		}
		go srv.Serve(lis)
		c.servers[node] = srv
		c.nodes = append(c.nodes, node)
	}
	return c, nil
}

// Nodes returns all node IDs (including killed ones) in boot order.
func (c *Cluster) Nodes() []NodeID { return append([]NodeID(nil), c.nodes...) }

// PFS returns the shared parallel file system.
func (c *Cluster) PFS() *storage.PFS { return c.pfs }

// Server returns a node's server handle (nil for unknown nodes).
func (c *Cluster) Server(n NodeID) *hvac.Server { return c.servers[n] }

// Stage loads a dataset onto the PFS (the pre-run staging step).
func (c *Cluster) Stage(ds workload.Dataset) (int64, error) { return ds.Stage(c.pfs) }

// NewClient creates a client with its own strategy instance and failure
// detector — mirroring the paper, where every rank detects and reroutes
// independently.
func (c *Cluster) NewClient() (*hvac.Client, hvac.Router, error) {
	return c.NewClientNet(c.network)
}

// NewClientNet is NewClient over an explicit network view — the hook
// chaos testing uses to give each client its own per-source view of the
// fault-injected network while servers listen on the shared inner one.
func (c *Cluster) NewClientNet(network rpc.Network) (*hvac.Client, hvac.Router, error) {
	router := ftcache.NewRouter(c.cfg.Strategy, c.Nodes(), c.cfg.VirtualNodes)
	if router.Ring() != nil {
		// Latest wins: the endpoint shows a ring some client routes with.
		telemetry.Default().RegisterDebug("ring", router.DebugSnapshot)
	} else if c.cfg.Replication > 1 {
		// Modulo placement has no successors to hold the copies: refuse
		// instead of silently not replicating.
		return nil, nil, fmt.Errorf("core: Replication > 1 requires a ring strategy, not %q", c.cfg.Strategy)
	}
	endpoints := make(map[NodeID]string, len(c.nodes))
	for _, n := range c.nodes {
		endpoints[n] = string(n)
	}
	cli, err := hvac.NewClient(hvac.ClientConfig{
		Endpoints:         endpoints,
		Network:           network,
		Router:            router,
		PFS:               c.pfs,
		RPCTimeout:        c.cfg.RPCTimeout,
		TimeoutLimit:      c.cfg.TimeoutLimit,
		ReplicationFactor: c.cfg.Replication,
		LoadControl:       c.cfg.LoadControl,
		Retry:             c.cfg.Retry,
		Ingest:            c.cfg.Ingest,
		Manifest:          c.pfs.Paths,
	})
	if err != nil {
		return nil, nil, err
	}
	return cli, router, nil
}

// NewAdaptiveClientNet is NewClientNet for adaptive-strategy clusters:
// it returns the client together with its switchable strategy and, when
// ctl is non-nil, attaches both to the policy controller so the
// client's detector feeds the control loop and committed decisions
// swap this client's routing. The cluster must have been built with
// Strategy == ftcache.KindAdaptive.
func (c *Cluster) NewAdaptiveClientNet(network rpc.Network, ctl *ftpolicy.Controller) (*hvac.Client, *ftcache.Strategy, error) {
	if c.cfg.Strategy != ftcache.KindAdaptive {
		return nil, nil, fmt.Errorf("core: cluster strategy %q is not adaptive", c.cfg.Strategy)
	}
	cli, router, err := c.NewClientNet(network)
	if err != nil {
		return nil, nil, err
	}
	sw := router.(*ftcache.Strategy)
	if ctl != nil {
		ctl.Attach(cli, sw)
	}
	return cli, sw, nil
}

// PolicyProbe returns a PFS-latency probe for the adaptive policy
// controller: one timed Get of a staged path per tick. The probe sees
// the same injected contention delay every real PFS consumer does.
func (c *Cluster) PolicyProbe(path string) func() (time.Duration, bool) {
	return func() (time.Duration, bool) {
		t0 := time.Now()
		_, err := c.pfs.Get(path)
		return time.Since(t0), err == nil
	}
}

// Fail takes node down in the given mode. Unknown nodes are an error;
// failing a node twice is a no-op.
func (c *Cluster) Fail(node NodeID, mode FailureMode) error {
	srv, ok := c.servers[node]
	if !ok {
		return fmt.Errorf("core: unknown node %s", node)
	}
	if c.killed[node] {
		return nil
	}
	c.killed[node] = true
	switch mode {
	case FailUnresponsive:
		srv.SetUnresponsive(true)
	case FailKill:
		srv.Close()
	default:
		return fmt.Errorf("core: unknown failure mode %d", mode)
	}
	return nil
}

// Revive brings a failed node back (elastic scale-up): an unresponsive
// server resumes answering with its cache intact; a killed server is
// replaced by a fresh daemon with an empty cache, as a rebooted node
// would be. Clients learn about the recovery via Client.ReviveNode.
func (c *Cluster) Revive(node NodeID) error {
	srv, ok := c.servers[node]
	if !ok {
		return fmt.Errorf("core: unknown node %s", node)
	}
	if !c.killed[node] {
		return nil
	}
	if srv.Unresponsive() {
		srv.SetUnresponsive(false)
	} else {
		// Hard-killed: boot a replacement daemon under the same identity.
		// The replacement gets the same RAMCapacity — a rebooted node's
		// RAM tier starts empty (construction guarantees that) but must
		// not come back silently disabled.
		fresh := hvac.NewServer(hvac.ServerConfig{
			Node:           node,
			NVMeCapacity:   c.cfg.NVMeCapacity,
			RAMCapacity:    c.cfg.RAMCapacity,
			AdmissionLimit: c.cfg.AdmissionLimit,
			AdmissionQueue: c.cfg.AdmissionQueue,
			ReadDelay:      c.cfg.ReadDelay,
		}, c.pfs)
		lis, err := c.network.Listen(string(node))
		if err != nil {
			return fmt.Errorf("core: relisten %s: %w", node, err)
		}
		go fresh.Serve(lis)
		c.servers[node] = fresh
	}
	delete(c.killed, node)
	return nil
}

// Failed reports whether node has been taken down.
func (c *Cluster) Failed(node NodeID) bool { return c.killed[node] }

// AliveNodes returns nodes not taken down, in boot order.
func (c *Cluster) AliveNodes() []NodeID {
	out := make([]NodeID, 0, len(c.nodes))
	for _, n := range c.nodes {
		if !c.killed[n] {
			out = append(out, n)
		}
	}
	return out
}

// FlushMovers waits for every live server's data mover to drain, making
// async recaching deterministic for tests and experiments.
func (c *Cluster) FlushMovers() {
	for n, s := range c.servers {
		if !c.killed[n] {
			s.Mover().Flush()
		}
	}
}

// WarmCache places every dataset file on its healthy-state owner's NVMe
// (and, with Replication > 1, on the secondary owners too), emulating a
// completed first epoch ("all data is cached before the failure event",
// §V-A.3). It uses a fresh strategy instance so the placement matches
// what clients will compute.
func (c *Cluster) WarmCache(ds workload.Dataset) error {
	router := ftcache.NewRouter(c.cfg.Strategy, c.Nodes(), c.cfg.VirtualNodes)
	for i := 0; i < ds.NumFiles; i++ {
		path := ds.FilePath(i)
		var targets []NodeID
		if c.cfg.Replication > 1 {
			targets = router.Replicas(path, c.cfg.Replication)
		}
		if len(targets) == 0 {
			d := router.Route(path)
			if d.Kind != hvac.RouteNode {
				return fmt.Errorf("core: warm route for %s gave kind %d", path, d.Kind)
			}
			targets = []NodeID{d.Node}
		}
		body := ds.SampleContent(i)
		for _, node := range targets {
			srv := c.servers[node]
			if srv == nil {
				return fmt.Errorf("core: warm route to unknown node %s", node)
			}
			if err := srv.NVMe().Put(path, body); err != nil {
				return fmt.Errorf("core: warm %s: %w", path, err)
			}
		}
	}
	return nil
}

// CacheStats aggregates NVMe object counts across live servers.
func (c *Cluster) CacheStats() (objects int, bytes int64) {
	for n, s := range c.servers {
		if c.killed[n] {
			continue
		}
		o, b := s.NVMe().Stats()
		objects += o
		bytes += b
	}
	return objects, bytes
}

// VerifyRead is a convenience for smoke tests: read path via cli and
// check the content against the dataset generator.
func VerifyRead(ctx context.Context, cli *hvac.Client, ds workload.Dataset, i int) error {
	path := ds.FilePath(i)
	got, err := cli.Read(ctx, path)
	if err != nil {
		return err
	}
	want := ds.SampleContent(i)
	if len(got) != len(want) {
		return fmt.Errorf("core: %s length %d, want %d", path, len(got), len(want))
	}
	for j := range got {
		if got[j] != want[j] {
			return fmt.Errorf("core: %s corrupt at byte %d", path, j)
		}
	}
	return nil
}

// Close shuts every server down (idempotent, including servers already
// killed by fault injection).
func (c *Cluster) Close() {
	for _, s := range c.servers {
		s.Close()
	}
}
