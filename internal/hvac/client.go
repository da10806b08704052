package hvac

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/loadctl"
	"repro/internal/rpc"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// DecisionKind says where a read should go.
type DecisionKind uint8

// Routing decisions.
const (
	// RouteNode: ask the HVAC server on Decision.Node.
	RouteNode DecisionKind = iota
	// RoutePFS: bypass the cache layer and read the PFS directly.
	RoutePFS
	// RouteAbort: the job cannot continue (NoFT semantics — the paper's
	// baseline terminates on the first node failure).
	RouteAbort
)

// Decision is a Router verdict for one path.
type Decision struct {
	Kind DecisionKind
	Node cluster.NodeID
}

// Router is the pluggable fault-tolerance policy, and the one interface
// the client consults about placement: it maps paths to targets, absorbs
// failure and recovery notifications, and plans what a membership change
// moves. ftcache.Strategy implements the paper's policies (NoFT, PFS
// redirection, ring recaching). A router with nothing to say to one of
// the three planning questions returns nil. Implementations must be
// goroutine-safe.
type Router interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Route decides where to read path from.
	Route(path string) Decision
	// NodeFailed informs the policy that node was declared failed.
	NodeFailed(node cluster.NodeID)
	// NodeRecovered informs the policy that a failed node was revived, so
	// placement can re-admit it (the ring adds it back; the redirection
	// strategy stops bypassing it).
	NodeRecovered(node cluster.NodeID)
	// Replicas returns up to n distinct live nodes for path, the primary
	// owner first. With ReplicationFactor > 1, objects fetched from the
	// PFS are pushed to the secondaries so a primary failure costs no PFS
	// traffic at all; hot-object fan-out reads from the same set. nil
	// means no secondaries: the routed owner is the only copy.
	Replicas(path string, n int) []cluster.NodeID
	// PlanRecache, called just before NodeFailed(failed), returns which
	// surviving node inherits each of keys that failed owns — the same
	// answer Route gives once the node is dropped. The client ships every
	// receiver its share so the new owners prefetch in parallel instead
	// of missing on one file at a time. nil or empty means recache on
	// demand.
	PlanRecache(failed cluster.NodeID, keys []string) map[cluster.NodeID][]string
	// PlanRejoin is the inverse: the keys node will own once re-added to
	// the placement, which Rejoin warms onto it before NodeRecovered. nil
	// means the node rejoins cold.
	PlanRejoin(node cluster.NodeID, keys []string) []string
}

// Client errors.
var (
	// ErrAborted: the router declared the job dead (NoFT after failure).
	ErrAborted = errors.New("hvac: job aborted - node failed without fault tolerance")
	// ErrNotFound: the path exists on neither cache nor PFS.
	ErrNotFound = errors.New("hvac: file not found")
	// ErrExhausted: retries exhausted without a successful read.
	ErrExhausted = errors.New("hvac: read attempts exhausted")
	// ErrOverloaded: the server shed the request (admission control). The
	// node is alive — this is a redirect signal, never failure evidence.
	ErrOverloaded = errors.New("hvac: server overloaded")
)

// ClientConfig configures an HVAC client instance.
type ClientConfig struct {
	// Endpoints maps every server node to its dialable endpoint name.
	Endpoints map[cluster.NodeID]string
	// Network supplies Dial (TCP or in-process).
	Network rpc.Network
	// Router is the fault-tolerance policy.
	Router Router
	// PFS is the directly mounted parallel filesystem, used for RoutePFS.
	PFS storage.Store
	// RPCTimeout is the paper's TTL: the per-request deadline after which
	// a request counts as a timeout. Must exceed the longest expected
	// service latency (§IV-A).
	RPCTimeout time.Duration
	// TimeoutLimit is the consecutive-timeout threshold (TIMEOUT_LIMIT);
	// <= 0 selects cluster.DefaultTimeoutLimit.
	TimeoutLimit int
	// MaxAttempts bounds routing retries per read; <= 0 selects
	// TimeoutLimit + 8.
	MaxAttempts int
	// ReplicationFactor, when > 1, pushes PFS-fetched objects to that
	// many distinct owners (Router.Replicas).
	ReplicationFactor int
	// LoadControl enables the hot-object load-control subsystem (read
	// coalescing, hot-key detection, replica fan-out with hedged reads).
	// nil leaves the client's behavior exactly as before. Replica fan-out
	// additionally needs a Router whose Replicas names secondaries.
	LoadControl *loadctl.Config
	// Ingest, when non-nil, enables the batched async ingest pipeline:
	// PutAsync buffers puts per destination node and ships them as
	// OpPutBatch frames, and replica pushes ride the same batches. nil
	// keeps every put (and replica push) a standalone synchronous OpPut.
	Ingest *IngestConfig
	// Retry, when non-nil, absorbs connection-class RPC failures (reset,
	// refused, listener gone) with bounded jittered backoff before they
	// become failure evidence. Timeout-class failures are never retried:
	// those are the detector's signal (see rpc.RetryPolicy). nil disables
	// retries — every failure is evidence immediately, the pre-retry
	// behavior.
	Retry *rpc.RetryPolicy
	// Manifest lists the dataset's paths — the key population the failure
	// and rejoin paths plan over. A declared failure ships each new owner
	// the paths Router.PlanRecache says it inherited (OpRecache) so it
	// prefetches them; Rejoin without explicit Keys warms from the same
	// listing. It is called at those moments only, never retained. nil
	// keeps recaching on demand and rejoin cold.
	Manifest func() []string
}

// ClientStats are cumulative per-client counters.
type ClientStats struct {
	RemoteReads   int64 // successful RPC reads
	RemoteBytes   int64
	ServedRAM     int64 // remote reads served from the owner's RAM tier
	ServedNVMe    int64 // remote reads served from the owner's NVMe
	ServedPFS     int64 // remote reads that fell back to PFS server-side
	DirectPFS     int64 // client-side PFS reads (redirection strategy)
	DirectBytes   int64
	Timeouts      int64 // RPC timeouts observed
	FailoverReads int64 // reads that needed more than one attempt
	ReplicaPushes int64 // replica writes issued (replication extension)

	// Load-control counters (zero unless LoadControl is configured).
	CoalescedReads int64 // reads served by joining another caller's flight
	HedgedReads    int64 // hedge legs launched
	HedgeWins      int64 // reads won by the hedged leg
	HotPushes      int64 // hot-object replica pushes issued
	ShedRedirects  int64 // overload sheds redirected to replica/PFS
}

// Client is the application-side HVAC library: the stand-in for the
// LD_PRELOAD shim that intercepts open/read/close in the C++ artifact.
type Client struct {
	cfg     ClientConfig
	tracker *cluster.Tracker

	mu    sync.Mutex
	conns map[cluster.NodeID]*connSlot

	// rejoinMu/rejoining dedup concurrent Rejoin calls per node (the
	// heartbeat can fire OnRevive again while a warmup is in flight).
	rejoinMu  sync.Mutex
	rejoining map[cluster.NodeID]bool

	remoteReads   atomic.Int64
	remoteBytes   atomic.Int64
	servedRAM     atomic.Int64
	servedNVMe    atomic.Int64
	servedPFS     atomic.Int64
	directPFS     atomic.Int64
	directBytes   atomic.Int64
	timeouts      atomic.Int64
	failoverReads atomic.Int64
	replicaPushes atomic.Int64

	// load is the optional hot-object load-control state (nil = off).
	load           *loadctl.Controller
	coalescedReads atomic.Int64
	hedgedReads    atomic.Int64
	hedgeWins      atomic.Int64
	hotPushes      atomic.Int64
	shedRedirects  atomic.Int64

	// ingest is the optional batched async put pipeline (nil = off).
	ingest *ingester

	// retryBudget, when >= 0, overrides cfg.Retry's conn-class retry
	// count at runtime (adaptive policy knob). -1 = use the policy.
	// Only meaningful when cfg.Retry is non-nil.
	retryBudget atomic.Int32

	// pfsLatNs is a streaming EWMA (α = 1/8) of direct-PFS read latency
	// in ns — the client-side contention signal the adaptive policy
	// controller watches. 0 until the first PFS read.
	pfsLatNs atomic.Int64

	// replSem bounds concurrent async replica pushes.
	replSem chan struct{}
	replWG  sync.WaitGroup
	closed  atomic.Bool

	// baseCtx is the client's lifetime context: the recache hint senders
	// and the ingest senders have no caller to inherit a context from, so
	// their calls run under this root and Close cuts them loose.
	baseCtx   context.Context
	closeBase context.CancelFunc

	// Recache hint senders: one goroutine per declared failure ships the
	// plan to its receivers. hinting holds each one's cancel, keyed by
	// failed node, so re-adding the node drops what is still unsent.
	hintMu  sync.Mutex
	hinting map[cluster.NodeID]context.CancelFunc
	hintWG  sync.WaitGroup

	// latency is this client's own read-latency histogram (ns), the
	// source of Latency(); the process-wide one in cliMetrics aggregates
	// every client.
	latency telemetry.Histogram
}

// NewClient wires a client: the failure detector is connected to the
// router so that a declaration immediately reshapes routing (e.g. the
// ring strategy removes the node from its hash ring).
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Network == nil || cfg.Router == nil {
		return nil, errors.New("hvac: Network and Router are required")
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = 2 * time.Second
	}
	nodes := make([]cluster.NodeID, 0, len(cfg.Endpoints))
	for n := range cfg.Endpoints {
		nodes = append(nodes, n)
	}
	if cfg.MaxAttempts <= 0 {
		limit := cfg.TimeoutLimit
		if limit <= 0 {
			limit = cluster.DefaultTimeoutLimit
		}
		cfg.MaxAttempts = limit + 8
	}
	c := &Client{
		cfg:       cfg,
		tracker:   cluster.NewTracker(nodes, cfg.TimeoutLimit),
		conns:     make(map[cluster.NodeID]*connSlot),
		rejoining: make(map[cluster.NodeID]bool),
		replSem:   make(chan struct{}, 16),
		hinting:   make(map[cluster.NodeID]context.CancelFunc),
	}
	//ftclint:ignore ctxflow client lifetime root; Close cancels it, and the hint senders it bounds have no caller context to inherit
	c.baseCtx, c.closeBase = context.WithCancel(context.Background())
	c.retryBudget.Store(-1)
	c.tracker.OnFailure(c.nodeFailed)
	c.tracker.OnRecovery(c.dropHints)
	c.tracker.OnRecovery(cfg.Router.NodeRecovered)
	if cfg.LoadControl != nil {
		c.load = loadctl.New(*cfg.LoadControl, nodes)
		// Registered after the router hookups: by the time the fan-out
		// record is invalidated, the ring has already re-shaped, so
		// successor sets recomputed afterwards see the new membership.
		c.tracker.OnFailure(func(cluster.NodeID) { c.load.InvalidateReplicas() })
		c.tracker.OnRecovery(func(cluster.NodeID) { c.load.InvalidateReplicas() })
		telemetry.Default().RegisterDebug("loadctl", func() any { return c.load.DebugSnapshot() })
	}
	if cfg.Ingest != nil {
		c.ingest = newIngester(c, *cfg.Ingest)
	}
	return c, nil
}

// LoadControl exposes the load-control state (nil when disabled).
func (c *Client) LoadControl() *loadctl.Controller { return c.load }

// ReviveNode re-admits a failed node (elastic scale-up): the failure
// detector clears its state and the router re-admits it, so routing
// resumes sending it traffic. Returns false if the node was not failed.
func (c *Client) ReviveNode(node cluster.NodeID) bool {
	// Drop any stale connection so the next request dials fresh (a
	// rebooted node has new sockets).
	c.dropConn(node)
	return c.tracker.Revive(node)
}

// Tracker exposes the client's failure detector.
func (c *Client) Tracker() *cluster.Tracker { return c.tracker }

// Latency returns this client's read-latency summary in milliseconds,
// read off its log-bucket histogram: quantiles are exact to a bucket
// (25 % wide at worst), and min/max are the bounds of the lowest and
// highest occupied buckets.
func (c *Client) Latency() stats.LatencySnapshot {
	h := c.latency.Snapshot()
	ms := func(q float64) float64 { return h.Quantile(q) / float64(time.Millisecond) }
	return stats.LatencySnapshot{
		N: int(h.Count), Mean: h.Mean() / float64(time.Millisecond),
		Min: ms(0), Max: ms(1), P50: ms(0.50), P95: ms(0.95), P99: ms(0.99),
	}
}

// Stats snapshots the client counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		RemoteReads:   c.remoteReads.Load(),
		RemoteBytes:   c.remoteBytes.Load(),
		ServedRAM:     c.servedRAM.Load(),
		ServedNVMe:    c.servedNVMe.Load(),
		ServedPFS:     c.servedPFS.Load(),
		DirectPFS:     c.directPFS.Load(),
		DirectBytes:   c.directBytes.Load(),
		Timeouts:      c.timeouts.Load(),
		FailoverReads: c.failoverReads.Load(),
		ReplicaPushes: c.replicaPushes.Load(),

		CoalescedReads: c.coalescedReads.Load(),
		HedgedReads:    c.hedgedReads.Load(),
		HedgeWins:      c.hedgeWins.Load(),
		HotPushes:      c.hotPushes.Load(),
		ShedRedirects:  c.shedRedirects.Load(),
	}
}

// connSlot is the per-node connection cache entry. Its own mutex
// serializes dialing per node, so a slow or black-holed dial to one
// node blocks only requests addressed to that node — never the whole
// client. (Dialing under the client-wide map lock would let one dead
// endpoint's connect timeout head-of-line-block every healthy read.)
type connSlot struct {
	mu  sync.Mutex
	cli *rpc.Client
}

// slot returns node's connection slot, creating it on first use. Only
// the map access holds c.mu; dialing happens under the slot lock.
func (c *Client) slot(node cluster.NodeID) *connSlot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.conns[node]
	if !ok {
		s = &connSlot{}
		c.conns[node] = s
	}
	return s
}

// conn returns (dialing if necessary) the RPC client for node.
func (c *Client) conn(node cluster.NodeID) (*rpc.Client, error) {
	if c.closed.Load() {
		return nil, rpc.ErrClosed
	}
	ep, ok := c.cfg.Endpoints[node]
	if !ok {
		return nil, fmt.Errorf("hvac: no endpoint for node %s", node)
	}
	s := c.slot(node)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cli != nil {
		return s.cli, nil
	}
	//ftclint:ignore lockorder per-node slot lock held across the dial on purpose: it dedups concurrent dials to one node and never nests inside another lock
	nc, err := c.cfg.Network.Dial(ep)
	if err != nil {
		return nil, err
	}
	if c.closed.Load() { // Close raced the dial: don't leak the conn
		nc.Close()
		return nil, rpc.ErrClosed
	}
	s.cli = rpc.NewClient(nc)
	return s.cli, nil
}

func (c *Client) dropConn(node cluster.NodeID) {
	c.mu.Lock()
	s := c.conns[node]
	c.mu.Unlock()
	if s == nil {
		return
	}
	s.mu.Lock()
	cli := s.cli
	s.cli = nil
	s.mu.Unlock()
	if cli != nil {
		cli.Close()
	}
}

// callNode is the one way a control or write RPC reaches node: over the
// cached connection, bounded by RPCTimeout through the connection's
// deadline table (no context or timer is made for the call; ctx still
// cancels it). A connection that turns out dead is dropped so the next
// call dials fresh — a restarted node has new sockets. Reads go through
// readNode instead, which must tell dial failures from call failures.
func (c *Client) callNode(ctx context.Context, node cluster.NodeID, op uint16, payload []byte) ([]byte, uint16, error) {
	cli, err := c.conn(node)
	if err != nil {
		return nil, 0, err
	}
	resp, status, err := cli.CallTimeout(ctx, op, payload, time.Now(), c.cfg.RPCTimeout)
	if errors.Is(err, rpc.ErrClosed) {
		c.dropConn(node)
	}
	return resp, status, err
}

// nodeFailed is the detector's failure listener: plan the recache against
// the placement the node is still part of, reshape routing, then hand the
// plan to a sender goroutine. Only the planning runs on the reading
// goroutine that tripped the detector (about a millisecond per ten
// thousand keys); the hint RPCs never do.
func (c *Client) nodeFailed(node cluster.NodeID) {
	var plan map[cluster.NodeID][]string
	if c.cfg.Manifest != nil {
		plan = c.cfg.Router.PlanRecache(node, c.cfg.Manifest())
	}
	c.cfg.Router.NodeFailed(node)
	if len(plan) > 0 {
		c.hintRecache(node, plan)
	}
}

// recacheChunk bounds the paths in one OpRecache frame, so a large share
// travels as several modest frames instead of one the receiver must
// decode and queue in a single step.
const recacheChunk = 1024

// hintRecache starts the sender that ships plan — failed's keys by new
// owner — to the receivers. Hints are best-effort and never detector
// evidence, like replica pushes: a receiver that does not take its hint
// (down, slow, queue full) recaches those paths on demand, and its
// silence here says nothing the read path will not find out for itself.
// An error skips the rest of that receiver's share.
func (c *Client) hintRecache(failed cluster.NodeID, plan map[cluster.NodeID][]string) {
	ctx, cancel := context.WithCancel(c.baseCtx)
	c.hintMu.Lock()
	if c.closed.Load() {
		c.hintMu.Unlock()
		cancel()
		return
	}
	if prev := c.hinting[failed]; prev != nil {
		prev()
	}
	c.hinting[failed] = cancel
	c.hintWG.Add(1) // under hintMu with closed false: Close has not reached hintWG.Wait
	c.hintMu.Unlock()
	go func() {
		defer c.hintWG.Done()
		defer cancel() // release the context; the stale entry in hinting is harmless
		for receiver, paths := range plan {
			for len(paths) > 0 && ctx.Err() == nil {
				n := min(len(paths), recacheChunk)
				if c.sendRecache(ctx, receiver, failed, paths[:n]) != nil {
					break
				}
				paths = paths[n:]
			}
		}
	}()
}

// sendRecache delivers one hint frame to receiver.
func (c *Client) sendRecache(ctx context.Context, receiver, failed cluster.NodeID, paths []string) error {
	req := RecacheReq{Failed: string(failed), Paths: paths}
	_, status, err := c.callNode(ctx, receiver, OpRecache, req.Marshal())
	if err != nil {
		return err
	}
	if status != rpc.StatusOK {
		return fmt.Errorf("hvac: recache hint status %d", status)
	}
	return nil
}

// dropHints is the detector's recovery listener: the node is back in the
// placement, so whatever part of its recache plan is still unsent would
// only prefetch files nothing routes to the receivers for.
func (c *Client) dropHints(node cluster.NodeID) {
	c.hintMu.Lock()
	if cancel := c.hinting[node]; cancel != nil {
		cancel()
		delete(c.hinting, node)
	}
	c.hintMu.Unlock()
}

// noteTimeout records failure evidence against node; the tracker invokes
// the failure listeners when the threshold is crossed.
func (c *Client) noteTimeout(node cluster.NodeID) {
	c.timeouts.Add(1)
	cliMetrics().timeouts.Inc()
	c.tracker.RecordTimeout(node)
}

// Read returns the full contents of path, applying the configured
// fault-tolerance policy.
func (c *Client) Read(ctx context.Context, path string) ([]byte, error) {
	return c.ReadRange(ctx, path, 0, -1)
}

// ReadRange returns [offset, offset+length) of path; length < 0 means to
// EOF.
func (c *Client) ReadRange(ctx context.Context, path string, offset, length int64) (data []byte, err error) {
	m := cliMetrics()
	start := time.Now()
	// "client.read" is the root of the whole request DAG: every attempt,
	// coalesced flight, fan-out leg, and server fragment hangs under it.
	// With tracing off this is one atomic load and sp stays nil.
	ctx, sp := trace.StartTrace(ctx, "client.read")
	sp.Annotate("path", path)
	defer func() {
		elapsed := int64(time.Since(start))
		m.reads.Inc()
		m.readLatency.Observe(elapsed)
		c.latency.Observe(elapsed)
		sp.SetError(err)
		sp.End()
	}()
	// Whole-file reads through a load-controlled client coalesce:
	// concurrent readers of one path share a single flight. Range reads
	// stay independent — different ranges of one path are different work.
	if c.load != nil && offset == 0 && length < 0 {
		return c.readCoalesced(ctx, path)
	}
	return c.readAttempts(ctx, path, offset, length, start)
}

// coalesceRetries bounds how often a waiter re-enters the flight group
// after inheriting a transient failure from a flight winner. Each retry
// either joins a newer flight or becomes the winner itself (running the
// full readAttempts failover loop), so a small bound suffices.
const coalesceRetries = 3

// fullReadFetcher adapts the client's failover read loop to the
// coalescing group's Fetcher interface; the pointer conversion is
// allocation-free on the per-read path.
type fullReadFetcher Client

// Fetch implements loadctl.Fetcher: a whole-file read via readAttempts.
func (f *fullReadFetcher) Fetch(ctx context.Context, path string) ([]byte, error) {
	return (*Client)(f).readAttempts(ctx, path, 0, -1, time.Now())
}

// readCoalesced funnels a whole-file read through the singleflight
// group. Waiters inherit the winner's outcome; a waiter that inherits a
// transient error (the winner timed out, its context died, or it
// panicked) retries while its own context is live, because the failure
// may have been specific to the winner, not to the key.
func (c *Client) readCoalesced(ctx context.Context, path string) ([]byte, error) {
	var data []byte
	var err error
	var shared bool
	for try := 0; try <= coalesceRetries; try++ {
		// The coalesce span records whether this caller led or followed
		// the flight; the winner's span id rides the flight as its
		// leader token, so a follower's trace names the flight it
		// piggybacked on (leader_id is identity-class — stripped from
		// the canonical export like every id).
		cctx, sp := trace.StartSpan(ctx, "coalesce.do")
		var leader uint64
		data, err, shared, leader = c.load.Coalesce.DoLinked(cctx, path, (*fullReadFetcher)(c), uint64(sp.ID()))
		if shared {
			sp.Annotate("role", "follower")
			if leader != 0 {
				sp.AnnotateInt("leader_id", int64(leader))
			}
			c.coalescedReads.Add(1)
			cliMetrics().coalesced.Inc()
		} else {
			sp.Annotate("role", "leader")
		}
		sp.SetError(err)
		sp.End()
		if err == nil || !shared || ctx.Err() != nil {
			return data, err
		}
		// Definitive outcomes are shared as-is; only transient inherited
		// failures are retried.
		if errors.Is(err, ErrNotFound) || errors.Is(err, ErrAborted) {
			return nil, err
		}
	}
	return data, err
}

// readAttempts is the attempt loop: route, read the legs, note evidence,
// fall back — bounded by MaxAttempts. It is the read path's one source of
// failure evidence: the routed owner is noted when the legs stage failed
// timeout- or conn-class, meaning the single leg failed that way or every
// raced leg did. now is the caller's reading of the clock on entry: the
// first attempt's RPC counts its timeout from it instead of reading the
// clock again; every later attempt takes a fresh reading.
func (c *Client) readAttempts(ctx context.Context, path string, offset, length int64, now time.Time) ([]byte, error) {
	m := cliMetrics()
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt == 1 {
			c.failoverReads.Add(1)
			m.failovers.Inc()
		}
		if attempt > 0 {
			now = time.Now()
		}
		d := c.cfg.Router.Route(path)
		switch d.Kind {
		case RouteNode:
		case RoutePFS:
			return c.readPFS(ctx, path, offset, length)
		case RouteAbort:
			m.aborts.Inc()
			return nil, ErrAborted
		default:
			return nil, fmt.Errorf("hvac: unknown routing kind %d", d.Kind)
		}
		actx, asp := trace.StartSpan(ctx, "read.attempt")
		asp.AnnotateInt("attempt", int64(attempt))
		asp.Annotate("node", string(d.Node))
		data, err, class := c.readLegs(actx, d.Node, path, offset, length, now)
		asp.SetError(err)
		asp.End()
		switch class {
		case classOK:
			return data, nil
		case classTimeout, classConn:
			c.noteTimeout(d.Node)
		case classApp:
			if errors.Is(err, ErrNotFound) {
				return nil, err
			}
			if errors.Is(err, ErrOverloaded) {
				// Every leg shed the request: the data is hot beyond what
				// the cache tier will serve right now. The PFS converts an
				// overload wall into bounded extra PFS traffic; without one,
				// re-route (the shed queue drains in milliseconds).
				c.shedRedirects.Add(1)
				m.shedRedirects.Inc()
				if c.cfg.PFS != nil {
					return c.readPFS(ctx, path, offset, length)
				}
			}
		case classCtx:
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("%w: %s", ErrExhausted, path)
}

// readPFS serves a read directly from the parallel filesystem.
func (c *Client) readPFS(ctx context.Context, path string, offset, length int64) (data []byte, err error) {
	_, sp := trace.StartSpan(ctx, "pfs.read")
	defer func() {
		sp.SetError(err)
		sp.End()
	}()
	if c.cfg.PFS == nil {
		return nil, errors.New("hvac: RoutePFS without a PFS handle")
	}
	t0 := time.Now()
	data, err = c.cfg.PFS.Get(path)
	c.observePFSLatency(time.Since(t0))
	if err != nil {
		if errors.Is(err, storage.ErrNotFound) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
		}
		return nil, err
	}
	body, ok := slice(data, offset, length)
	if !ok {
		return nil, fmt.Errorf("hvac: range out of bounds for %s", path)
	}
	c.directPFS.Add(1)
	cliMetrics().directPFS.Inc()
	c.directBytes.Add(int64(len(body)))
	return body, nil
}

// observePFSLatency folds one direct-PFS read latency into the EWMA.
// Concurrent updates may drop each other's sample (load/store, not
// CAS-looped) — the signal is a trend line, not an exact mean.
func (c *Client) observePFSLatency(d time.Duration) {
	old := c.pfsLatNs.Load()
	if old == 0 {
		c.pfsLatNs.Store(int64(d))
		return
	}
	c.pfsLatNs.Store(old + (int64(d)-old)/8)
}

// PFSReadLatency returns the EWMA of this client's direct-PFS read
// latency and whether any PFS read has been observed yet.
func (c *Client) PFSReadLatency() (time.Duration, bool) {
	v := c.pfsLatNs.Load()
	return time.Duration(v), v != 0
}

// SetRetryBudget overrides the conn-class retry count at runtime
// (adaptive policy knob): n >= 0 replaces cfg.Retry's budget, n < 0
// restores it. A no-op unless the client was built with a Retry policy
// (the backoff schedule still comes from it).
func (c *Client) SetRetryBudget(n int) {
	if n < 0 {
		n = -1
	}
	c.retryBudget.Store(int32(n))
}

// errClass buckets a failed read for the retry/evidence split.
type errClass uint8

const (
	classOK      errClass = iota
	classApp              // definitive app-level outcome (not-found, overload)
	classTimeout          // a full TTL was consumed: detector evidence, never retried
	classConn             // the connection died fast (reset, refused): retryable
	classCtx              // the caller's context ended
)

// readLegs is the legs stage. A read's legs are normally [owner]; with
// load control, a sketch-hot key's are the live Router.Replicas set,
// raced by raceLegs, and a won whole-file race pushes the object to the
// owner's successors once per ring epoch. One leg runs inline: no
// goroutine, slice or allocation. Under load control every reply feeds
// the p2c latency estimate, and single-leg successes the hedge's p99
// (raced legs finish near the hedge delay by construction and would
// ratchet it downward).
func (c *Client) readLegs(ctx context.Context, owner cluster.NodeID, path string, offset, length int64, now time.Time) ([]byte, error, errClass) {
	if c.load == nil {
		return c.readNode(ctx, owner, path, offset, length, now)
	}
	if c.load.Sketch.Touch(path) {
		owners := c.cfg.Router.Replicas(path, 1+c.load.Replicas())
		legs := make([]cluster.NodeID, 0, len(owners))
		for _, n := range owners {
			if c.tracker.IsAlive(n) {
				legs = append(legs, n)
			}
		}
		if len(legs) > 1 {
			data, err, class := c.raceLegs(ctx, legs, path, offset, length)
			if class == classOK && offset == 0 && length < 0 && c.load.MarkPushed(path) {
				telemetry.TraceEvent(telemetry.EventHotKey, "", path, int64(len(data)))
				c.pushCopies(path, data, owners, true)
			}
			return data, err, class
		}
	}
	data, err, class := c.readNode(ctx, owner, path, offset, length, now)
	if class == classOK || class == classApp {
		elapsed := time.Since(now)
		c.load.Latency.Observe(owner, elapsed)
		if class == classOK {
			c.load.Hedge.Observe(elapsed)
		}
	}
	return data, err, class
}

// raceLegs races a hot read over legs. The p2c pick over observed
// latency launches first; the hedge timer or a failed leg launches the
// next. The first success wins and cancels the rest; ErrNotFound is
// definitive. When every leg fails, the race fails timeout- or
// conn-class only if every leg failed that way; otherwise it returns the
// first other failure (a shed, a server error), which is never evidence.
// The legs themselves note nothing: that is the attempt loop's call.
func (c *Client) raceLegs(ctx context.Context, legs []cluster.NodeID, path string, offset, length int64) ([]byte, error, errClass) {
	m := cliMetrics()
	// The p2c pick goes first; the rest keep their ring order.
	first := c.load.Latency.Pick(legs)
	i := slices.Index(legs, first)
	copy(legs[1:i+1], legs[:i])
	legs[0] = first

	// asp is the enclosing read.attempt span; raceLegs runs on the
	// goroutine that created it, so annotating it here is race-free.
	// Leg goroutines get their own child spans instead — a losing leg
	// that outlives the root is simply dropped at End.
	asp := trace.FromContext(ctx)
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	type legResult struct {
		node   cluster.NodeID
		data   []byte
		err    error
		class  errClass
		hedged bool
	}
	// Buffered to the race width: losing legs complete into the buffer
	// after we return and their goroutines exit — no leak.
	results := make(chan legResult, len(legs))
	launched := 0
	launch := func(hedged bool) {
		node := legs[launched]
		launched++
		go func() {
			lctx, lsp := trace.StartSpan(raceCtx, "read.leg")
			lsp.Annotate("node", string(node))
			if hedged {
				lsp.Annotate("hedged", "true")
			}
			t0 := time.Now()
			data, err, class := c.readNode(lctx, node, path, offset, length, t0)
			if class == classOK || class == classApp {
				c.load.Latency.Observe(node, time.Since(t0))
			}
			lsp.SetError(err)
			lsp.End()
			results <- legResult{node: node, data: data, err: err, class: class, hedged: hedged}
		}()
	}
	launch(false)

	var hedgeC <-chan time.Time
	if delay, ok := c.load.Hedge.Delay(); ok {
		t := time.NewTimer(delay)
		defer t.Stop()
		hedgeC = t.C
	}

	var err error
	class := classOK
	for outstanding := 1; ; {
		select {
		case <-ctx.Done():
			return nil, ctx.Err(), classCtx

		case <-hedgeC:
			hedgeC = nil
			if launched < len(legs) {
				c.hedgedReads.Add(1)
				m.hedges.Inc()
				asp.Annotate("hedge", "fired")
				launch(true)
				outstanding++
			}

		case r := <-results:
			outstanding--
			switch r.class {
			case classOK:
				if r.hedged {
					c.hedgeWins.Add(1)
					m.hedgeWins.Inc()
					asp.Annotate("hedge", "win")
				}
				asp.Annotate("winner", string(r.node))
				return r.data, nil, classOK
			case classApp, classCtx:
				if errors.Is(r.err, ErrNotFound) {
					return nil, r.err, classApp
				}
				if errors.Is(r.err, ErrOverloaded) {
					c.shedRedirects.Add(1)
					m.shedRedirects.Inc()
				}
				if err == nil || class == classTimeout || class == classConn {
					err, class = r.err, r.class
				}
			case classTimeout, classConn:
				if err == nil {
					err, class = r.err, r.class
				}
			}
			// A failed leg is an immediate go-signal for the next one —
			// no point waiting for the hedge timer.
			if launched < len(legs) {
				launch(r.hedged)
				outstanding++
			} else if outstanding == 0 {
				return nil, err, class
			}
		}
	}
}

// readNode is the node-read stage: one read of path from node, with
// conn-class failures retried in place under cfg.Retry and timeout-class
// ones never (see rpc.RetryPolicy). It classifies the outcome and notes
// no evidence — that is the attempt loop's — though any reply, even an
// overload shed, records the node alive. The first try's RPC expires at
// now+RPCTimeout: an entry in the connection's deadline table, so a read
// derives no context and arms no timer.
func (c *Client) readNode(ctx context.Context, node cluster.NodeID, path string, offset, length int64, now time.Time) ([]byte, error, errClass) {
	m := cliMetrics()
	budget := 0
	if c.cfg.Retry != nil {
		budget = c.cfg.Retry.Retries()
		if o := c.retryBudget.Load(); o >= 0 {
			budget = int(o)
		}
	}
	for try := 0; ; try++ {
		// "rpc.read" is the client half of one wire round-trip; the server
		// stitches its "server.read" fragment under this span's id, carried
		// in the request's trace extension. A retry carries its ordinal.
		_, sp := trace.StartSpan(ctx, "rpc.read")
		sp.Annotate("node", string(node))
		if try > 0 {
			sp.AnnotateInt("try", int64(try))
		}
		c.annotateChaos(sp, node)
		var payload []byte
		var status uint16
		cli, err := c.conn(node)
		if err == nil {
			req := ReadReq{Path: path, Offset: offset, Length: length}
			if sp != nil {
				req.Trace = wire.TraceExt{TraceID: uint64(sp.TraceID()), SpanID: uint64(sp.ID())}
			}
			payload, status, err = cli.CallTimeout(ctx, OpRead, req.Marshal(), now, c.cfg.RPCTimeout)
		}
		var data []byte
		class, fail := classApp, ""
		switch {
		case err == nil:
			c.tracker.RecordSuccess(node)
			if data, err = c.readReply(sp, node, path, offset, length, status, payload); err == nil {
				class = classOK
			}
		case cli == nil && errors.Is(err, rpc.ErrClosed): // this client is shut down
			class = classCtx
		case cli == nil && isNetTimeout(err):
			// The dial consumed its full timeout (a black-holed SYN): that
			// is timeout evidence, exactly like an expired TTL.
			class, fail = classTimeout, "dial_timeout"
		case cli == nil, errors.Is(err, rpc.ErrClosed):
			// Refused, no listener, or a dead connection — dropped, so the
			// next try dials fresh: a fast failure, retry material.
			if cli != nil {
				c.dropConn(node)
			}
			class, fail = classConn, "conn"
		case errors.Is(err, rpc.ErrTimeout):
			class, fail = classTimeout, "timeout"
		case ctx.Err() != nil:
			err, class = ctx.Err(), classCtx
		default:
			class, fail = classTimeout, "timeout"
		}
		if fail != "" {
			sp.Annotate("fail", fail)
		}
		sp.SetError(err)
		sp.End()
		if class != classConn || try >= budget || c.closed.Load() {
			if class == classConn && budget > 0 {
				m.retryExhausted.Inc()
			}
			return data, err, class
		}
		m.retries.Inc()
		if c.cfg.Retry.Sleep(ctx, try) != nil {
			return nil, ctx.Err(), classCtx
		}
		now = time.Now()
	}
}

// readReply turns one read reply into bytes or an app-level error and
// counts which tier served it. A whole-file PFS fill was the object's
// first touch (or a post-failure recache): with ReplicationFactor > 1 it
// is copied to the secondary owners.
func (c *Client) readReply(sp *trace.Span, node cluster.NodeID, path string, offset, length int64, status uint16, payload []byte) ([]byte, error) {
	switch status {
	case rpc.StatusOK:
	case StatusNotFound:
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	case StatusOverloaded:
		sp.Annotate("fail", "overloaded")
		return nil, fmt.Errorf("%w: %s", ErrOverloaded, node)
	default:
		return nil, fmt.Errorf("hvac: server error status %d: %s", status, payload)
	}
	var resp ReadResp
	if err := resp.Unmarshal(payload); err != nil {
		return nil, err
	}
	sp.Annotate("source", sourceName(resp.Source))
	c.remoteReads.Add(1)
	c.remoteBytes.Add(int64(len(resp.Data)))
	m := cliMetrics()
	switch resp.Source {
	case SourceRAM:
		c.servedRAM.Add(1)
		m.servedRAM.Inc()
	case SourceNVMe:
		c.servedNVMe.Add(1)
		m.servedNVMe.Inc()
	default:
		c.servedPFS.Add(1)
		m.servedPFS.Inc()
		if c.cfg.ReplicationFactor > 1 && offset == 0 && length < 0 {
			c.pushCopies(path, resp.Data, c.cfg.Router.Replicas(path, c.cfg.ReplicationFactor), false)
		}
	}
	return resp.Data, nil
}

// isNetTimeout reports whether err is a net.Error that timed out.
func isNetTimeout(err error) bool {
	var nerr net.Error
	return errors.As(err, &nerr) && nerr.Timeout()
}

// faultLister is the optional network extension (implemented by
// chaos.Network) reporting the faults currently armed on the path to a
// destination. The interface keeps hvac decoupled from the chaos
// package: any network that can describe its faults gets them onto
// spans.
type faultLister interface {
	ActiveFaults(dst string) []string
}

// annotateChaos records the armed faults on the path to node on sp, so
// a soak replay shows which injected fault stretched which request.
// Free when sp is nil (tracing off) or the network injects no faults.
func (c *Client) annotateChaos(sp *trace.Span, node cluster.NodeID) {
	if sp == nil {
		return
	}
	fl, ok := c.cfg.Network.(faultLister)
	if !ok {
		return
	}
	ep, ok := c.cfg.Endpoints[node]
	if !ok {
		return
	}
	for _, f := range fl.ActiveFaults(ep) {
		sp.Annotate("chaos", f)
	}
}

// pushCopies sends best-effort copies of path to owners[1:], the
// secondaries, skipping dead ones: replica copies (ReplicationFactor,
// span "replica.push", ReplicaPushes) and hot-object copies (hot, span
// "hot.push", HotPushes). With an ingest pipeline they ride the per-node
// batches, whose encode copies data. Otherwise each runs on a goroutine
// bounded by replSem, as a root trace under baseCtx: the read or put
// that caused it has returned, and Close cancels it. A missed copy costs
// that node one PFS fill later, never correctness.
func (c *Client) pushCopies(path string, data []byte, owners []cluster.NodeID, hot bool) {
	if len(owners) < 2 || c.closed.Load() {
		return
	}
	span, pushes, metric := "replica.push", &c.replicaPushes, cliMetrics().replicaPush
	if hot {
		span, pushes, metric = "hot.push", &c.hotPushes, cliMetrics().hotPush
	}
	var body []byte
	for _, node := range owners[1:] {
		if !c.tracker.IsAlive(node) {
			continue
		}
		if c.ingest != nil {
			if c.ingest.enqueue(node, path, data) == nil {
				pushes.Add(1)
				metric.Inc()
			}
			continue
		}
		if body == nil {
			body = append([]byte(nil), data...) // data may alias an RPC response buffer
		}
		c.replWG.Add(1)
		c.replSem <- struct{}{}
		go func() {
			defer c.replWG.Done()
			defer func() { <-c.replSem }()
			pctx, sp := trace.StartTrace(c.baseCtx, span)
			sp.Annotate("node", string(node))
			sp.Annotate("path", path)
			err := c.Push(pctx, node, path, body)
			sp.SetError(err)
			sp.End()
			if err == nil {
				pushes.Add(1)
				metric.Inc()
			}
		}()
	}
}

// Push writes an object into a specific node's cache (replica write).
// A span in ctx propagates on the wire, so the server's "server.put"
// fragment stitches under the caller's trace.
func (c *Client) Push(ctx context.Context, node cluster.NodeID, path string, data []byte) error {
	req := PutReq{Path: path, Data: data}
	if tid, sid, ok := trace.ContextIDs(ctx); ok {
		req.Trace = wire.TraceExt{TraceID: uint64(tid), SpanID: uint64(sid)}
	}
	_, status, err := c.callNode(ctx, node, OpPut, req.Marshal())
	if err != nil {
		return err
	}
	if status != rpc.StatusOK {
		return fmt.Errorf("hvac: put status %d", status)
	}
	return nil
}

// WaitReplication blocks until all in-flight replica pushes finish or
// ctx expires — used by tests and epoch boundaries that need
// determinism. With the ingest pipeline enabled it is also a batch
// flush barrier: replica pushes ride ingest batches, so buffered
// batches are sealed and their acks awaited before the wait returns
// (delivery failures stay best-effort, exactly like goroutine pushes —
// use Flush to observe them). The pushes themselves keep running after
// a ctx-triggered return (they are bounded by the replication semaphore
// and fail fast once connections drop); only the wait is abandoned.
func (c *Client) WaitReplication(ctx context.Context) error {
	if c.ingest != nil {
		if err := c.ingest.barrier(ctx); err != nil {
			return err
		}
	}
	done := make(chan struct{})
	go func() {
		c.replWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stat returns size and cache residency of path from its current owner.
func (c *Client) Stat(ctx context.Context, path string) (StatResp, error) {
	d := c.cfg.Router.Route(path)
	if d.Kind != RouteNode {
		return StatResp{}, fmt.Errorf("hvac: stat unavailable (route kind %d)", d.Kind)
	}
	req := StatReq{Path: path}
	payload, status, err := c.callNode(ctx, d.Node, OpStat, req.Marshal())
	if err != nil {
		return StatResp{}, err
	}
	if status == StatusNotFound {
		return StatResp{}, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	if status != rpc.StatusOK {
		return StatResp{}, fmt.Errorf("hvac: stat status %d", status)
	}
	var resp StatResp
	if err := resp.Unmarshal(payload); err != nil {
		return StatResp{}, err
	}
	return resp, nil
}

// ServerStats fetches the counters of a specific server.
func (c *Client) ServerStats(ctx context.Context, node cluster.NodeID) (StatsResp, error) {
	payload, status, err := c.callNode(ctx, node, OpStats, nil)
	if err != nil || status != rpc.StatusOK {
		return StatsResp{}, fmt.Errorf("hvac: stats from %s: status=%d err=%v", node, status, err)
	}
	var resp StatsResp
	if err := resp.Unmarshal(payload); err != nil {
		return StatsResp{}, err
	}
	return resp, nil
}

// Ping checks liveness of a node without touching the failure detector.
func (c *Client) Ping(ctx context.Context, node cluster.NodeID) error {
	// callNode drops a conn that died with the old process, so a revival
	// probe does not keep failing on it: the next one dials the restarted
	// listener fresh.
	_, status, err := c.callNode(ctx, node, OpPing, nil)
	if err != nil {
		return err
	}
	if status != rpc.StatusOK {
		return fmt.Errorf("hvac: ping status %d", status)
	}
	return nil
}

// Close tears down all connections, then waits for in-flight replica
// pushes, ingest senders and recache hint senders (all fail fast once
// the lifetime context is cancelled and their connections drop).
func (c *Client) Close() {
	c.hintMu.Lock()
	c.closed.Store(true)
	c.hintMu.Unlock()
	c.closeBase()
	c.mu.Lock()
	slots := c.conns
	c.conns = make(map[cluster.NodeID]*connSlot)
	c.mu.Unlock()
	for _, s := range slots {
		s.mu.Lock()
		cli := s.cli
		s.cli = nil
		s.mu.Unlock()
		if cli != nil {
			cli.Close()
		}
	}
	if c.ingest != nil {
		c.ingest.close()
	}
	c.replWG.Wait()
	c.hintWG.Wait()
}
