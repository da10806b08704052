// Package chaos is the fault-injection middleware of the FT-Cache
// reproduction: an rpc.Network wrapper that deterministically injects
// network faults — symmetric and asymmetric partitions, per-link added
// latency and jitter, dial black-holes, and mid-stream connection drops
// — from a seeded plan, so the failure path the paper claims (timeout
// detection, PFS redirection, elastic recaching, node rejoin) can be
// exercised under adversarial conditions and replayed exactly by seed.
//
// Topology model: only clients dial servers in this system, so a link
// is a (source view, destination endpoint) pair. Every injected fault
// is counted in telemetry (ftc_chaos_faults_total{kind=...}) and kept
// in a local snapshot for /debug/ftcache, together with the seed.
//
// The Controller owns the fault state; Controller.Network(src) hands
// out per-source views implementing rpc.Network. Faults are applied at
// frame granularity by a protocol-aware relay (relay.go): a partition
// drops whole frames (the RPC above observes a clean timeout, never a
// corrupt stream), added latency delays frame delivery without blocking
// the sender's peer, and a connection drop closes both relay ends so
// the client sees the reset a real mid-stream failure produces.
package chaos

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/rpc"
	"repro/internal/telemetry"
	"repro/internal/xhash"
)

// Wildcard matches any endpoint in a link rule.
const Wildcard = "*"

// Fault kinds as counted in telemetry and fault snapshots.
const (
	KindPartition     = "partition"      // symmetric cut installed
	KindAsymPartition = "asym-partition" // one-way cut installed
	KindLatency       = "latency"        // per-link delay installed
	KindDialBlackhole = "dial-blackhole" // a dial was black-holed
	KindFrameDrop     = "frame-drop"     // a frame was dropped by a cut
	KindFrameDelay    = "frame-delay"    // a frame was delayed
	KindConnDrop      = "conn-drop"      // an active conn was killed
	KindCrash         = "crash"          // node crash (plan executor)
	KindRestart       = "restart"        // node restart (plan executor)
	KindPFSDelay      = "pfs-delay"      // PFS read-delay change (plan executor)
)

// Config tunes a Controller.
type Config struct {
	// Seed drives the per-link jitter streams; the harness passes the
	// plan's seed, so one seed replays the same fault sequence. It is
	// surfaced in /debug/ftcache.
	Seed int64
	// DialTimeout is how long a black-holed dial blocks before failing
	// with a timeout error — emulating a SYN dropped by a dead switch.
	// <= 0 selects DefaultDialTimeout. Keep it below the failure
	// detector's suspect budget so a black-holed endpoint surfaces as
	// ordinary timeout evidence, not an unbounded hang.
	DialTimeout time.Duration
}

// DefaultDialTimeout bounds black-holed dials.
const DefaultDialTimeout = 150 * time.Millisecond

type link struct{ src, dst string }

type latSpec struct {
	delay  time.Duration
	jitter time.Duration
}

// Controller owns shared fault state for a wrapped network. All methods
// are goroutine-safe; fault changes take effect on the next frame (live
// connections re-check rules per frame).
type Controller struct {
	cfg   Config
	inner rpc.Network

	mu         sync.RWMutex
	cuts       map[link]struct{}
	lats       map[link]latSpec
	blackholes map[string]struct{}
	relays     map[*relay]struct{}

	countMu sync.Mutex
	counts  map[string]int64
	ctrs    map[string]*telemetry.Counter
}

// New wraps inner with a chaos controller. The controller starts with
// no faults: traffic passes through unmodified (minus the relay hop)
// until a fault is installed.
func New(inner rpc.Network, cfg Config) *Controller {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	c := &Controller{
		cfg:        cfg,
		inner:      inner,
		cuts:       make(map[link]struct{}),
		lats:       make(map[link]latSpec),
		blackholes: make(map[string]struct{}),
		relays:     make(map[*relay]struct{}),
		counts:     make(map[string]int64),
		ctrs:       make(map[string]*telemetry.Counter),
	}
	telemetry.Default().RegisterDebug("chaos", c.debugSnapshot)
	return c
}

// Network returns the rpc.Network view for source src. Listens pass
// through to the inner network; dials from this view are subject to the
// (src, dst) link rules. Views share all controller state.
func (c *Controller) Network(src string) rpc.Network {
	return &Network{ctl: c, src: src}
}

// Network is one source's view of the chaos-wrapped network.
type Network struct {
	ctl *Controller
	src string
}

// Listen implements rpc.Network (pass-through).
func (n *Network) Listen(name string) (net.Listener, error) {
	return n.ctl.inner.Listen(name)
}

// Dial implements rpc.Network with dial-time fault injection.
func (n *Network) Dial(name string) (net.Conn, error) {
	return n.ctl.dial(n.src, name)
}

// timeoutError is the net.Error a black-holed dial returns, so callers
// that classify errors (the HVAC client's detector) see a timeout, the
// same evidence a silently dropped SYN produces.
type timeoutError struct{ op, dst string }

func (e *timeoutError) Error() string   { return fmt.Sprintf("chaos: %s %s: i/o timeout", e.op, e.dst) }
func (e *timeoutError) Timeout() bool   { return true }
func (e *timeoutError) Temporary() bool { return true }

var _ net.Error = (*timeoutError)(nil)

func (c *Controller) dial(src, dst string) (net.Conn, error) {
	c.mu.RLock()
	_, holed := c.blackholes[dst]
	// A cut in either direction kills the handshake: the SYN or the
	// SYN-ACK is dropped, so the dial hangs until its timeout.
	cut := c.cutLocked(src, dst) || c.cutLocked(dst, src)
	c.mu.RUnlock()
	if holed || cut {
		c.Record(KindDialBlackhole)
		time.Sleep(c.cfg.DialTimeout)
		return nil, &timeoutError{op: "dial", dst: dst}
	}
	real, err := c.inner.Dial(dst)
	if err != nil {
		return nil, err
	}
	app, relayEnd := rpc.NewBufferedPipe(dst)
	r := newRelay(c, src, dst, relayEnd, real)
	c.mu.Lock()
	c.relays[r] = struct{}{}
	c.mu.Unlock()
	r.start()
	return app, nil
}

func (c *Controller) removeRelay(r *relay) {
	c.mu.Lock()
	delete(c.relays, r)
	c.mu.Unlock()
}

// cutLocked reports whether the src→dst direction is cut; callers hold
// c.mu. Wildcards match any endpoint.
func (c *Controller) cutLocked(src, dst string) bool {
	if _, ok := c.cuts[link{src, dst}]; ok {
		return true
	}
	if _, ok := c.cuts[link{src, Wildcard}]; ok {
		return true
	}
	if _, ok := c.cuts[link{Wildcard, dst}]; ok {
		return true
	}
	_, ok := c.cuts[link{Wildcard, Wildcard}]
	return ok
}

// latencyFor resolves the added-latency spec for the src→dst direction
// (most-specific rule wins: exact, src→*, *→dst, *→*).
func (c *Controller) latencyFor(src, dst string) (latSpec, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, l := range [4]link{{src, dst}, {src, Wildcard}, {Wildcard, dst}, {Wildcard, Wildcard}} {
		if s, ok := c.lats[l]; ok {
			return s, true
		}
	}
	return latSpec{}, false
}

// isCut reports whether the src→dst direction is currently cut.
func (c *Controller) isCut(src, dst string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.cutLocked(src, dst)
}

// ActiveFaults describes the faults currently armed on this source's
// path to dst, as deterministic human-readable strings in a fixed
// order (cut before blackhole before latency). Request tracing
// annotates a failed or slow RPC's span with them, so a seeded soak
// replay shows *which* injected fault stretched *which* request —
// configured values only, never measured ones, keeping the annotation
// replay-stable.
func (n *Network) ActiveFaults(dst string) []string {
	c := n.ctl
	var out []string
	c.mu.RLock()
	if c.cutLocked(n.src, dst) || c.cutLocked(dst, n.src) {
		out = append(out, "cut")
	}
	if _, ok := c.blackholes[dst]; ok {
		out = append(out, "blackhole")
	}
	c.mu.RUnlock()
	if s, ok := c.latencyFor(n.src, dst); ok {
		f := fmt.Sprintf("latency=%v", s.delay)
		if s.jitter > 0 {
			f += fmt.Sprintf("±%v", s.jitter)
		}
		out = append(out, f)
	}
	return out
}

// CutOneWay installs an asymmetric partition: frames flowing src→dst
// are dropped (requests lost but responses intact, or vice versa — the
// gray-failure shape a half-broken link produces). Wildcards allowed.
func (c *Controller) CutOneWay(src, dst string) {
	c.mu.Lock()
	c.cuts[link{src, dst}] = struct{}{}
	c.mu.Unlock()
	c.Record(KindAsymPartition)
}

// CutBoth installs a symmetric partition between a and b (both frame
// directions dropped, dials between them black-holed).
func (c *Controller) CutBoth(a, b string) {
	c.mu.Lock()
	c.cuts[link{a, b}] = struct{}{}
	c.cuts[link{b, a}] = struct{}{}
	c.mu.Unlock()
	c.Record(KindPartition)
}

// Isolate symmetrically partitions node from every endpoint.
func (c *Controller) Isolate(node string) { c.CutBoth(Wildcard, node) }

// Heal removes any cut between a and b (both directions).
func (c *Controller) Heal(a, b string) {
	c.mu.Lock()
	delete(c.cuts, link{a, b})
	delete(c.cuts, link{b, a})
	c.mu.Unlock()
}

// HealNode removes every cut rule mentioning node (including the
// wildcard rules Isolate installs).
func (c *Controller) HealNode(node string) {
	c.mu.Lock()
	for l := range c.cuts {
		if l.src == node || l.dst == node {
			delete(c.cuts, l)
		}
	}
	c.mu.Unlock()
}

// HealAll removes every cut, latency, and black-hole rule.
func (c *Controller) HealAll() {
	c.mu.Lock()
	c.cuts = make(map[link]struct{})
	c.lats = make(map[link]latSpec)
	c.blackholes = make(map[string]struct{})
	c.mu.Unlock()
}

// SetLatency adds delay ± uniform jitter to every frame on the src→dst
// direction. Frames stay ordered (delays are applied by a per-direction
// delivery loop). Wildcards allowed.
func (c *Controller) SetLatency(src, dst string, delay, jitter time.Duration) {
	c.mu.Lock()
	c.lats[link{src, dst}] = latSpec{delay: delay, jitter: jitter}
	c.mu.Unlock()
	c.Record(KindLatency)
}

// SetLinkLatency adds symmetric latency on both directions of a link.
func (c *Controller) SetLinkLatency(a, b string, delay, jitter time.Duration) {
	c.SetLatency(a, b, delay, jitter)
	c.SetLatency(b, a, delay, jitter)
}

// ClearLatencyNode removes every latency rule mentioning node.
func (c *Controller) ClearLatencyNode(node string) {
	c.mu.Lock()
	for l := range c.lats {
		if l.src == node || l.dst == node {
			delete(c.lats, l)
		}
	}
	c.mu.Unlock()
}

// Blackhole makes dials to dst hang for DialTimeout and fail with a
// timeout (existing connections are untouched — use DropConns for the
// full black-hole).
func (c *Controller) Blackhole(dst string) {
	c.mu.Lock()
	c.blackholes[dst] = struct{}{}
	c.mu.Unlock()
}

// Unblackhole lifts a dial black-hole.
func (c *Controller) Unblackhole(dst string) {
	c.mu.Lock()
	delete(c.blackholes, dst)
	c.mu.Unlock()
}

// DropConns closes every active connection whose destination is dst
// (Wildcard drops everything), emulating a mid-stream connection reset.
// Returns the number of connections killed.
func (c *Controller) DropConns(dst string) int {
	c.mu.RLock()
	victims := make([]*relay, 0, len(c.relays))
	for r := range c.relays {
		if dst == Wildcard || r.dst == dst {
			victims = append(victims, r)
		}
	}
	c.mu.RUnlock()
	for _, r := range victims {
		r.close()
		c.Record(KindConnDrop)
	}
	return len(victims)
}

// OpenConns returns the number of live relayed connections.
func (c *Controller) OpenConns() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.relays)
}

// Record counts one injected fault of the given kind, both in the
// process-wide telemetry registry and the controller's local snapshot.
func (c *Controller) Record(kind string) {
	c.countMu.Lock()
	c.counts[kind]++
	ctr := c.ctrs[kind]
	if ctr == nil {
		ctr = telemetry.Default().Counter("ftc_chaos_faults_total", "kind", kind)
		c.ctrs[kind] = ctr
	}
	c.countMu.Unlock()
	ctr.Inc()
}

// FaultCounts snapshots the per-kind injected-fault counters.
func (c *Controller) FaultCounts() map[string]int64 {
	c.countMu.Lock()
	defer c.countMu.Unlock()
	out := make(map[string]int64, len(c.counts))
	for k, v := range c.counts {
		out[k] = v
	}
	return out
}

// FormatFaults renders the fault counters as "kind=N" pairs in sorted
// order — the replay line soak output prints next to the seed.
func (c *Controller) FormatFaults() string {
	counts := c.FaultCounts()
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var b []byte
	for i, k := range kinds {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, fmt.Sprintf("%s=%d", k, counts[k])...)
	}
	return string(b)
}

// debugSnapshot is the "chaos" section of /debug/ftcache.
func (c *Controller) debugSnapshot() any {
	c.mu.RLock()
	cuts := make([]string, 0, len(c.cuts))
	for l := range c.cuts {
		cuts = append(cuts, l.src+"->"+l.dst)
	}
	lats := make([]string, 0, len(c.lats))
	for l, s := range c.lats {
		lats = append(lats, fmt.Sprintf("%s->%s:%s±%s", l.src, l.dst, s.delay, s.jitter))
	}
	holes := make([]string, 0, len(c.blackholes))
	for h := range c.blackholes {
		holes = append(holes, h)
	}
	open := len(c.relays)
	c.mu.RUnlock()
	sort.Strings(cuts)
	sort.Strings(lats)
	sort.Strings(holes)
	return map[string]any{
		"seed":       c.cfg.Seed,
		"cuts":       cuts,
		"latencies":  lats,
		"blackholes": holes,
		"open_conns": open,
		"faults":     c.FaultCounts(),
	}
}

// linkRNG derives a deterministic per-link, per-direction PRNG from the
// controller seed, so jitter replays exactly for a given seed.
func (c *Controller) linkRNG(src, dst string, inbound bool) *rand.Rand {
	h := xhash.XXH64String(src+"\x00"+dst, uint64(c.cfg.Seed))
	if inbound {
		h = ^h
	}
	return rand.New(rand.NewSource(int64(h)))
}
