// Package ftcache implements the three fault-tolerance policies the
// paper evaluates (§IV, §V-A):
//
//   - NoFT — the original HVAC baseline: static modulo placement, no
//     recovery. The first declared node failure aborts the job ("the
//     baseline HVAC lacks fault-tolerant aspects, resulting in immediate
//     job termination upon failure").
//   - PFSRedirect (FT w/ PFS, §IV-A) — placement stays static; once a
//     node is declared failed, every read that hashes to it goes to the
//     PFS directly, for the remainder of the job.
//   - RingRecache (FT w/ NVMe, §IV-B) — placement lives on a consistent-
//     hash ring with virtual nodes; a failure removes the node from the
//     ring, so its files re-map to clockwise successors. The new owner
//     misses once, fetches from PFS, recaches on its NVMe — one extra
//     PFS access per lost file, total.
//
// All three implement hvac.Router and are driven by the client's
// timeout-based failure detector.
package ftcache

import (
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/hashring"
	"repro/internal/hvac"
	"repro/internal/partition"
	"repro/internal/telemetry"
)

// NoFT is the fault-intolerant baseline router.
type NoFT struct {
	part    *partition.Modulo
	aborted atomic.Bool
}

// NewNoFT creates the baseline router over the initial membership.
func NewNoFT(nodes []cluster.NodeID) *NoFT {
	return &NoFT{part: partition.NewModulo(nodes)}
}

// Name implements hvac.Router.
func (n *NoFT) Name() string { return "NoFT" }

// Route implements hvac.Router.
func (n *NoFT) Route(path string) hvac.Decision {
	if n.aborted.Load() {
		return hvac.Decision{Kind: hvac.RouteAbort}
	}
	owner, ok := n.part.Owner(path)
	if !ok {
		return hvac.Decision{Kind: hvac.RouteAbort}
	}
	return hvac.Decision{Kind: hvac.RouteNode, Node: owner}
}

// NodeFailed implements hvac.Router: any failure is fatal.
func (n *NoFT) NodeFailed(cluster.NodeID) { n.aborted.Store(true) }

// Aborted reports whether a failure has terminated the job.
func (n *NoFT) Aborted() bool { return n.aborted.Load() }

// PFSRedirect is the FT w/ PFS router: static placement, failed owners'
// traffic redirected to the PFS for the rest of the job.
type PFSRedirect struct {
	part *partition.Modulo // over the ORIGINAL membership; never shrinks

	mu     sync.RWMutex
	failed map[cluster.NodeID]bool
}

// NewPFSRedirect creates the FT w/ PFS router.
func NewPFSRedirect(nodes []cluster.NodeID) *PFSRedirect {
	return &PFSRedirect{
		part:   partition.NewModulo(nodes),
		failed: make(map[cluster.NodeID]bool),
	}
}

// Name implements hvac.Router.
func (p *PFSRedirect) Name() string { return "FT w/ PFS" }

// Route implements hvac.Router. The hash is computed over the original
// membership — this strategy never re-partitions, which is exactly why
// every post-failure access to a lost file pays the PFS price again.
func (p *PFSRedirect) Route(path string) hvac.Decision {
	owner, ok := p.part.Owner(path)
	if !ok {
		return hvac.Decision{Kind: hvac.RoutePFS}
	}
	p.mu.RLock()
	dead := p.failed[owner]
	p.mu.RUnlock()
	if dead {
		return hvac.Decision{Kind: hvac.RoutePFS}
	}
	return hvac.Decision{Kind: hvac.RouteNode, Node: owner}
}

// NodeFailed implements hvac.Router.
func (p *PFSRedirect) NodeFailed(node cluster.NodeID) {
	p.mu.Lock()
	p.failed[node] = true
	p.mu.Unlock()
}

// NodeRecovered implements hvac.RecoveryAware: stop bypassing the node.
// Its cache may be stale-empty, but the server's miss path repopulates
// it transparently.
func (p *PFSRedirect) NodeRecovered(node cluster.NodeID) {
	p.mu.Lock()
	delete(p.failed, node)
	p.mu.Unlock()
}

// FailedCount returns the number of nodes being redirected around.
func (p *PFSRedirect) FailedCount() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.failed)
}

// RingRecache is the FT w/ NVMe router: consistent-hash-ring placement
// with elastic recaching on failure.
type RingRecache struct {
	ring *hashring.Ring
}

// NewRingRecache creates the FT w/ NVMe router. virtualNodes <= 0 selects
// the paper's production value of 100 per physical node.
func NewRingRecache(nodes []cluster.NodeID, virtualNodes int) *RingRecache {
	r := &RingRecache{
		ring: hashring.NewWithNodes(hashring.Config{VirtualNodes: virtualNodes}, nodes),
	}
	// Latest-wins: a process normally runs one routing policy, and the
	// debug endpoint wants the live ring.
	telemetry.Default().RegisterDebug("ring", func() any {
		nodes := r.ring.Nodes()
		members := make([]string, len(nodes))
		for i, n := range nodes {
			members[i] = string(n)
		}
		return map[string]any{
			"strategy": r.Name(),
			"members":  members,
			"points":   r.ring.PointCount(),
		}
	})
	return r
}

// Name implements hvac.Router.
func (r *RingRecache) Name() string { return "FT w/ NVMe" }

// Route implements hvac.Router: the current ring owner. Only when every
// server is gone does the client fall back to the PFS.
func (r *RingRecache) Route(path string) hvac.Decision {
	owner, ok := r.ring.Owner(path)
	if !ok {
		return hvac.Decision{Kind: hvac.RoutePFS}
	}
	return hvac.Decision{Kind: hvac.RouteNode, Node: owner}
}

// PlanRecache implements hvac.RecachePlanner: who inherits each of
// failed's keys, computed against the current — pre-removal — snapshot,
// so it agrees key for key with what Route answers once NodeFailed has
// dropped the node. The client calls it just before NodeFailed and ships
// every receiver its share, which the receivers then prefetch from the
// PFS in parallel. A node that is not on the ring has nothing to plan.
func (r *RingRecache) PlanRecache(failed cluster.NodeID, keys []string) map[cluster.NodeID][]string {
	if !r.ring.Contains(failed) {
		return nil
	}
	return r.ring.PlanRecache(failed, keys).Moves
}

// NodeFailed implements hvac.Router: drop the node from the ring; its
// arcs flow to the clockwise successors, which own the lost files from
// this instant. Recaching them is the new owners' job: ahead of demand
// when the client hinted them the plan, on first miss otherwise.
func (r *RingRecache) NodeFailed(node cluster.NodeID) { r.ring.Remove(node) }

// NodeRecovered implements hvac.RecoveryAware: re-adding the node
// restores its original virtual points, so it reclaims exactly the arcs
// it owned before failing — by the minimal-movement property only those
// keys move back, and the node re-warms via its server's miss path.
func (r *RingRecache) NodeRecovered(node cluster.NodeID) { r.ring.Add(node) }

// PlanRejoin implements hvac.RejoinPlanner: the keys node will own once
// re-added — the warm set the client fills onto the node's NVMe before
// NodeRecovered commits the ring swap, so a rejoining node starts hot.
func (r *RingRecache) PlanRejoin(node cluster.NodeID, keys []string) []string {
	return r.ring.PlanRejoin(node, keys).Keys
}

// Ring exposes the underlying hash ring for analysis and tests.
func (r *RingRecache) Ring() *hashring.Ring { return r.ring }

// Replicas implements hvac.Replicator: up to n distinct live owners in
// ring order, the first being the primary. This enables the replication
// extension: with the copy already on the clockwise successor, a primary
// failure re-routes to a node that *has the data* — zero PFS reads.
func (r *RingRecache) Replicas(path string, n int) []cluster.NodeID {
	owners, ok := r.ring.Owners(path, n)
	if !ok {
		return nil
	}
	return owners
}

var (
	_ hvac.Router         = (*NoFT)(nil)
	_ hvac.Router         = (*PFSRedirect)(nil)
	_ hvac.Router         = (*RingRecache)(nil)
	_ hvac.Replicator     = (*RingRecache)(nil)
	_ hvac.RecoveryAware  = (*RingRecache)(nil)
	_ hvac.RejoinPlanner  = (*RingRecache)(nil)
	_ hvac.RecachePlanner = (*RingRecache)(nil)
	_ hvac.RecoveryAware  = (*PFSRedirect)(nil)
)

// StrategyKind enumerates the three policies for config surfaces.
type StrategyKind string

// The three evaluated strategies.
const (
	KindNoFT StrategyKind = "noft"
	KindPFS  StrategyKind = "ftpfs"
	KindNVMe StrategyKind = "ftnvme"
)

// NewRouter constructs the named strategy. virtualNodes applies to
// KindNVMe and KindAdaptive (the ring-placement strategies).
func NewRouter(kind StrategyKind, nodes []cluster.NodeID, virtualNodes int) hvac.Router {
	switch kind {
	case KindPFS:
		return NewPFSRedirect(nodes)
	case KindNVMe:
		return NewRingRecache(nodes, virtualNodes)
	case KindAdaptive:
		return NewSwitchable(nodes, virtualNodes, KindNVMe)
	default:
		return NewNoFT(nodes)
	}
}
