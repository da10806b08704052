// Package ftcache implements the paper's fault-tolerance decision (§IV,
// §V-A) as one type, Strategy: a placement over the original membership
// crossed with the response to a declared failure.
//
//	kind      placement of a healthy owner         response in force
//	noft      static modulo                        abort, for good
//	ftpfs     static modulo (§IV-A)                the lost owner's reads go to the PFS
//	ftnvme    consistent-hash ring (§IV-B)         drop the node; clockwise successors recache
//	adaptive  the same ring, frozen at birth for   any of the three, switched live; an abort
//	          the static responses                 escapes to ftnvme instead of surfacing
//
// The baseline HVAC "lacks fault-tolerant aspects, resulting in immediate
// job termination upon failure"; FT w/ PFS never re-partitions, which is
// why every later access to a lost file pays the PFS again; FT w/ NVMe
// costs one extra PFS access per lost file in total, paid by its new
// owner. The adaptive kind pins placement to the ring — switching between
// placements would remap nearly the whole key space — and with one vnode
// configuration every response agrees on healthy-state ownership, so a
// switch moves no key while the fleet is whole.
//
// Strategy is the hvac.Router the client's timeout-based failure
// detector drives.
package ftcache

import (
	"maps"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/hashring"
	"repro/internal/hvac"
	"repro/internal/partition"
	"repro/internal/telemetry"
)

// StrategyKind names a strategy on config surfaces, and the response an
// adaptive strategy has in force.
type StrategyKind string

// The paper's three strategies and the family that switches among them.
const (
	KindNoFT     StrategyKind = "noft"
	KindPFS      StrategyKind = "ftpfs"
	KindNVMe     StrategyKind = "ftnvme"
	KindAdaptive StrategyKind = "adaptive"
)

// A response is what Route does about a failed owner; Strategy.resp
// holds one of these.
const (
	respNoFT int32 = iota
	respPFS
	respNVMe
)

var (
	respKinds = [...]StrategyKind{respNoFT: KindNoFT, respPFS: KindPFS, respNVMe: KindNVMe}
	respNames = [...]string{respNoFT: "NoFT", respPFS: "FT w/ PFS", respNVMe: "FT w/ NVMe"}
)

// Strategy routes reads and absorbs failure evidence. Route takes no
// lock under any kind: the response is one atomic integer, the failed
// set is published copy-on-write like the ring's snapshot, and both
// placements are immutable (modulo, frozen) or lock-free to read (live).
//
// Evidence updates the one failed set and the one live ring whatever
// response is in force, so a switch has nothing to catch up on: the
// static responses read the failed set against the untouched original
// placement, the ring response reads the live ring, and both are current.
type Strategy struct {
	kind StrategyKind
	// Exactly one static placement over the original membership, never
	// modified: modulo for noft/ftpfs, a clone of the ring taken before
	// any failure for ftnvme/adaptive (O(1): snapshots are immutable).
	modulo *partition.Modulo
	frozen *hashring.Ring
	// live loses failed nodes and regains recovered ones; nil under modulo.
	live *hashring.Ring

	resp atomic.Int32

	mu     sync.Mutex // serializes evidence, keeping failed and live in step
	failed atomic.Pointer[map[cluster.NodeID]struct{}]

	switches atomic.Int64
	// onSwitch observes every committed switch, escapes included — the
	// ftpolicy controller's decision-log hook.
	onSwitch atomic.Pointer[func(from, to StrategyKind, auto bool)]
}

// RingRecache is the name bench/ holds the FT w/ NVMe strategy by.
type RingRecache = Strategy

// NewRouter constructs the named strategy over the initial membership.
// virtualNodes applies to the ring kinds (<= 0 selects the paper's 100);
// an unknown kind gets the baseline. It registers nothing process-wide:
// whoever hands the strategy to a client publishes DebugSnapshot.
func NewRouter(kind StrategyKind, nodes []cluster.NodeID, virtualNodes int) *Strategy {
	s := &Strategy{kind: kind}
	s.failed.Store(&map[cluster.NodeID]struct{}{})
	switch kind {
	case KindNVMe, KindAdaptive:
		s.live = hashring.NewWithNodes(hashring.Config{VirtualNodes: virtualNodes}, nodes)
		s.frozen = s.live.Clone()
		s.resp.Store(respNVMe)
	case KindPFS:
		s.modulo = partition.NewModulo(nodes)
		s.resp.Store(respPFS)
	default:
		s.kind = KindNoFT
		s.modulo = partition.NewModulo(nodes)
	}
	return s
}

// NewNoFT creates the fault-intolerant baseline.
func NewNoFT(nodes []cluster.NodeID) *Strategy { return NewRouter(KindNoFT, nodes, 0) }

// NewPFSRedirect creates FT w/ PFS.
func NewPFSRedirect(nodes []cluster.NodeID) *Strategy { return NewRouter(KindPFS, nodes, 0) }

// NewRingRecache creates FT w/ NVMe.
func NewRingRecache(nodes []cluster.NodeID, virtualNodes int) *Strategy {
	return NewRouter(KindNVMe, nodes, virtualNodes)
}

// NewSwitchable creates the adaptive strategy with start's response in
// force (empty or unknown = ftnvme).
func NewSwitchable(nodes []cluster.NodeID, virtualNodes int, start StrategyKind) *Strategy {
	s := NewRouter(KindAdaptive, nodes, virtualNodes)
	if resp, ok := respOf(start); ok {
		s.resp.Store(resp)
	}
	return s
}

func respOf(kind StrategyKind) (int32, bool) {
	for resp, k := range respKinds {
		if k == kind {
			return int32(resp), true
		}
	}
	return 0, false
}

// Name implements hvac.Router.
func (s *Strategy) Name() string {
	resp := s.resp.Load()
	name := respNames[resp]
	if s.kind != KindAdaptive {
		return name
	}
	if resp != respNVMe {
		name += " (ring)"
	}
	return "Adaptive [" + name + "]"
}

// Kind returns the response in force.
func (s *Strategy) Kind() StrategyKind { return respKinds[s.resp.Load()] }

// Switches returns the cumulative number of committed switches.
func (s *Strategy) Switches() int64 { return s.switches.Load() }

// OnSwitch registers the single switch observer (latest wins).
func (s *Strategy) OnSwitch(fn func(from, to StrategyKind, auto bool)) { s.onSwitch.Store(&fn) }

// SwitchTo puts kind's response in force on an adaptive strategy. It
// returns the response in force before and whether a switch happened
// (false for an unknown kind, the current one, or a strategy that is not
// adaptive). The switch is one atomic swap: a request routed before it
// gets the old response's answer, one after it the new one's, and the
// evidence both read is shared, so none sees a mix.
func (s *Strategy) SwitchTo(kind StrategyKind) (StrategyKind, bool) {
	if resp, ok := respOf(kind); ok && s.kind == KindAdaptive {
		return s.switchTo(resp, false)
	}
	return s.Kind(), false
}

func (s *Strategy) switchTo(to int32, auto bool) (StrategyKind, bool) {
	from := s.resp.Swap(to)
	if from == to {
		return respKinds[from], false
	}
	n := s.switches.Add(1)
	if fn := s.onSwitch.Load(); fn != nil {
		(*fn)(respKinds[from], respKinds[to], auto)
	}
	telemetry.TraceEvent(telemetry.EventPolicySwitch, "", string(respKinds[from])+"->"+string(respKinds[to]), n)
	return respKinds[from], true
}

// Route implements hvac.Router. The ring response comes first and
// inline — it is the default configuration's every read, and one more
// call in front of ring.Owner is measurable at this size.
//
// The noft escape hatch lives here: an adaptive job must survive what a
// static NoFT run dies of, so an abort commits a switch to ftnvme and
// answers from the live ring, which is already current.
//
//ftc:hotpath
func (s *Strategy) Route(path string) hvac.Decision {
	resp := s.resp.Load()
	if resp == respNVMe {
		return s.ringRoute(path)
	}
	d := s.route(resp, path)
	if d.Kind == hvac.RouteAbort && s.kind == KindAdaptive {
		//ftclint:ignore hotpathlock the escape switch fires once per declared failure, never on the steady-state route; its trace emit is off the hot path
		s.switchTo(respNVMe, true)
		return s.ringRoute(path)
	}
	return d
}

// ringRoute is the ftnvme answer: the live ring's owner, or the PFS once
// every server is gone. Small enough that the compiler inlines it.
func (s *Strategy) ringRoute(path string) hvac.Decision {
	if owner, ok := s.live.Owner(path); ok {
		return hvac.Decision{Kind: hvac.RouteNode, Node: owner}
	}
	return hvac.Decision{Kind: hvac.RoutePFS}
}

// route answers path as resp would, whatever response is in force.
func (s *Strategy) route(resp int32, path string) hvac.Decision {
	if resp == respNVMe {
		return s.ringRoute(path)
	}
	failed := *s.failed.Load()
	if resp == respNoFT && len(failed) > 0 {
		return hvac.Decision{Kind: hvac.RouteAbort} // any failure is fatal
	}
	var owner cluster.NodeID
	var ok bool
	if s.modulo != nil {
		owner, ok = s.modulo.Owner(path)
	} else {
		owner, ok = s.frozen.Owner(path)
	}
	if _, dead := failed[owner]; ok && !dead {
		return hvac.Decision{Kind: hvac.RouteNode, Node: owner}
	}
	if resp == respNoFT {
		return hvac.Decision{Kind: hvac.RouteAbort} // no members at all
	}
	return hvac.Decision{Kind: hvac.RoutePFS}
}

// NodeFailed implements hvac.Router: the node joins the failed set and
// leaves the live ring, its arcs flowing to the clockwise successors,
// which own the lost files from this instant.
func (s *Strategy) NodeFailed(node cluster.NodeID) { s.setFailed(node, true) }

// NodeRecovered implements hvac.Router: the static responses stop
// bypassing the node, and the live ring regains its original virtual
// points, so by minimal movement exactly the arcs it lost move back. The
// baseline ignores it: that job died with the first failure. An adaptive
// strategy's noft is viable again once the fleet is whole.
func (s *Strategy) NodeRecovered(node cluster.NodeID) {
	if s.kind != KindNoFT {
		s.setFailed(node, false)
	}
}

func (s *Strategy) setFailed(node cluster.NodeID, dead bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := *s.failed.Load()
	if _, was := cur[node]; was != dead {
		next := maps.Clone(cur)
		if dead {
			next[node] = struct{}{}
		} else {
			delete(next, node)
		}
		s.failed.Store(&next)
	}
	if s.live == nil {
		return
	}
	if dead {
		s.live.Remove(node)
	} else {
		s.live.Add(node)
	}
}

// FailedCount returns the number of nodes currently declared failed.
func (s *Strategy) FailedCount() int { return len(*s.failed.Load()) }

// Aborted reports whether a failure has terminated a noft job.
func (s *Strategy) Aborted() bool { return s.resp.Load() == respNoFT && s.FailedCount() > 0 }

// Ring exposes the live ring for analysis and tests; nil under modulo.
func (s *Strategy) Ring() *hashring.Ring { return s.live }

// Replicas implements hvac.Router: up to n distinct live owners in ring
// order, the primary first — with the copy already on the clockwise
// successor, a primary failure re-routes to a node that has the data.
// Always the live ring, so replica placement is stable across switches;
// modulo placement has no successor order and answers nil.
func (s *Strategy) Replicas(path string, n int) []cluster.NodeID {
	if s.live == nil {
		return nil
	}
	owners, _ := s.live.Owners(path, n)
	return owners
}

// PlanRecache implements hvac.Router: who inherits each of failed's
// keys, computed against the pre-removal ring, so it agrees key for key
// with Route once NodeFailed has dropped the node. Only the ring
// response has heirs — under ftpfs or noft a prefetch would fill caches
// nothing routes to — and a node not on the ring has nothing to plan.
func (s *Strategy) PlanRecache(failed cluster.NodeID, keys []string) map[cluster.NodeID][]string {
	if s.resp.Load() != respNVMe || !s.live.Contains(failed) {
		return nil
	}
	return s.live.PlanRecache(failed, keys).Moves
}

// PlanRejoin implements hvac.Router: the keys node owns once re-added,
// the same set every response routes to it while healthy — the warm set
// the client fills onto its NVMe before NodeRecovered commits the swap.
func (s *Strategy) PlanRejoin(node cluster.NodeID, keys []string) []string {
	if s.live == nil {
		return nil
	}
	return s.live.PlanRejoin(node, keys).Keys
}

// DebugSnapshot is the "ring" section of /debug/ftcache for a ring kind.
func (s *Strategy) DebugSnapshot() any {
	nodes := s.live.Nodes()
	members := make([]string, len(nodes))
	for i, n := range nodes {
		members[i] = string(n)
	}
	return map[string]any{"strategy": s.Name(), "members": members, "points": s.live.PointCount()}
}

var _ hvac.Router = (*Strategy)(nil)
