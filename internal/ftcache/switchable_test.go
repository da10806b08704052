package ftcache

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hvac"
)

func switchNodes(n int) []cluster.NodeID {
	nodes := make([]cluster.NodeID, n)
	for i := range nodes {
		nodes[i] = cluster.NodeID(fmt.Sprintf("node-%02d", i))
	}
	return nodes
}

// The adaptive responses share ring placement: every response must
// agree bit-for-bit on healthy-state ownership, so a switch moves zero
// keys while the fleet is healthy.
func TestSwitchableHealthyOwnershipIdentical(t *testing.T) {
	nodes := switchNodes(16)
	s := NewRouter(KindAdaptive, nodes, 100)
	for i := 0; i < 2000; i++ {
		path := fmt.Sprintf("/data/train/shard-%04d.bin", i)
		want := s.route(respNVMe, path)
		if want.Kind != hvac.RouteNode {
			t.Fatalf("recache response did not route %q to a node: %+v", path, want)
		}
		for _, resp := range []int32{respNoFT, respPFS} {
			got := s.route(resp, path)
			if got.Kind != hvac.RouteNode || got.Node != want.Node {
				t.Fatalf("%s owner for %q = %+v, recache owner %+v", respKinds[resp], path, got, want)
			}
		}
	}
}

// Failure evidence must reach every response, in force or not, so a
// later switch needs no catch-up: the PFS response redirects, the recache
// response remaps, the noft response aborts — all from one NodeFailed.
func TestSwitchableEvidenceFanOut(t *testing.T) {
	nodes := switchNodes(8)
	s := NewRouter(KindAdaptive, nodes, 100)

	// Find a path and its owner.
	path := "/data/val/shard-0000.bin"
	d := s.Route(path)
	if d.Kind != hvac.RouteNode {
		t.Fatalf("initial route: %+v", d)
	}
	owner := d.Node

	s.NodeFailed(owner)

	if got := s.route(respPFS, path); got.Kind != hvac.RoutePFS {
		t.Fatalf("pfs response after failure: %+v, want RoutePFS", got)
	}
	if got := s.route(respNoFT, path); got.Kind != hvac.RouteAbort {
		t.Fatalf("noft response after failure: %+v, want RouteAbort", got)
	}
	if got := s.route(respNVMe, path); got.Kind != hvac.RouteNode || got.Node == owner {
		t.Fatalf("recache response after failure: %+v, want a different live node", got)
	}

	s.NodeRecovered(owner)

	for resp, kind := range respKinds {
		if got := s.route(int32(resp), path); got.Kind != hvac.RouteNode || got.Node != owner {
			t.Fatalf("%s response after recovery: %+v, want owner %s back", kind, got, owner)
		}
	}
}

// A RouteAbort from the active noft member must escape to the recache
// strategy instead of surfacing: adaptive jobs never observe aborts.
func TestSwitchableNoFTEscape(t *testing.T) {
	nodes := switchNodes(8)
	s := NewRouter(KindAdaptive, nodes, 100)
	s.resp.Store(respNoFT)
	var gotFrom, gotTo StrategyKind
	var gotAuto bool
	s.OnSwitch(func(from, to StrategyKind, auto bool) { gotFrom, gotTo, gotAuto = from, to, auto })

	path := "/data/train/shard-0042.bin"
	if d := s.Route(path); d.Kind != hvac.RouteNode {
		t.Fatalf("healthy noft route: %+v", d)
	}

	s.NodeFailed(nodes[0])
	d := s.Route(path) // any path: noft aborts globally after a failure
	if d.Kind == hvac.RouteAbort {
		t.Fatal("adaptive route surfaced RouteAbort")
	}
	if s.Kind() != KindNVMe {
		t.Fatalf("active after escape = %s, want %s", s.Kind(), KindNVMe)
	}
	if gotFrom != KindNoFT || gotTo != KindNVMe || !gotAuto {
		t.Fatalf("onSwitch saw (%s,%s,auto=%v), want (noft,ftnvme,true)", gotFrom, gotTo, gotAuto)
	}
	if s.switches.Load() != 1 {
		t.Fatalf("switches = %d, want 1", s.switches.Load())
	}
}

// SwitchTo semantics: unknown kinds and self-switches are no-ops.
func TestSwitchableSwitchTo(t *testing.T) {
	s := NewRouter(KindAdaptive, switchNodes(4), 100)
	if _, ok := s.SwitchTo(KindNVMe); ok {
		t.Fatal("self-switch reported a swap")
	}
	if _, ok := s.SwitchTo(StrategyKind("bogus")); ok {
		t.Fatal("unknown kind reported a swap")
	}
	from, ok := s.SwitchTo(KindPFS)
	if !ok || from != KindNVMe || s.Kind() != KindPFS {
		t.Fatalf("SwitchTo(pfs) = (%s,%v), active %s", from, ok, s.Kind())
	}
	if s.switches.Load() != 1 {
		t.Fatalf("switches = %d, want 1", s.switches.Load())
	}
}

// Torn-snapshot check (run under -race): concurrent routing during
// rapid switching and live failure evidence must always observe exactly
// one response's coherent answer — a RouteNode to a live node or a
// RoutePFS, never an abort, never an empty node.
func TestSwitchableConcurrentSwitchRoute(t *testing.T) {
	nodes := switchNodes(8)
	s := NewRouter(KindAdaptive, nodes, 100)
	live := make(map[cluster.NodeID]bool, len(nodes))
	for _, n := range nodes {
		live[n] = true
	}
	// One failed node so the members genuinely disagree on fallback.
	s.NodeFailed(nodes[0])
	live[nodes[0]] = false

	// nodes[1] fails and recovers throughout. down is odd exactly while
	// it has been failed and is not yet being recovered, so a Route that
	// reads the same odd value before and after ran wholly inside a
	// failure and must not have answered nodes[1].
	var down atomic.Int64
	stop := make(chan struct{})
	flapperDone := make(chan struct{})
	go func() {
		defer close(flapperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.NodeFailed(nodes[1])
			down.Add(1)
			runtime.Gosched()
			down.Add(1)
			s.NodeRecovered(nodes[1])
		}
	}()
	switcherDone := make(chan struct{})
	go func() {
		defer close(switcherDone)
		kinds := []StrategyKind{KindPFS, KindNVMe, KindPFS, KindNVMe}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.SwitchTo(kinds[i%len(kinds)])
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				path := fmt.Sprintf("/data/%d/shard-%04d.bin", g, i)
				before := down.Load()
				d := s.Route(path)
				switch d.Kind {
				case hvac.RouteNode:
					if !live[d.Node] {
						t.Errorf("routed to dead node %s", d.Node)
						return
					}
					if d.Node == nodes[1] && before%2 == 1 && down.Load() == before {
						t.Errorf("routed to %s, failed for the whole call", d.Node)
						return
					}
				case hvac.RoutePFS:
					// ftpfs fallback for the failed node's arcs — fine.
				default:
					t.Errorf("unexpected decision %+v", d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-switcherDone
	<-flapperDone
}

// An adaptive strategy builds one ring, not one per response: what
// NewRouter allocates for it is what NewRingRecache does for the same
// nodes.
func TestSwitchableBuildsOneRing(t *testing.T) {
	nodes := switchNodes(64)
	allocated := func(build func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		build()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	one := allocated(func() { NewRingRecache(nodes, 100) })
	adaptive := allocated(func() { NewRouter(KindAdaptive, nodes, 100) })
	if adaptive > 1.1*one || adaptive < 0.9*one {
		t.Errorf("the adaptive strategy allocated %.0f B, NewRingRecache %.0f B: want within 10%%", adaptive, one)
	}
}

// The recache plan and the routing table are two views of one ring: for
// every key, the plan computed just before NodeFailed names receiver n
// exactly when Route answers n afterwards, and keys the failed node did
// not own are in nobody's share. Holds for the ring strategy alone and
// for the adaptive one, which plans only while the ring response is in force.
func TestRecachePlanAgreesWithRoute(t *testing.T) {
	nodes := switchNodes(8)
	keys := make([]string, 5000)
	for i := range keys {
		keys[i] = fmt.Sprintf("/data/train/shard-%05d.bin", i)
	}
	for name, r := range map[string]hvac.Router{
		"RingRecache": NewRingRecache(nodes, 100),
		"Switchable":  NewRouter(KindAdaptive, nodes, 100),
	} {
		for _, failed := range []cluster.NodeID{nodes[3], nodes[6]} { // the second plans on an already-shrunk ring
			before := make(map[string]cluster.NodeID, len(keys))
			for _, k := range keys {
				before[k] = r.Route(k).Node
			}
			plan := r.PlanRecache(failed, keys)
			r.NodeFailed(failed)
			planned := make(map[string]cluster.NodeID, len(keys)/len(nodes))
			for n, share := range plan {
				for _, k := range share {
					if prev, dup := planned[k]; dup {
						t.Fatalf("%s: %q planned onto both %s and %s", name, k, prev, n)
					}
					planned[k] = n
				}
			}
			if len(planned) == 0 {
				t.Fatalf("%s: empty plan for %s", name, failed)
			}
			for _, k := range keys {
				after := r.Route(k)
				if after.Kind != hvac.RouteNode {
					t.Fatalf("%s: %q routes with kind %d after the failure", name, k, after.Kind)
				}
				n, inPlan := planned[k]
				switch {
				case before[k] == failed && (!inPlan || n != after.Node):
					t.Fatalf("%s: lost key %q routes to %s but the plan says %q (planned=%v)", name, k, after.Node, n, inPlan)
				case before[k] != failed && (inPlan || after.Node != before[k]):
					t.Fatalf("%s: key %q of surviving owner %s: planned=%v, now routes to %s", name, k, before[k], inPlan, after.Node)
				}
			}
			if again := r.PlanRecache(failed, keys); len(again) != 0 {
				t.Errorf("%s: planning for %s after its removal moved %d shares, want none", name, failed, len(again))
			}
		}
	}

	s := NewRouter(KindAdaptive, nodes, 100)
	s.SwitchTo(KindPFS)
	if plan := s.PlanRecache(nodes[1], keys); plan != nil {
		t.Errorf("Switchable planned %d shares with the ftpfs response in force, want none", len(plan))
	}
}
