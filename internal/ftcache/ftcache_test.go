package ftcache

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hvac"
	"repro/internal/testutil"
)

func nodes(n int) []cluster.NodeID {
	out := make([]cluster.NodeID, n)
	for i := range out {
		out[i] = cluster.NodeID(fmt.Sprintf("node-%02d", i))
	}
	return out
}

func paths(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("cosmoUniverse/train/univ_%06d.tfrecord", i)
	}
	return out
}

func TestNoFTRoutesThenAborts(t *testing.T) {
	r := NewNoFT(nodes(4))
	if r.Name() != "NoFT" {
		t.Errorf("name = %q", r.Name())
	}
	d := r.Route("file-a")
	if d.Kind != hvac.RouteNode {
		t.Fatalf("healthy route kind = %v", d.Kind)
	}
	if r.Aborted() {
		t.Error("aborted before any failure")
	}
	r.NodeFailed("node-02")
	if !r.Aborted() {
		t.Error("not aborted after failure")
	}
	for _, p := range paths(10) {
		if got := r.Route(p); got.Kind != hvac.RouteAbort {
			t.Fatalf("route after failure = %+v, want abort", got)
		}
	}
}

func TestNoFTAbortsEvenIfFailedNodeOwnedNothingRelevant(t *testing.T) {
	// NoFT aborts on ANY node failure, not only for keys it owned —
	// the baseline job dies wholesale.
	r := NewNoFT(nodes(2))
	r.NodeFailed("node-01")
	if d := r.Route("any"); d.Kind != hvac.RouteAbort {
		t.Error("NoFT must abort for every path after any failure")
	}
}

func TestPFSRedirectOnlyVictimTrafficMoves(t *testing.T) {
	ns := nodes(8)
	r := NewPFSRedirect(ns)
	if r.Name() != "FT w/ PFS" {
		t.Errorf("name = %q", r.Name())
	}
	ps := paths(400)
	before := map[string]hvac.Decision{}
	for _, p := range ps {
		before[p] = r.Route(p)
		if before[p].Kind != hvac.RouteNode {
			t.Fatalf("healthy route = %+v", before[p])
		}
	}
	victim := cluster.NodeID("node-03")
	r.NodeFailed(victim)
	if r.FailedCount() != 1 {
		t.Errorf("failed count = %d", r.FailedCount())
	}
	redirected := 0
	for _, p := range ps {
		after := r.Route(p)
		if before[p].Node == victim {
			if after.Kind != hvac.RoutePFS {
				t.Fatalf("victim-owned %q not redirected: %+v", p, after)
			}
			redirected++
			continue
		}
		// Everyone else's placement is untouched — no recaching happens.
		if after != before[p] {
			t.Fatalf("placement of %q changed: %+v -> %+v", p, before[p], after)
		}
	}
	if redirected == 0 {
		t.Error("victim owned no paths; test degenerate")
	}
}

func TestPFSRedirectAllNodesFailed(t *testing.T) {
	ns := nodes(3)
	r := NewPFSRedirect(ns)
	for _, n := range ns {
		r.NodeFailed(n)
	}
	for _, p := range paths(20) {
		if d := r.Route(p); d.Kind != hvac.RoutePFS {
			t.Fatalf("route with all failed = %+v", d)
		}
	}
}

func TestRingRecacheRemapsOnlyVictimKeys(t *testing.T) {
	ns := nodes(16)
	r := NewRingRecache(ns, 100)
	if r.Name() != "FT w/ NVMe" {
		t.Errorf("name = %q", r.Name())
	}
	ps := paths(2000)
	before := map[string]cluster.NodeID{}
	for _, p := range ps {
		d := r.Route(p)
		if d.Kind != hvac.RouteNode {
			t.Fatalf("healthy route = %+v", d)
		}
		before[p] = d.Node
	}
	victim := cluster.NodeID("node-09")
	r.NodeFailed(victim)
	moved := 0
	for _, p := range ps {
		d := r.Route(p)
		if d.Kind != hvac.RouteNode {
			t.Fatalf("route after failure = %+v", d)
		}
		if d.Node == victim {
			t.Fatalf("path %q still routed to failed node", p)
		}
		if before[p] == victim {
			moved++
		} else if d.Node != before[p] {
			t.Fatalf("surviving placement changed for %q: %s -> %s", p, before[p], d.Node)
		}
	}
	if moved == 0 {
		t.Error("victim owned no paths; test degenerate")
	}
	if r.Ring().Len() != 15 {
		t.Errorf("ring members = %d", r.Ring().Len())
	}
}

func TestRingRecacheFallsBackToPFSWhenRingEmpty(t *testing.T) {
	ns := nodes(2)
	r := NewRingRecache(ns, 10)
	r.NodeFailed(ns[0])
	r.NodeFailed(ns[1])
	if d := r.Route("p"); d.Kind != hvac.RoutePFS {
		t.Errorf("empty-ring route = %+v, want PFS", d)
	}
}

func TestRingRecacheDefaultVirtualNodes(t *testing.T) {
	r := NewRingRecache(nodes(2), 0)
	if r.Ring().PointCount() != 200 {
		t.Errorf("points = %d, want 200 (100/node default)", r.Ring().PointCount())
	}
}

func TestNewRouterFactory(t *testing.T) {
	ns := nodes(3)
	cases := []struct {
		kind StrategyKind
		name string
	}{
		{KindNoFT, "NoFT"},
		{KindPFS, "FT w/ PFS"},
		{KindNVMe, "FT w/ NVMe"},
		{StrategyKind("bogus"), "NoFT"}, // unknown → safe baseline
	}
	for _, c := range cases {
		r := NewRouter(c.kind, ns, 50)
		if r.Name() != c.name {
			t.Errorf("NewRouter(%q).Name() = %q, want %q", c.kind, r.Name(), c.name)
		}
	}
}

func TestRepeatedFailuresRingKeepsWorking(t *testing.T) {
	// The paper's motivation for the ring includes "handling repeated
	// node failures" cleanly; fail half the cluster sequentially.
	ns := nodes(8)
	r := NewRingRecache(ns, 64)
	ps := paths(500)
	for i := 0; i < 4; i++ {
		victim := r.Ring().Nodes()[0]
		prev := map[string]cluster.NodeID{}
		for _, p := range ps {
			prev[p] = r.Route(p).Node
		}
		r.NodeFailed(victim)
		for _, p := range ps {
			d := r.Route(p)
			if d.Kind != hvac.RouteNode || d.Node == victim {
				t.Fatalf("failure %d: bad route %+v", i, d)
			}
			if prev[p] != victim && d.Node != prev[p] {
				t.Fatalf("failure %d: collateral move of %q", i, p)
			}
		}
	}
}

// TestRouteAllocs: Route allocates nothing under any kind, healthy or
// with a node failed — the failed set is read, never copied, per lookup.
func TestRouteAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	ns, ps := nodes(8), paths(64)
	for _, kind := range []StrategyKind{KindNoFT, KindPFS, KindNVMe, KindAdaptive} {
		r := NewRouter(kind, ns, 100)
		for _, state := range []string{"healthy", "one failed"} {
			i := 0
			if n := testing.AllocsPerRun(1000, func() {
				r.Route(ps[i%len(ps)])
				i++
			}); n != 0 {
				t.Errorf("%s, %s: Route allocates %v objects, want 0", kind, state, n)
			}
			r.NodeFailed(ns[3])
		}
	}
}
