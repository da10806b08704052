package partition

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/hashring"
	"repro/internal/stats"
	"repro/internal/xhash"
)

// The ring is studied on its own method names, with no adapter.
var _ Partitioner = (*hashring.Ring)(nil)

func nodes(n int) []NodeID {
	out := make([]NodeID, n)
	for i := range out {
		out[i] = NodeID(fmt.Sprintf("node-%04d", i))
	}
	return out
}

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("cosmoUniverse/train/univ_%06d.tfrecord", i)
	}
	return out
}

// strategy names a placement in test and benchmark output.
type strategy struct {
	name string
	p    Partitioner
}

func newRing(ns []NodeID) *hashring.Ring {
	return hashring.NewWithNodes(hashring.Config{VirtualNodes: 100}, ns)
}

func strategies(n int) []strategy {
	ns := nodes(n)
	return []strategy{
		{"modulo", NewModulo(ns)},
		{"multihash", NewMultiHash(ns)},
		{"range-absorb", NewRange(ns, false)},
		{"range-rebalance", NewRange(ns, true)},
		{"jumphash", NewJump(ns)},
		{"hashring", newRing(ns)},
	}
}

func TestAllStrategiesMapEveryKeyToLiveNode(t *testing.T) {
	ks := keys(500)
	for _, st := range strategies(16) {
		p := st.p
		live := map[NodeID]bool{}
		for _, n := range p.Nodes() {
			live[n] = true
		}
		for _, k := range ks {
			owner, ok := p.Owner(k)
			if !ok {
				t.Fatalf("%s: no owner for %q", st.name, k)
			}
			if !live[owner] {
				t.Fatalf("%s: owner %q of %q is not live", st.name, owner, k)
			}
		}
	}
}

func TestOwnerDeterministic(t *testing.T) {
	ks := keys(100)
	for _, st := range strategies(8) {
		p := st.p
		for _, k := range ks {
			a, _ := p.Owner(k)
			b, _ := p.Owner(k)
			if a != b {
				t.Fatalf("%s: nondeterministic owner for %q", st.name, k)
			}
		}
	}
}

func TestFailureKeepsMappingToSurvivors(t *testing.T) {
	ks := keys(500)
	for _, st := range strategies(16) {
		p := st.p
		victim := p.Nodes()[4]
		p.Remove(victim)
		if len(p.Nodes()) != 15 {
			t.Fatalf("%s: live=%d after one failure", st.name, len(p.Nodes()))
		}
		for _, k := range ks {
			owner, ok := p.Owner(k)
			if !ok || owner == victim {
				t.Fatalf("%s: key %q -> (%q,%v) after failing %q", st.name, k, owner, ok, victim)
			}
		}
	}
}

func TestRepeatedFailuresDownToOne(t *testing.T) {
	ks := keys(200)
	for _, st := range strategies(8) {
		p := st.p
		for len(p.Nodes()) > 1 {
			p.Remove(p.Nodes()[0])
		}
		last := p.Nodes()[0]
		for _, k := range ks {
			owner, ok := p.Owner(k)
			if !ok || owner != last {
				t.Fatalf("%s: with one survivor %q, key %q -> (%q,%v)", st.name, last, k, owner, ok)
			}
		}
		p.Remove(last)
		if _, ok := p.Owner(ks[0]); ok {
			t.Fatalf("%s: owner reported with zero live nodes", st.name)
		}
	}
}

func TestFailUnknownNodeIsNoop(t *testing.T) {
	ks := keys(100)
	for _, st := range strategies(6) {
		p := st.p
		before := map[string]NodeID{}
		for _, k := range ks {
			before[k], _ = p.Owner(k)
		}
		p.Remove("ghost")
		if len(p.Nodes()) != 6 {
			t.Fatalf("%s: live count changed on ghost failure", st.name)
		}
		for _, k := range ks {
			if o, _ := p.Owner(k); o != before[k] {
				t.Fatalf("%s: ghost failure moved key %q", st.name, k)
			}
		}
	}
}

// TestMovementComparison is the quantitative version of §IV-B: the ring
// and the absorb-mode range partitioner move only the failed node's keys;
// modulo and rebalance-mode range relocate large fractions of data cached
// on healthy nodes.
func TestMovementComparison(t *testing.T) {
	const n = 32
	ks := keys(4000)
	perStrategy := map[string]MovementReport{}
	for _, st := range strategies(n) {
		p := st.p
		victim := p.Nodes()[n/2]
		perStrategy[st.name] = MeasureFailure(p, ks, victim)
	}

	for _, name := range []string{"hashring", "range-absorb", "multihash"} {
		if c := perStrategy[name].Collateral; c != 0 {
			t.Errorf("%s: expected zero collateral movement, got %d", name, c)
		}
	}
	if c := perStrategy["modulo"].Collateral; c < len(ks)/2 {
		t.Errorf("modulo: expected massive collateral movement, got %d/%d", c, len(ks))
	}
	if c := perStrategy["range-rebalance"].Collateral; c == 0 {
		t.Error("range-rebalance: expected non-zero collateral movement")
	}
	// Everyone loses the failed node's keys; the counts differ per
	// strategy only because placement differs, but all must be positive.
	for name, rep := range perStrategy {
		if rep.FromFailed == 0 {
			t.Errorf("%s: victim owned no keys — placement is degenerate", name)
		}
	}
}

// TestRingMovementIsTheoreticalMinimum: the ring's total movement equals
// exactly the failed node's key count — nothing more can be saved.
func TestRingMovementIsTheoreticalMinimum(t *testing.T) {
	p := newRing(nodes(16))
	ks := keys(2000)
	victim := p.Nodes()[7]
	ownedByVictim := 0
	for _, k := range ks {
		if o, _ := p.Owner(k); o == victim {
			ownedByVictim++
		}
	}
	rep := MeasureFailure(p, ks, victim)
	if rep.Moved() != ownedByVictim {
		t.Errorf("ring moved %d keys, theoretical minimum is %d", rep.Moved(), ownedByVictim)
	}
	if rep.MovedFraction() > 2.0/16.0 {
		t.Errorf("ring moved fraction %.3f suspiciously high for 16 nodes", rep.MovedFraction())
	}
}

func TestRangeAbsorbImbalance(t *testing.T) {
	// After successor absorption, one survivor owns a double range: its
	// load should be roughly twice the average — the imbalance the paper
	// cites as range partitioning's weakness.
	p := NewRange(nodes(16), false)
	ks := keys(8000)
	MeasureFailure(p, ks, p.Nodes()[5])
	counts := LoadCounts(p, ks)
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	avg := float64(len(ks)) / 15.0
	if float64(maxC) < 1.6*avg {
		t.Errorf("expected ~2x load on absorbing node, max=%d avg=%.0f", maxC, avg)
	}
}

func TestRangeRebalanceStaysBalanced(t *testing.T) {
	p := NewRange(nodes(16), true)
	ks := keys(8000)
	MeasureFailure(p, ks, p.Nodes()[5])
	counts := LoadCounts(p, ks)
	vals := make([]float64, 0, len(counts))
	for _, c := range counts {
		vals = append(vals, float64(c))
	}
	if cv := stats.StdDev(vals) / stats.Mean(vals); cv > 0.2 {
		t.Errorf("rebalance-mode range should stay balanced, CV=%.3f", cv)
	}
}

func TestMultiHashRepeatedFailures(t *testing.T) {
	p := NewMultiHash(nodes(12))
	ks := keys(1000)
	// Fail half the cluster one at a time; mapping must stay valid and
	// only the failing nodes' keys may move at each step.
	for i := 0; i < 6; i++ {
		victim := p.Nodes()[0]
		rep := MeasureFailure(p, ks, victim)
		if rep.Collateral != 0 {
			t.Fatalf("multihash collateral movement %d at failure %d", rep.Collateral, i)
		}
	}
	if len(p.Nodes()) != 6 {
		t.Fatalf("live=%d", len(p.Nodes()))
	}
}

func TestModuloMatchesHVACFormula(t *testing.T) {
	// Modulo is hash(path) mod N over the sorted live node list, which is
	// what the original HVAC client computed — before and after a removal.
	ns := []NodeID{"node-c", "node-a", "node-d", "node-b"}
	p := NewModulo(ns)
	check := func(live []NodeID) {
		t.Helper()
		sorted := slices.Clone(live)
		slices.Sort(sorted)
		for _, k := range keys(200) {
			want := sorted[xhash.FNV1aString(k)%uint64(len(sorted))]
			if owner, ok := p.Owner(k); !ok || owner != want {
				t.Fatalf("live %v: Owner(%q) = (%q, %v), want %q", sorted, k, owner, ok, want)
			}
		}
	}
	check(ns)
	p.Remove("node-b")
	check([]NodeID{"node-c", "node-a", "node-d"})
}

func TestBalanceAcrossStrategies(t *testing.T) {
	ks := keys(16000)
	for _, st := range strategies(16) {
		p := st.p
		counts := LoadCounts(p, ks)
		vals := make([]float64, 0, 16)
		for _, n := range p.Nodes() {
			vals = append(vals, float64(counts[n]))
		}
		cv := stats.StdDev(vals) / stats.Mean(vals)
		limit := 0.25
		if cv > limit {
			t.Errorf("%s: initial load CV=%.3f exceeds %.2f", st.name, cv, limit)
		}
	}
}

func TestQuickOwnerAlwaysLive(t *testing.T) {
	f := func(keyRaw []byte, failIdx uint8) bool {
		key := string(keyRaw)
		p := NewMultiHash(nodes(9))
		p.Remove(p.Nodes()[int(failIdx)%9])
		owner, ok := p.Owner(key)
		if !ok {
			return false
		}
		for _, n := range p.Nodes() {
			if n == owner {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMovementReportAccessors(t *testing.T) {
	rep := MovementReport{Keys: 100, FromFailed: 10, Collateral: 5}
	if rep.Moved() != 15 {
		t.Errorf("Moved = %d", rep.Moved())
	}
	if rep.MovedFraction() != 0.15 {
		t.Errorf("MovedFraction = %v", rep.MovedFraction())
	}
	if (MovementReport{}).MovedFraction() != 0 {
		t.Error("empty report fraction should be 0")
	}
}

func BenchmarkPartitionerOwner(b *testing.B) {
	ks := keys(1024)
	for _, st := range strategies(256) {
		p := st.p
		b.Run(st.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Owner(ks[i&1023])
			}
		})
	}
}

func BenchmarkPartitionerMovement(b *testing.B) {
	ks := keys(4096)
	builders := []struct {
		name string
		mk   func() Partitioner
	}{
		{"modulo", func() Partitioner { return NewModulo(nodes(256)) }},
		{"multihash", func() Partitioner { return NewMultiHash(nodes(256)) }},
		{"range-absorb", func() Partitioner { return NewRange(nodes(256), false) }},
		{"hashring", func() Partitioner { return newRing(nodes(256)) }},
	}
	for _, bl := range builders {
		b.Run(bl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := bl.mk()
				MeasureFailure(p, ks, p.Nodes()[128])
			}
		})
	}
}
