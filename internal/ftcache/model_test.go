package ftcache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hashring"
	"repro/internal/hvac"
	"repro/internal/partition"
)

// model is the reference a Strategy is checked against. It never edits a
// placement: the static owner is Owner on a ring (or modulo) built once,
// and the recache owner is the first entry of that untouched ring's
// Owners walk that is not in the failed set — which is what a live ring
// must answer after its Removes and Adds, by minimal movement.
type model struct {
	kind   StrategyKind // as constructed
	resp   StrategyKind // in force
	n      int
	ring   *hashring.Ring    // nil under modulo
	modulo *partition.Modulo // nil under a ring kind
	failed map[cluster.NodeID]bool
}

// heir is the first live node clockwise of path, ignoring also.
func (m *model) heir(path string, also cluster.NodeID) (cluster.NodeID, bool) {
	walk, _ := m.ring.Owners(path, m.n)
	for _, n := range walk {
		if !m.failed[n] && n != also {
			return n, true
		}
	}
	return "", false
}

func (m *model) route(path string) hvac.Decision {
	if m.resp == KindNoFT && len(m.failed) > 0 {
		if m.kind != KindAdaptive {
			return hvac.Decision{Kind: hvac.RouteAbort}
		}
		m.resp = KindNVMe // the abort surfaces as a committed escape
	}
	var owner cluster.NodeID
	var ok bool
	switch {
	case m.resp == KindNVMe:
		owner, ok = m.heir(path, "")
	case m.ring != nil:
		owner, ok = m.ring.Owner(path)
		ok = ok && !m.failed[owner]
	default:
		owner, ok = m.modulo.Owner(path)
		ok = ok && !m.failed[owner]
	}
	if !ok {
		return hvac.Decision{Kind: hvac.RoutePFS}
	}
	return hvac.Decision{Kind: hvac.RouteNode, Node: owner}
}

// TestStrategyAgainstModel drives random evidence, switches and lookups
// through all four kinds and compares every answer with the model.
func TestStrategyAgainstModel(t *testing.T) {
	const (
		n     = 6
		vnode = 20
		ops   = 1500
	)
	ns := nodes(n)
	keys := paths(64)
	responses := []StrategyKind{KindNoFT, KindPFS, KindNVMe, "bogus"}
	for _, kind := range []StrategyKind{KindNoFT, KindPFS, KindNVMe, KindAdaptive} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s := NewRouter(kind, ns, vnode)
			m := &model{kind: kind, resp: s.Kind(), n: n, failed: map[cluster.NodeID]bool{}}
			if s.Ring() != nil {
				m.ring = hashring.NewWithNodes(hashring.Config{VirtualNodes: vnode}, ns)
			} else {
				m.modulo = partition.NewModulo(ns)
			}
			fail := func(op int, format string, args ...any) {
				t.Helper()
				t.Fatalf("kind=%s seed=%d op %d: %s", kind, seed, op, fmt.Sprintf(format, args...))
			}
			for op := 0; op < ops; op++ {
				node, path := ns[rng.Intn(n)], keys[rng.Intn(len(keys))]
				switch r := rng.Intn(100); {
				case r < 12:
					s.NodeFailed(node)
					m.failed[node] = true
				case r < 24:
					s.NodeRecovered(node)
					if kind != KindNoFT { // the baseline job stays dead
						delete(m.failed, node)
					}
				case r < 32:
					to := responses[rng.Intn(len(responses))]
					want := kind == KindAdaptive && to != "bogus" && to != m.resp
					if from, ok := s.SwitchTo(to); ok != want || from != m.resp {
						fail(op, "SwitchTo(%s) = (%s, %v), model (%s, %v)", to, from, ok, m.resp, want)
					}
					if want {
						m.resp = to
					}
				case r < 40:
					var want []cluster.NodeID
					k := 1 + rng.Intn(3)
					if m.ring != nil {
						walk, _ := m.ring.Owners(path, n)
						for _, w := range walk {
							if !m.failed[w] && len(want) < k {
								want = append(want, w)
							}
						}
					}
					if got := s.Replicas(path, k); !reflect.DeepEqual(got, want) {
						fail(op, "Replicas(%s, %d) = %v, model %v", path, k, got, want)
					}
				case r < 46:
					want := map[cluster.NodeID][]string{}
					if m.resp == KindNVMe && !m.failed[node] {
						for _, key := range keys {
							if owner, _ := m.heir(key, ""); owner != node {
								continue
							}
							if to, ok := m.heir(key, node); ok {
								want[to] = append(want[to], key)
							}
						}
					}
					got := s.PlanRecache(node, keys)
					if m.resp != KindNVMe && got != nil {
						fail(op, "PlanRecache under %s = %v, want nil", m.resp, got)
					}
					if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
						fail(op, "PlanRecache(%s) = %v, model %v", node, got, want)
					}
				default:
					want := m.route(path)
					if got := s.Route(path); got != want {
						fail(op, "Route(%s) = %+v, model %+v (failed %v, response %s)", path, got, want, m.failed, m.resp)
					}
					if s.Kind() != m.resp {
						fail(op, "response in force = %s, model %s", s.Kind(), m.resp)
					}
				}
			}
		}
	}
}
