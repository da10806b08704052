package hashring

import (
	"math"
	"sort"
)

// Arc describes one contiguous ring segment and its owner: the half-open
// hash interval (Start, End] whose keys land on the virtual point at End.
// The wrap-around segment is reported with Start > End.
type Arc struct {
	Start, End uint64
	Owner      NodeID
}

// Arcs returns every ring segment in clockwise order starting from the
// lowest virtual point. An empty ring yields nil; a single-point ring
// yields one arc covering the full circle.
func (r *Ring) Arcs() []Arc {
	pts := r.snap.Load().points
	n := len(pts)
	if n == 0 {
		return nil
	}
	arcs := make([]Arc, 0, n)
	prev := pts[n-1].hash
	for _, p := range pts {
		arcs = append(arcs, Arc{Start: prev, End: p.hash, Owner: p.node})
		prev = p.hash
	}
	return arcs
}

// arcSpan returns the clockwise length of an arc in hash units, treating
// a zero-length full-circle arc (single point) as the whole space.
func arcSpan(a Arc) uint64 {
	if a.End == a.Start {
		return math.MaxUint64 // single point owns (essentially) the full circle
	}
	return a.End - a.Start // uint64 wrap-around handles Start > End
}

// OwnershipFractions returns each member's share of the hash space — the
// expected fraction of a uniformly hashed key population it owns. With
// enough virtual nodes every share approaches 1/N, which is exactly the
// load-balance property Fig 6(b) studies.
func (r *Ring) OwnershipFractions() map[NodeID]float64 {
	arcs := r.Arcs()
	if len(arcs) == 0 {
		return nil
	}
	spans := make(map[NodeID]float64, r.Len())
	for _, a := range arcs {
		spans[a.Owner] += float64(arcSpan(a))
	}
	total := 0.0
	for _, s := range spans {
		total += s
	}
	for n, s := range spans {
		spans[n] = s / total
	}
	return spans
}

// BalanceReport summarizes how evenly the ring splits the hash space.
type BalanceReport struct {
	Nodes        int
	MeanFraction float64 // always 1/Nodes
	MaxFraction  float64
	MinFraction  float64
	// CoeffVar is stddev/mean of per-node fractions; lower is better.
	CoeffVar float64
}

// Balance computes a BalanceReport for the current membership.
func (r *Ring) Balance() BalanceReport {
	fr := r.OwnershipFractions()
	if len(fr) == 0 {
		return BalanceReport{}
	}
	rep := BalanceReport{Nodes: len(fr), MinFraction: math.Inf(1)}
	var sum, sumsq float64
	for _, f := range fr {
		sum += f
		sumsq += f * f
		if f > rep.MaxFraction {
			rep.MaxFraction = f
		}
		if f < rep.MinFraction {
			rep.MinFraction = f
		}
	}
	mean := sum / float64(len(fr))
	rep.MeanFraction = mean
	variance := sumsq/float64(len(fr)) - mean*mean
	if variance < 0 {
		variance = 0
	}
	if mean > 0 {
		rep.CoeffVar = math.Sqrt(variance) / mean
	}
	return rep
}

// SuccessorMembers returns the distinct physical nodes that would inherit
// the failed member's arcs if it were removed, in clockwise-discovery
// order. This is the theoretical upper bound on Fig 6(b)'s receiver count
// for a given virtual-node setting (actual receivers are further limited
// by which arcs contain files).
func (r *Ring) SuccessorMembers(failed NodeID) []NodeID {
	s := r.snap.Load()
	if _, ok := s.member[failed]; !ok {
		return nil
	}
	pts := s.points
	n := len(pts)
	seen := make(map[NodeID]struct{})
	var out []NodeID
	for i, p := range pts {
		if p.node != failed {
			continue
		}
		// Walk clockwise from this failed point to the next surviving
		// point, resetting the index at the wrap instead of taking a
		// modulo every step.
		j := i + 1
		if j == n {
			j = 0
		}
		for steps := 0; steps < n; steps++ {
			q := pts[j]
			j++
			if j == n {
				j = 0
			}
			if q.node == failed {
				continue
			}
			if _, dup := seen[q.node]; !dup {
				seen[q.node] = struct{}{}
				out = append(out, q.node)
			}
			break
		}
	}
	return out
}

// AssignKeys maps every key to its owner, returning per-node key counts.
// It is the bulk form of Owner used by the load-distribution experiments.
func AssignKeys(r *Ring, keys []string) map[NodeID]int {
	counts := make(map[NodeID]int)
	for _, k := range keys {
		if owner, ok := r.Owner(k); ok {
			counts[owner]++
		}
	}
	return counts
}

// CountsSummary flattens a per-node count map into a sorted slice of
// counts (ascending), padding with zeros for members that own no keys so
// imbalance statistics include empty nodes.
func CountsSummary(counts map[NodeID]int, members []NodeID) []float64 {
	out := make([]float64, 0, len(members))
	for _, m := range members {
		out = append(out, float64(counts[m]))
	}
	sort.Float64s(out)
	return out
}
