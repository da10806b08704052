package partition

// MovementReport quantifies how much data a membership change relocates —
// the metric behind the paper's argument that the hash ring achieves "the
// absolute theoretical minimum data movement" (§IV-B).
type MovementReport struct {
	Keys int
	// FromFailed counts keys that were owned by the failed node; these
	// must move no matter the strategy (their cache copy is gone).
	FromFailed int
	// Collateral counts keys that moved between two surviving nodes —
	// pure overhead: their cached copies were intact but are now on the
	// "wrong" node and must be re-fetched or migrated.
	Collateral int
	// LiveAfter is the surviving node count.
	LiveAfter int
}

// Moved is the total number of keys whose owner changed.
func (m MovementReport) Moved() int { return m.FromFailed + m.Collateral }

// MovedFraction is Moved as a fraction of the key population.
func (m MovementReport) MovedFraction() float64 {
	if m.Keys == 0 {
		return 0
	}
	return float64(m.Moved()) / float64(m.Keys)
}

// MeasureFailure records key ownership, removes node from p, and reports
// how ownership shifted. The partitioner is mutated (the node stays
// removed).
func MeasureFailure(p Partitioner, keys []string, node NodeID) MovementReport {
	before := make([]NodeID, len(keys))
	for i, k := range keys {
		before[i], _ = p.Owner(k)
	}
	p.Remove(node)
	rep := MovementReport{Keys: len(keys), LiveAfter: len(p.Nodes())}
	for i, k := range keys {
		after, ok := p.Owner(k)
		if !ok {
			continue
		}
		switch {
		case before[i] == node:
			rep.FromFailed++ // unavoidable move
		case after != before[i]:
			rep.Collateral++ // survivor-to-survivor churn
		}
	}
	return rep
}

// LoadCounts returns the number of keys owned per live node, a balance
// snapshot comparable across strategies. Redistribute counts each
// trial's receivers with it.
func LoadCounts(p Partitioner, keys []string) map[NodeID]int {
	counts := make(map[NodeID]int)
	for _, k := range keys {
		if n, ok := p.Owner(k); ok {
			counts[n]++
		}
	}
	return counts
}
