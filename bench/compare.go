package main

import (
	"fmt"
	"io"
)

// Verdicts of one workload × end-to-end metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// worsening is by how much new is worse than old as a share of old, in
// the metric's own direction; negative means better.
func worsening(ms *metricSpec, old, new float64) float64 {
	if old == 0 {
		return 0
	}
	if ms.Better == "higher" {
		return (old - new) / old
	}
	return (new - old) / old
}

// verdict decides one row. A spread wider than the bound in either file
// means the runs cannot tell a change of that size from noise, so the
// row is unresolved, not unchanged.
func verdict(ms *metricSpec, old, new metricValue) string {
	switch {
	case old.Spread > ms.Bound || new.Spread > ms.Bound:
		return verdictUnresolved
	case worsening(ms, old.Value, new.Value) > ms.Bound:
		return verdictRegressed
	}
	return verdictOK
}

// compareFiles prints, per workload and end-to-end metric, the old and
// new values, the change with its base, and the verdict. Directions and
// bounds come from BENCHMARK.json. It reports whether anything
// regressed: a row past its bound, or a failed_op_share that went up.
func compareFiles(w io.Writer, sp *benchSpec, oldPath, newPath string) (bool, error) {
	oldRes, err := readResult(oldPath)
	if err != nil {
		return false, err
	}
	newRes, err := readResult(newPath)
	if err != nil {
		return false, err
	}
	if oldRes.Workers != newRes.Workers {
		return false, fmt.Errorf("results are not comparable: %d workers against %d", oldRes.Workers, newRes.Workers)
	}
	regressed := false
	fmt.Fprintf(w, "%-14s %-16s %14s %14s  %-26s %s\n", "workload", "metric", "old", "new", "change (of old)", "verdict")
	for _, wl := range sp.Workloads {
		o, n := oldRes.workload(wl.Name), newRes.workload(wl.Name)
		if o == nil || n == nil {
			return false, fmt.Errorf("workload %s is missing from a result file", wl.Name)
		}
		for i := range sp.EndToEnd {
			ms := &sp.EndToEnd[i]
			ov, nv := o.EndToEnd[ms.Name], n.EndToEnd[ms.Name]
			v := verdict(ms, ov, nv)
			regressed = regressed || v == verdictRegressed
			change := fmt.Sprintf("%+.2f%% of %.6g %s", 100*(nv.Value-ov.Value)/ov.Value, ov.Value, ms.Unit)
			fmt.Fprintf(w, "%-14s %-16s %14.6g %14.6g  %-26s %s\n", wl.Name, ms.Name, ov.Value, nv.Value, change, v)
		}
		of, nf := o.PerLayer["failed_op_share"].Value, n.PerLayer["failed_op_share"].Value
		if nf > of {
			regressed = true
			fmt.Fprintf(w, "%-14s %-16s %14.6g %14.6g  %-26s %s\n", wl.Name, "failed_op_share", of, nf, "more operations fail", verdictRegressed)
		}
	}
	return regressed, nil
}
