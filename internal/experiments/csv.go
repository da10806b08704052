package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/slurmlog"
)

// CSV emitters: every experiment result writes a machine-readable table
// so the figures can be re-plotted with any tool. Columns are stable and
// documented by their headers; times are seconds as floats.

func f(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
func d(v int64) string   { return strconv.FormatInt(v, 10) }

// WriteCSV emits Table I.
func (r Table1Result) WriteCSV(out io.Writer) error {
	t := r.Table
	rows := [][]string{
		{"type", "count", "failure_ratio", "overall_ratio"},
		{"total_jobs", d(int64(t.TotalJobs)), "", "1.0"},
		{"total_failures", d(int64(t.TotalFailures)), "1.0", f(t.FailureRatio())},
		{"node_fail", d(int64(t.NodeFail)), f(t.ShareOfFailures(slurmlog.StateNodeFail)), f(t.ShareOfAll(slurmlog.StateNodeFail))},
		{"timeout", d(int64(t.Timeout)), f(t.ShareOfFailures(slurmlog.StateTimeout)), f(t.ShareOfAll(slurmlog.StateTimeout))},
		{"job_fail", d(int64(t.JobFail)), f(t.ShareOfFailures(slurmlog.StateJobFail)), f(t.ShareOfAll(slurmlog.StateJobFail))},
	}
	return csv.NewWriter(out).WriteAll(rows)
}

// WriteCSV emits the Fig 1 weekly series.
func (r Fig1Result) WriteCSV(out io.Writer) error {
	rows := [][]string{{"week", "job_fail_min", "timeout_min", "node_fail_min", "all_min", "failures"}}
	for _, w := range r.Weeks {
		rows = append(rows, []string{
			d(int64(w.Week)), f(w.JobFailMinutes), f(w.TimeoutMinutes),
			f(w.NodeFailMinutes), f(w.AllFailedMinutes), d(int64(w.Failures)),
		})
	}
	return csv.NewWriter(out).WriteAll(rows)
}

// WriteCSV emits both Fig 2 panels, tagged by dimension.
func (r Fig2Result) WriteCSV(out io.Writer) error {
	rows := [][]string{{"dimension", "bucket", "total", "job_fail", "timeout", "node_fail", "nf_to_share"}}
	add := func(dim string, buckets []slurmlog.Bucket) {
		for _, b := range buckets {
			rows = append(rows, []string{
				dim, b.Label, d(int64(b.Total())),
				f(b.Share(slurmlog.StateJobFail)),
				f(b.Share(slurmlog.StateTimeout)),
				f(b.Share(slurmlog.StateNodeFail)),
				f(b.NodeFailureClassShare()),
			})
		}
	}
	add("nodes", r.ByNodes)
	add("elapsed", r.ByElapsed)
	return csv.NewWriter(out).WriteAll(rows)
}

// WriteCSV emits one Fig 5 panel.
func (r Fig5Result) WriteCSV(out io.Writer) error {
	rows := [][]string{{"nodes", "strategy", "total_sec", "stddev_sec", "overhead_vs_base", "aborted"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			d(int64(row.Nodes)), name(row.Strategy),
			f(row.Mean.Seconds()), f(row.StdDev.Seconds()),
			f(row.OverheadVsBase), fmt.Sprintf("%v", row.Aborted),
		})
	}
	return csv.NewWriter(out).WriteAll(rows)
}

// WriteCSV emits the Fig 6(a) series.
func (r Fig6aResult) WriteCSV(out io.Writer) error {
	rows := [][]string{{"nodes", "no_failure_sec", "pfs_redirect_sec", "nvme_victim_sec", "nvme_recached_sec"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			d(int64(row.Nodes)),
			f(row.NoFailure.Seconds()), f(row.PFSRedirect.Seconds()),
			f(row.NVMeVictim.Seconds()), f(row.NVMeRecached.Seconds()),
		})
	}
	return csv.NewWriter(out).WriteAll(rows)
}

// WriteCSV emits the Fig 6(b) sweep.
func (r Fig6bResult) WriteCSV(out io.Writer) error {
	rows := [][]string{{"vnodes", "receivers_mean", "receivers_sd", "files_per_node_mean", "files_per_node_sd", "lost_mean", "trials"}}
	for _, p := range r.Points {
		rows = append(rows, []string{
			d(int64(p.VirtualNodes)),
			f(p.ReceiverMean), f(p.ReceiverStdDev),
			f(p.FilesPerNodeMean), f(p.FilesPerNodeStdDev),
			f(p.LostMean), d(int64(p.Trials)),
		})
	}
	return csv.NewWriter(out).WriteAll(rows)
}

// WriteCSV emits the replication extension comparison.
func (r ExtReplicationResult) WriteCSV(out io.Writer) error {
	rows := [][]string{{"nodes", "base_sec", "recache_sec", "recache_pfs_reads", "replicated_sec", "replicated_pfs_reads"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			d(int64(row.Nodes)), f(row.Base.Seconds()),
			f(row.Recache.Seconds()), d(row.RecachePFSReads),
			f(row.Replicated.Seconds()), d(row.ReplicatedPFSReads),
		})
	}
	return csv.NewWriter(out).WriteAll(rows)
}

// WriteCSV emits the virtual-node end-to-end ablation.
func (r ExtVnodeSweepResult) WriteCSV(out io.Writer) error {
	rows := [][]string{{"vnodes", "total_sec", "victim_epoch_sec"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			d(int64(row.VirtualNodes)), f(row.Total.Seconds()), f(row.VictimEpoch.Seconds()),
		})
	}
	return csv.NewWriter(out).WriteAll(rows)
}
