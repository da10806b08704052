// Package experiments regenerates every table and figure of the paper's
// evaluation from this repository's implementations:
//
//	Table I  — failure counts/ratios from the (synthetic) SLURM log
//	Fig 1    — weekly mean elapsed time of failed jobs, 27 weeks
//	Fig 2    — failure-type mix by node count (a) and elapsed time (b)
//	Fig 5(a) — end-to-end training time without failures, 64–1024 nodes
//	Fig 5(b) — end-to-end training time with 5 random failures
//	Fig 6(a) — per-epoch analysis around a failure
//	Fig 6(b) — virtual-node sweep of post-failure load redistribution
//
// Each experiment returns a structured result plus a Format() rendering
// of the same rows/series the paper reports. EXPERIMENTS.md records the
// paper-vs-measured comparison produced by these functions.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/failure"
	"repro/internal/ftcache"
	"repro/internal/loadsim"
	"repro/internal/slurmlog"
	"repro/internal/stats"
	"repro/internal/trainsim"
	"repro/internal/workload"
)

// Scale selects experiment fidelity.
type Scale struct {
	// Nodes is the x-axis of Fig 5/6(a) (paper: 64..1024).
	Nodes []int
	// Repeats per configuration (paper: 3).
	Repeats int
	// DatasetDivisor shrinks the CosmoFlow file count (1 = full).
	DatasetDivisor int
	// LocalBatch per node per step for the training model (default 8).
	LocalBatch int
	// Jobs in the synthetic SLURM log (paper: 181,933).
	Jobs int
	// Fig6bTrials per sweep point (paper: 500).
	Fig6bTrials int
	// Fig6bNodes is the ring size for Fig 6(b) (paper: 1024).
	Fig6bNodes int
	// Seed for all randomness.
	Seed int64
}

// PaperScale reproduces the published configuration (minutes of CPU).
func PaperScale() Scale {
	return Scale{
		Nodes:          []int{64, 128, 256, 512, 1024},
		Repeats:        3,
		DatasetDivisor: 1,
		LocalBatch:     8,
		Jobs:           181933,
		Fig6bTrials:    500,
		Fig6bNodes:     1024,
		Seed:           1,
	}
}

// QuickScale is a seconds-scale variant with the same shapes, used by
// the benchmark harness and CI.
func QuickScale() Scale {
	return Scale{
		Nodes:          []int{64, 256, 1024},
		Repeats:        1,
		DatasetDivisor: 8,
		LocalBatch:     8,
		Jobs:           40000,
		Fig6bTrials:    60,
		Fig6bNodes:     256,
		Seed:           1,
	}
}

func (s Scale) trainConfig(nodes int, kind ftcache.StrategyKind, seed int64) trainsim.Config {
	cfg := trainsim.Frontier(nodes, kind)
	if s.DatasetDivisor > 1 {
		cfg.Dataset = workload.CosmoFlowTrain().Scaled(s.DatasetDivisor)
	}
	if s.LocalBatch > 0 {
		cfg.LocalBatch = s.LocalBatch
	}
	cfg.Seed = seed
	return cfg
}

// --- Table I -----------------------------------------------------------

// Table1Result is the reproduced Table I.
type Table1Result struct {
	Table slurmlog.TableI
}

// Table1 generates the synthetic log and computes Table I.
func Table1(s Scale) Table1Result {
	cfg := slurmlog.FrontierDefaults(s.Seed)
	if s.Jobs > 0 {
		cfg.Jobs = s.Jobs
	}
	recs := slurmlog.Generate(cfg)
	return Table1Result{Table: slurmlog.ComputeTableI(recs)}
}

// Format renders the paper's Table I layout.
func (r Table1Result) Format() string {
	t := r.Table
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: job failures (synthetic log calibrated to Frontier)\n")
	fmt.Fprintf(&b, "%-16s %9s %14s %14s\n", "Type", "Count", "Failure ratio", "Overall ratio")
	fmt.Fprintf(&b, "%-16s %9d %14s %13.2f%%\n", "Total Jobs", t.TotalJobs, "N/A", 100.0)
	fmt.Fprintf(&b, "%-16s %9d %13.2f%% %13.2f%%\n", "Total Failures",
		t.TotalFailures, 100.0, 100*t.FailureRatio())
	rows := []struct {
		name  string
		state slurmlog.State
		count int
	}{
		{"Node Fail", slurmlog.StateNodeFail, t.NodeFail},
		{"Timeout", slurmlog.StateTimeout, t.Timeout},
		{"Job Fail", slurmlog.StateJobFail, t.JobFail},
	}
	for _, row := range rows {
		fmt.Fprintf(&b, "%-16s %9d %13.2f%% %13.2f%%\n", row.name, row.count,
			100*t.ShareOfFailures(row.state), 100*t.ShareOfAll(row.state))
	}
	return b.String()
}

// --- Fig 1 -------------------------------------------------------------

// Fig1Result is the weekly failed-job elapsed series.
type Fig1Result struct {
	Weeks          []slurmlog.WeeklyElapsed
	OverallMinutes float64
}

// Fig1 computes the weekly series from the synthetic log.
func Fig1(s Scale) Fig1Result {
	cfg := slurmlog.FrontierDefaults(s.Seed)
	if s.Jobs > 0 {
		cfg.Jobs = s.Jobs
	}
	recs := slurmlog.Generate(cfg)
	weeks, overall := slurmlog.Fig1(recs, cfg.Start, cfg.Weeks)
	return Fig1Result{Weeks: weeks, OverallMinutes: overall}
}

// Format renders the weekly series with an ASCII bar per week.
func (r Fig1Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 1: mean elapsed minutes of failed jobs per week (overall %.1f min)\n",
		r.OverallMinutes)
	fmt.Fprintf(&b, "%4s %9s %9s %9s %9s  %s\n", "week", "JOB_FAIL", "TIMEOUT", "NODE_FAIL", "ALL", "")
	maxAll := 1.0
	for _, w := range r.Weeks {
		if w.AllFailedMinutes > maxAll {
			maxAll = w.AllFailedMinutes
		}
	}
	for _, w := range r.Weeks {
		bar := strings.Repeat("#", int(w.AllFailedMinutes/maxAll*40))
		fmt.Fprintf(&b, "%4d %9.1f %9.1f %9.1f %9.1f  %s\n",
			w.Week, w.JobFailMinutes, w.TimeoutMinutes, w.NodeFailMinutes,
			w.AllFailedMinutes, bar)
	}
	return b.String()
}

// --- Fig 2 -------------------------------------------------------------

// Fig2Result is the bucketed failure-type distribution.
type Fig2Result struct {
	ByNodes   []slurmlog.Bucket
	ByElapsed []slurmlog.Bucket
}

// Fig2 computes both panels from the synthetic log.
func Fig2(s Scale) Fig2Result {
	cfg := slurmlog.FrontierDefaults(s.Seed)
	if s.Jobs > 0 {
		cfg.Jobs = s.Jobs
	}
	recs := slurmlog.Generate(cfg)
	return Fig2Result{ByNodes: slurmlog.Fig2a(recs), ByElapsed: slurmlog.Fig2b(recs)}
}

// Format renders both panels.
func (r Fig2Result) Format() string {
	var b strings.Builder
	panel := func(title string, buckets []slurmlog.Bucket) {
		fmt.Fprintf(&b, "%s\n", title)
		fmt.Fprintf(&b, "%-12s %8s %9s %9s %10s %12s\n",
			"bucket", "total", "JOB_FAIL", "TIMEOUT", "NODE_FAIL", "NF+TO share")
		for _, bk := range buckets {
			fmt.Fprintf(&b, "%-12s %8d %8.1f%% %8.1f%% %9.1f%% %11.1f%%\n",
				bk.Label, bk.Total(),
				100*bk.Share(slurmlog.StateJobFail),
				100*bk.Share(slurmlog.StateTimeout),
				100*bk.Share(slurmlog.StateNodeFail),
				100*bk.NodeFailureClassShare())
		}
	}
	panel("Fig 2(a): failure mix by node count", r.ByNodes)
	b.WriteString("\n")
	panel("Fig 2(b): failure mix by elapsed time", r.ByElapsed)
	return b.String()
}

// --- Fig 5 -------------------------------------------------------------

// Fig5Row is one (strategy, node-count) cell of Fig 5.
type Fig5Row struct {
	Strategy ftcache.StrategyKind
	Nodes    int
	// Mean and stddev of total training time across repeats.
	Mean   time.Duration
	StdDev time.Duration
	// OverheadVsBase is Mean relative to the same-scale no-failure
	// FT w/ NVMe baseline minus 1 (only meaningful for Fig 5(b)).
	OverheadVsBase float64
	Aborted        bool
}

// Fig5Result holds one panel of Fig 5.
type Fig5Result struct {
	Title string
	Rows  []Fig5Row
	// BaseByNodes is the no-failure reference per node count (the
	// dashed line of Fig 5(b)).
	BaseByNodes map[int]time.Duration
}

var fig5Strategies = []ftcache.StrategyKind{
	ftcache.KindNoFT, ftcache.KindPFS, ftcache.KindNVMe,
}

// Fig5a runs the no-failure panel.
func Fig5a(s Scale) Fig5Result {
	return fig5(s, "Fig 5(a): end-to-end training time, no failures", false)
}

// Fig5b runs the with-failures panel: 5 random single-node failures
// after the first epoch, as in the paper.
func Fig5b(s Scale) Fig5Result {
	return fig5(s, "Fig 5(b): end-to-end training time, 5 random failures", true)
}

func fig5(s Scale, title string, withFailures bool) Fig5Result {
	res := Fig5Result{Title: title, BaseByNodes: make(map[int]time.Duration)}
	for _, n := range s.Nodes {
		base := trainsim.Run(s.trainConfig(n, ftcache.KindNVMe, s.Seed))
		res.BaseByNodes[n] = base.Total
		for _, kind := range fig5Strategies {
			var runs []float64
			aborted := false
			for rep := 0; rep < s.Repeats; rep++ {
				seed := s.Seed + int64(rep)*101
				cfg := s.trainConfig(n, kind, seed)
				if withFailures {
					cfg.Failures = failure.Random(5, cfg.Epochs, seed+7)
				}
				out := trainsim.Run(cfg)
				if out.Aborted {
					aborted = true
					continue
				}
				runs = append(runs, out.Total.Seconds())
			}
			row := Fig5Row{Strategy: kind, Nodes: n, Aborted: aborted && len(runs) == 0}
			if len(runs) > 0 {
				row.Mean = time.Duration(stats.Mean(runs) * float64(time.Second))
				row.StdDev = time.Duration(stats.StdDev(runs) * float64(time.Second))
				row.OverheadVsBase = float64(row.Mean)/float64(base.Total) - 1
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res
}

// Gap returns how much faster FT w/ NVMe is than FT w/ PFS at n nodes:
// 1 - nvme/pfs (the paper reports 14.8% at 64, 24.9% at 1024).
func (r Fig5Result) Gap(n int) float64 {
	var nvme, pfs time.Duration
	for _, row := range r.Rows {
		if row.Nodes != n {
			continue
		}
		switch row.Strategy {
		case ftcache.KindNVMe:
			nvme = row.Mean
		case ftcache.KindPFS:
			pfs = row.Mean
		}
	}
	if pfs == 0 || nvme == 0 {
		return 0
	}
	return 1 - float64(nvme)/float64(pfs)
}

// Format renders the panel as a table.
func (r Fig5Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Title)
	fmt.Fprintf(&b, "%6s %-12s %12s %10s %10s\n", "nodes", "strategy", "total", "stddev", "vs base")
	for _, row := range r.Rows {
		if row.Aborted {
			fmt.Fprintf(&b, "%6d %-12s %12s %10s %10s\n",
				row.Nodes, name(row.Strategy), "ABORTED", "-", "-")
			continue
		}
		fmt.Fprintf(&b, "%6d %-12s %12s %10s %+9.1f%%\n",
			row.Nodes, name(row.Strategy),
			row.Mean.Round(time.Second), row.StdDev.Round(time.Second),
			100*row.OverheadVsBase)
	}
	for _, n := range sortedNodes(r.Rows) {
		if g := r.Gap(n); g != 0 {
			fmt.Fprintf(&b, "  FT w/ NVMe beats FT w/ PFS by %.1f%% at %d nodes\n", 100*g, n)
		}
	}
	return b.String()
}

func name(k ftcache.StrategyKind) string {
	switch k {
	case ftcache.KindPFS:
		return "FT w/ PFS"
	case ftcache.KindNVMe:
		return "FT w/ NVMe"
	default:
		return "NoFT"
	}
}

func sortedNodes(rows []Fig5Row) []int {
	seen := map[int]bool{}
	var out []int
	for _, r := range rows {
		if !seen[r.Nodes] {
			seen[r.Nodes] = true
			out = append(out, r.Nodes)
		}
	}
	return out
}

// --- Fig 6(a) ----------------------------------------------------------

// Fig6aRow is the per-epoch analysis at one scale, all from runs with a
// single random failure in epoch 2 (plus a failure-free reference run).
type Fig6aRow struct {
	Nodes int
	// NoFailure is the clean epoch time.
	NoFailure time.Duration
	// PFSRedirect is the mean of failure-free epochs running with
	// redirection active (FT w/ PFS after the failure).
	PFSRedirect time.Duration
	// NVMeVictim is the epoch in which the failure struck (rollback +
	// recache) under FT w/ NVMe.
	NVMeVictim time.Duration
	// NVMeRecached is the mean of post-recache epochs (healed cache).
	NVMeRecached time.Duration
}

// Fig6aResult holds the Fig 6(a) series.
type Fig6aResult struct{ Rows []Fig6aRow }

// Fig6a runs the per-epoch analysis.
func Fig6a(s Scale) Fig6aResult {
	var res Fig6aResult
	spec := []failure.Event{{Epoch: 2, Frac: 0.02}}
	for _, n := range s.Nodes {
		base := trainsim.Run(s.trainConfig(n, ftcache.KindNVMe, s.Seed))
		pcfg := s.trainConfig(n, ftcache.KindPFS, s.Seed)
		pcfg.Failures = spec
		pfs := trainsim.Run(pcfg)
		ncfg := s.trainConfig(n, ftcache.KindNVMe, s.Seed)
		ncfg.Failures = spec
		nvme := trainsim.Run(ncfg)
		res.Rows = append(res.Rows, Fig6aRow{
			Nodes:        n,
			NoFailure:    base.CleanEpochMean(),
			PFSRedirect:  pfs.PostFailureEpochMean(),
			NVMeVictim:   nvme.VictimEpochMean(),
			NVMeRecached: nvme.PostFailureEpochMean(),
		})
	}
	return res
}

// Format renders the series.
func (r Fig6aResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 6(a): per-epoch time around a single failure\n")
	fmt.Fprintf(&b, "%6s %12s %14s %14s %14s\n",
		"nodes", "no-failure", "PFS-redirect", "NVMe victim", "NVMe recached")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%6d %12s %14s %14s %14s\n",
			row.Nodes,
			row.NoFailure.Round(time.Second),
			row.PFSRedirect.Round(time.Second),
			row.NVMeVictim.Round(time.Second),
			row.NVMeRecached.Round(time.Second))
	}
	return b.String()
}

// --- Fig 6(b) ----------------------------------------------------------

// Fig6bResult is the virtual-node sweep.
type Fig6bResult struct{ Points []loadsim.Point }

// Fig6b runs the Monte-Carlo sweep (paper: 1024 physical nodes, 500
// trials, vnodes ∈ {10, 50, 100, 500, 1000}).
func Fig6b(s Scale) Fig6bResult {
	files := workload.CosmoFlowTrain().NumFiles
	if s.DatasetDivisor > 1 {
		files /= s.DatasetDivisor
	}
	return Fig6bResult{Points: loadsim.Sweep(
		s.Fig6bNodes, files, s.Fig6bTrials, s.Seed, loadsim.PaperSweep)}
}

// Format renders the sweep.
func (r Fig6bResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 6(b): post-failure load redistribution vs virtual-node count\n")
	fmt.Fprintf(&b, "%7s %16s %18s %12s\n",
		"vnodes", "receiver nodes", "files per node", "lost files")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%7d %9.1f ±%5.1f %11.1f ±%5.1f %12.1f\n",
			p.VirtualNodes, p.ReceiverMean, p.ReceiverStdDev,
			p.FilesPerNodeMean, p.FilesPerNodeStdDev, p.LostMean)
	}
	return b.String()
}
