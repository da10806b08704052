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
	"io"
	"strings"
	"time"

	"repro/internal/failure"
	"repro/internal/ftcache"
	"repro/internal/partition"
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
	// Jobs in the synthetic SLURM log (paper: 181,933).
	Jobs int
	// Fig6bTrials per sweep point (paper: 500).
	Fig6bTrials int
	// Fig6bNodes is the ring size for Fig 6(b) (paper: 1024).
	Fig6bNodes int
	// Seed for all randomness.
	Seed int64
}

// PaperScale reproduces the published configuration; every experiment
// at this scale runs in seconds.
func PaperScale() Scale {
	return Scale{
		Nodes:          []int{64, 128, 256, 512, 1024},
		Repeats:        3,
		DatasetDivisor: 1,
		Jobs:           181933,
		Fig6bTrials:    500,
		Fig6bNodes:     1024,
		Seed:           1,
	}
}

func (s Scale) dataset() workload.Dataset {
	return workload.CosmoFlowTrain().Scaled(s.DatasetDivisor)
}

func (s Scale) trainConfig(nodes int, kind ftcache.StrategyKind, seed int64) trainsim.Config {
	cfg := trainsim.Frontier(nodes, kind)
	cfg.Dataset = s.dataset()
	cfg.Seed = seed
	return cfg
}

// A Sweep runs experiments at one Scale and keeps what they share: the
// synthetic SLURM log behind Table I and Figs 1–2, and the DES's
// prepared paths, owner tables and orders behind Figs 5–6 and the
// extensions. Both are built on first use and freed with the Sweep. A
// Sweep is not safe for concurrent use.
type Sweep struct {
	s    Scale
	log  slurmlog.GeneratorConfig
	recs []slurmlog.Record
	prep *trainsim.Prepared
}

// NewSweep returns a Sweep at scale s.
func NewSweep(s Scale) *Sweep { return &Sweep{s: s} }

// Result is what every experiment returns: the paper-style rendering
// and a machine-readable table.
type Result interface {
	Format() string
	WriteCSV(io.Writer) error
}

// Names lists every experiment in the order `ftcbench -exp all` runs
// them; results/csv/<name>.csv is each one's CSV at PaperScale.
var Names = []string{
	"table1", "fig1", "fig2", "fig5a", "fig5b", "fig6a", "fig6b",
	"extrepl", "extvnode",
}

// Run runs the named experiment; ok is false for an unknown name.
func (w *Sweep) Run(name string) (Result, bool) {
	run, ok := map[string]func() Result{
		"table1":   func() Result { return w.Table1() },
		"fig1":     func() Result { return w.Fig1() },
		"fig2":     func() Result { return w.Fig2() },
		"fig5a":    func() Result { return w.Fig5a() },
		"fig5b":    func() Result { return w.Fig5b() },
		"fig6a":    func() Result { return w.Fig6a() },
		"fig6b":    func() Result { return w.Fig6b() },
		"extrepl":  func() Result { return w.ExtReplication() },
		"extvnode": func() Result { return w.ExtVnodeSweep() },
	}[name]
	if !ok {
		return nil, false
	}
	return run(), true
}

// records generates the synthetic SLURM log once.
func (w *Sweep) records() (slurmlog.GeneratorConfig, []slurmlog.Record) {
	if w.recs == nil {
		w.log = slurmlog.FrontierDefaults(w.s.Seed)
		w.log.Jobs = w.s.Jobs
		w.recs = slurmlog.Generate(w.log)
	}
	return w.log, w.recs
}

// prepared formats the dataset's paths once; the DES runs and Fig 6(b)
// share them.
func (w *Sweep) prepared() *trainsim.Prepared {
	if w.prep == nil {
		w.prep = trainsim.Prepare(w.s.dataset())
	}
	return w.prep
}

func (w *Sweep) run(cfg trainsim.Config) trainsim.Result { return w.prepared().Run(cfg) }

// --- Table I -----------------------------------------------------------

// Table1Result is the reproduced Table I.
type Table1Result struct {
	Table slurmlog.TableI
}

// Table1 computes Table I from the synthetic log.
func (w *Sweep) Table1() Table1Result {
	_, recs := w.records()
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
func (w *Sweep) Fig1() Fig1Result {
	cfg, recs := w.records()
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
func (w *Sweep) Fig2() Fig2Result {
	_, recs := w.records()
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
}

var fig5Strategies = []ftcache.StrategyKind{
	ftcache.KindNoFT, ftcache.KindPFS, ftcache.KindNVMe,
}

// Fig5a runs the no-failure panel.
func (w *Sweep) Fig5a() Fig5Result {
	return w.fig5("Fig 5(a): end-to-end training time, no failures", false)
}

// Fig5b runs the with-failures panel: 5 random single-node failures
// after the first epoch, as in the paper.
func (w *Sweep) Fig5b() Fig5Result {
	return w.fig5("Fig 5(b): end-to-end training time, 5 random failures", true)
}

func (w *Sweep) fig5(title string, withFailures bool) Fig5Result {
	s := w.s
	res := Fig5Result{Title: title}
	for _, n := range s.Nodes {
		base := w.run(s.trainConfig(n, ftcache.KindNVMe, s.Seed))
		for _, kind := range fig5Strategies {
			var runs []float64
			aborted := false
			for rep := 0; rep < s.Repeats; rep++ {
				seed := s.Seed + int64(rep)*101
				cfg := s.trainConfig(n, kind, seed)
				if withFailures {
					cfg.Failures = failure.Random(5, cfg.Epochs, seed+7)
				}
				out := w.run(cfg)
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
	for _, row := range r.Rows {
		if g := r.Gap(row.Nodes); row.Strategy == ftcache.KindNVMe && g != 0 {
			fmt.Fprintf(&b, "  FT w/ NVMe beats FT w/ PFS by %.1f%% at %d nodes\n", 100*g, row.Nodes)
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
func (w *Sweep) Fig6a() Fig6aResult {
	s := w.s
	var res Fig6aResult
	spec := []failure.Event{{Epoch: 2, Frac: 0.02}}
	for _, n := range s.Nodes {
		base := w.run(s.trainConfig(n, ftcache.KindNVMe, s.Seed))
		pcfg := s.trainConfig(n, ftcache.KindPFS, s.Seed)
		pcfg.Failures = spec
		pfs := w.run(pcfg)
		ncfg := s.trainConfig(n, ftcache.KindNVMe, s.Seed)
		ncfg.Failures = spec
		nvme := w.run(ncfg)
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
type Fig6bResult struct{ Points []partition.RedistributePoint }

// Fig6b runs the Monte-Carlo sweep (paper: 1024 physical nodes, 500
// trials, vnodes ∈ {10, 50, 100, 500, 1000}).
func (w *Sweep) Fig6b() Fig6bResult {
	return Fig6bResult{Points: partition.RedistributeSweep(
		w.s.Fig6bNodes, w.prepared().Paths(), w.s.Fig6bTrials, w.s.Seed, partition.PaperVirtualNodes)}
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
