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
// Each experiment returns a structured result whose Tabulate method gives
// the rows the paper reports as one Table; WriteCSV prints it as
// results/csv holds it and Render as ftcbench shows it. EXPERIMENTS.md
// records the paper-vs-measured comparison produced by these functions.
package experiments

import (
	"fmt"
	"strconv"
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

// Result is what every experiment returns: its rows as one Table, which
// WriteCSV and Render print.
type Result interface{ Tabulate() Table }

// all lists every experiment in the order `ftcbench -exp all` runs
// them; results/csv/<name>.csv is each one's CSV at PaperScale.
var all = []struct {
	name string
	run  func(*Sweep) Result
}{
	{"table1", func(w *Sweep) Result { return w.Table1() }},
	{"fig1", func(w *Sweep) Result { return w.Fig1() }},
	{"fig2", func(w *Sweep) Result { return w.Fig2() }},
	{"fig5a", func(w *Sweep) Result { return w.Fig5a() }},
	{"fig5b", func(w *Sweep) Result { return w.Fig5b() }},
	{"fig6a", func(w *Sweep) Result { return w.Fig6a() }},
	{"fig6b", func(w *Sweep) Result { return w.Fig6b() }},
	{"extrepl", func(w *Sweep) Result { return w.ExtReplication() }},
	{"extvnode", func(w *Sweep) Result { return w.ExtVnodeSweep() }},
}

// Names returns every experiment's name, in the order of `-exp all`.
func Names() []string {
	names := make([]string, len(all))
	for i, e := range all {
		names[i] = e.name
	}
	return names
}

// Run runs the named experiment; ok is false for an unknown name.
func (w *Sweep) Run(name string) (Result, bool) {
	for _, e := range all {
		if e.name == name {
			return e.run(w), true
		}
	}
	return nil, false
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
	// Log names the records' source in the title.
	Log string
}

// synthetic is the Log of every table the Sweep computes.
const synthetic = "synthetic log calibrated to Frontier"

// Table1 computes Table I from the synthetic log.
func (w *Sweep) Table1() Table1Result {
	_, recs := w.records()
	return Table1Result{Table: slurmlog.ComputeTableI(recs), Log: synthetic}
}

// Tabulate returns Table I: each failure type's count and its share of
// the failures and of all jobs.
func (r Table1Result) Tabulate() Table {
	t := r.Table
	row := func(name string, s slurmlog.State, n int) []string {
		return []string{name, d(n), f(t.ShareOfFailures(s)), f(t.ShareOfAll(s))}
	}
	return Table{
		Title:  "Table I: job failures (" + r.Log + ")",
		Header: []string{"type", "count", "failure_ratio", "overall_ratio"},
		Rows: [][]string{
			{"total_jobs", d(t.TotalJobs), "", "1.0"},
			{"total_failures", d(t.TotalFailures), "1.0", f(t.FailureRatio())},
			row("node_fail", slurmlog.StateNodeFail, t.NodeFail),
			row("timeout", slurmlog.StateTimeout, t.Timeout),
			row("job_fail", slurmlog.StateJobFail, t.JobFail),
		},
	}
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

// Tabulate returns the weekly series.
func (r Fig1Result) Tabulate() Table {
	t := Table{
		Title:  fmt.Sprintf("Fig 1: mean elapsed minutes of failed jobs per week (overall %.1f min)", r.OverallMinutes),
		Header: []string{"week", "job_fail_min", "timeout_min", "node_fail_min", "all_min", "failures"},
	}
	for _, w := range r.Weeks {
		t.Rows = append(t.Rows, []string{d(w.Week), f(w.JobFailMinutes), f(w.TimeoutMinutes),
			f(w.NodeFailMinutes), f(w.AllFailedMinutes), d(w.Failures)})
	}
	return t
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

// Tabulate returns both panels in one table, each row tagged by its
// panel's dimension.
func (r Fig2Result) Tabulate() Table {
	t := Table{
		Title: "Fig 2(a): failure mix by node count (dimension nodes)\n" +
			"Fig 2(b): failure mix by elapsed time (dimension elapsed)",
		Header: []string{"dimension", "bucket", "total", "job_fail", "timeout", "node_fail", "nf_to_share"},
	}
	add := func(dim string, buckets []slurmlog.Bucket) {
		for _, b := range buckets {
			t.Rows = append(t.Rows, []string{dim, b.Label, d(b.Total()),
				f(b.Share(slurmlog.StateJobFail)), f(b.Share(slurmlog.StateTimeout)),
				f(b.Share(slurmlog.StateNodeFail)), f(b.NodeFailureClassShare())})
		}
	}
	add("nodes", r.ByNodes)
	add("elapsed", r.ByElapsed)
	return t
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

// Tabulate returns the panel, with a note per scale on how much FT w/
// NVMe beats FT w/ PFS.
func (r Fig5Result) Tabulate() Table {
	t := Table{
		Title:  r.Title,
		Header: []string{"nodes", "strategy", "total_sec", "stddev_sec", "overhead_vs_base", "aborted"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{d(row.Nodes), strategyNames[row.Strategy],
			sec(row.Mean), sec(row.StdDev), f(row.OverheadVsBase), strconv.FormatBool(row.Aborted)})
		if g := r.Gap(row.Nodes); row.Strategy == ftcache.KindNVMe && g != 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("FT w/ NVMe beats FT w/ PFS by %.1f%% at %d nodes", 100*g, row.Nodes))
		}
	}
	return t
}

// strategyNames are the paper's names for Fig 5's strategies.
var strategyNames = map[ftcache.StrategyKind]string{
	ftcache.KindNoFT: "NoFT", ftcache.KindPFS: "FT w/ PFS", ftcache.KindNVMe: "FT w/ NVMe",
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

// Tabulate returns the series.
func (r Fig6aResult) Tabulate() Table {
	t := Table{
		Title:  "Fig 6(a): per-epoch time around a single failure",
		Header: []string{"nodes", "no_failure_sec", "pfs_redirect_sec", "nvme_victim_sec", "nvme_recached_sec"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{d(row.Nodes),
			sec(row.NoFailure), sec(row.PFSRedirect), sec(row.NVMeVictim), sec(row.NVMeRecached)})
	}
	return t
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

// Tabulate returns the sweep.
func (r Fig6bResult) Tabulate() Table {
	t := Table{
		Title:  "Fig 6(b): post-failure load redistribution vs virtual-node count",
		Header: []string{"vnodes", "receivers_mean", "receivers_sd", "files_per_node_mean", "files_per_node_sd", "lost_mean", "trials"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{d(p.VirtualNodes), f(p.ReceiverMean), f(p.ReceiverStdDev),
			f(p.FilesPerNodeMean), f(p.FilesPerNodeStdDev), f(p.LostMean), d(p.Trials)})
	}
	return t
}
