// Command slurmfail generates and analyzes sacct-format job logs — the
// §III failure study as a standalone tool.
//
//	slurmfail gen -o frontier.sacct -jobs 181933 -seed 1
//	slurmfail analyze frontier.sacct
//
// `analyze` accepts any `sacct -P -o JobID,State,NNodes,ElapsedRaw,Submit`
// dump, so it runs unchanged against real scheduler logs. It prints
// Table I and Figs 1–2 as ftcbench does (experiments.Render), each
// titled with the file it read, then the MTBF estimate.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/slurmlog"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		genCmd(os.Args[2:])
	case "analyze":
		analyzeCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: slurmfail gen|analyze [flags]")
	os.Exit(2)
}

func genCmd(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	out := fs.String("o", "-", "output file (- = stdout)")
	jobs := fs.Int("jobs", 181933, "job count")
	weeks := fs.Int("weeks", 27, "weeks of production")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)

	cfg := slurmlog.FrontierDefaults(*seed)
	cfg.Jobs = *jobs
	cfg.Weeks = *weeks
	recs := slurmlog.Generate(cfg)

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}
	if err := slurmlog.WriteSacct(w, recs); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d records\n", len(recs))
}

func analyzeCmd(args []string) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	weeks := fs.Int("weeks", 27, "weeks in the Fig 1 series")
	start := fs.String("start", "", "week-0 start (RFC3339 date); default = earliest submit")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fail(fmt.Errorf("usage: slurmfail analyze <file>"))
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fail(err)
	}
	defer f.Close()
	recs, err := slurmlog.ParseSacct(f)
	if err != nil {
		fail(err)
	}
	if len(recs) == 0 {
		fail(fmt.Errorf("no records in %s", fs.Arg(0)))
	}

	startTime := recs[0].Submit
	for _, r := range recs {
		if r.Submit.Before(startTime) {
			startTime = r.Submit
		}
	}
	if *start != "" {
		t, err := time.Parse("2006-01-02", *start)
		if err != nil {
			fail(fmt.Errorf("bad -start: %w", err))
		}
		startTime = t
	}

	weekly, overall := slurmlog.Fig1(recs, startTime, *weeks)
	for _, r := range []experiments.Result{
		experiments.Table1Result{Table: slurmlog.ComputeTableI(recs), Log: fs.Arg(0)},
		experiments.Fig1Result{Weeks: weekly, OverallMinutes: overall},
		experiments.Fig2Result{ByNodes: slurmlog.Fig2a(recs), ByElapsed: slurmlog.Fig2b(recs)},
	} {
		fmt.Println(experiments.Render(r.Tabulate()))
	}

	mtbf := slurmlog.EstimateMTBF(recs)
	fmt.Printf("MTBF analysis (§III motivation)\n")
	fmt.Printf("  observation span:        %v\n", mtbf.Span.Round(time.Hour))
	fmt.Printf("  node-failure-class jobs: %d\n", mtbf.NodeFailureEvents)
	fmt.Printf("  node-hours consumed:     %.0f\n", mtbf.NodeHours)
	fmt.Printf("  per-node MTBF estimate:  %v\n", mtbf.PerNodeMTBF.Round(time.Hour))
	for _, n := range []int{64, 256, 1024, 4096, 9408} {
		fmt.Printf("  P(2h job on %5d nodes survives) = %.1f%%  (E[failures] = %.2f)\n",
			n, 100*mtbf.SurvivalProbability(n, 2*time.Hour),
			mtbf.ExpectedFailures(n, 2*time.Hour))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
