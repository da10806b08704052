// Command bench is the repository's one benchmark: four named workloads
// on live in-process clusters, the end-to-end metrics a user of the
// cache would see, and a per-layer ledger that says where a read and a
// put spend their time. BENCHMARK.json at the repository root declares
// the workloads and every metric name, unit, direction and bound; this
// program computes them. See README.md in this directory.
//
//	go run ./bench                                   whole suite, writes bench/results/BENCH_<label>.json
//	go run ./bench -workload zipf_tiered -trace 0    one workload, end-to-end metrics
//	go run ./bench -workload zipf_tiered -trace 1    one workload, per-layer metrics
//	go run ./bench -compare old.json new.json        verdict per workload and end-to-end metric
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/trace"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (a BENCHMARK.json name); empty runs the suite")
		seed         = flag.Int64("seed", 1, "generator seed: permutations, Zipf draws, victim order")
		secs         = flag.Float64("seconds", 0, "measured window per workload; 0 takes run_seconds from BENCHMARK.json")
		traced       = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		label        = flag.String("label", "local", "suite: the result is written to bench/results/BENCH_<label>.json")
		runs         = flag.Int("runs", 1, "suite: untraced runs per workload; values are medians and the spread is recorded")
		specPath     = flag.String("spec", "BENCHMARK.json", "the benchmark declaration")
		spansPath    = flag.String("spans", "", "append the traced pass's benchmark-side spans to this file as JSON lines")
		compare      = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	)
	flag.Parse()
	sp, err := loadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(os.Stdout, sp, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *secs <= 0 {
		*secs = float64(sp.RunSeconds)
	}
	ctx := context.Background()
	r := runner{spec: sp, seed: *seed, seconds: *secs, spansPath: *spansPath, out: os.Stdout}
	if *workloadName != "" {
		ok, err := r.driverRun(ctx, *workloadName, *traced == 1)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	res, err := r.suite(ctx, *label, *runs)
	if err != nil {
		fatal(err)
	}
	path := filepath.Join("bench", "results", "BENCH_"+*label+".json")
	if err := res.write(path); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n\"claim\": null\n", path)
	if !res.correct() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runner carries what every pass of one invocation shares.
type runner struct {
	spec      *benchSpec
	seed      int64
	seconds   float64
	small     bool // smoke sizes, one boot, a token ledger
	spansPath string
	out       io.Writer // where every metric is printed
}

// Shares of -seconds a per-layer run spends on its three parts.
const (
	layerUntracedShare = 0.4
	layerTracedShare   = 0.3
	layerLedgerShare   = 0.3
	ledgerEntries      = 27 // timed entries, counting the ledger's own cluster boot as two
)

// boots is how many cluster boots setup_s is the median of.
func (r *runner) boots() int {
	if r.small {
		return 1
	}
	return setupRuns
}

// ledgerFiles is the size of the path set the ledger runs on:
// epoch_uniform's.
func (r *runner) ledgerFiles() int { return params{small: r.small}.sized(16384) }

func (r *runner) find(name string) (func(context.Context, params) (*outcome, error), error) {
	for _, w := range workloadFuncs {
		if w.name == name {
			return w.run, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// untraced runs one pass with tracing off.
func (r *runner) untraced(ctx context.Context, name string, seed int64, secs float64, boots int) (*outcome, error) {
	run, err := r.find(name)
	if err != nil {
		return nil, err
	}
	return run(ctx, params{seed: seed, seconds: secs, full: r.seconds, small: r.small, boots: boots})
}

// tracedPass runs the workload again with benchmark-side spans kept and
// the program's own recorder on, and returns the trace.* metrics.
// untracedOps is the same workload's untraced throughput.
func (r *runner) tracedPass(ctx context.Context, name string, secs, untracedOps float64) (metrics, []string, error) {
	run, err := r.find(name)
	if err != nil {
		return nil, nil, err
	}
	rec := trace.Enable(1<<16, 1)
	o, err := run(ctx, params{seed: r.seed, seconds: secs, full: r.seconds, small: r.small, boots: 1, traced: true})
	traces := rec.Snapshot()
	trace.Disable()
	if err != nil {
		return nil, nil, err
	}
	m := metrics{}
	selfTimes(traces, m)
	callMetrics(o.spans, m)
	m["trace.overhead_share"] = 1 - ratio(o.ops, untracedOps)
	if r.spansPath != "" {
		if err := writeSpans(r.spansPath, name, o.spans); err != nil {
			return nil, nil, err
		}
	}
	return m, o.gates, nil
}

// driverRun is one run under the BENCHMARK.json contract: one workload,
// one seed, every end-to-end metric (or every per-layer metric) printed
// as `workload metric value unit` and then as one JSON object on the
// last line. It reports whether the outputs were correct.
func (r *runner) driverRun(ctx context.Context, name string, perLayer bool) (bool, error) {
	list, secs, boots := r.spec.EndToEnd, r.seconds, r.boots()
	if perLayer {
		list, secs, boots = r.spec.PerLayer, r.seconds*layerUntracedShare, 1
	}
	o, err := r.untraced(ctx, name, r.seed, secs, boots)
	if err != nil {
		return false, err
	}
	m, gates := o.m, o.gates
	if perLayer {
		tm, tgates, err := r.tracedPass(ctx, name, r.seconds*layerTracedShare, o.ops)
		if err != nil {
			return false, err
		}
		gates = append(gates, tgates...)
		for k, v := range tm {
			m[k] = v
		}
		if err := runLedger(ctx, r.ledgerFiles(), seconds(r.seconds*layerLedgerShare/ledgerEntries), m); err != nil {
			return false, err
		}
	}
	if err := r.spec.declared(m); err != nil {
		return false, err
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(gates) == 0, o.attempted, o.failed, map[string]metricValue{}}
	for _, ms := range list {
		v, ok := m[ms.Name]
		if !ok && !perLayer {
			return false, fmt.Errorf("%s did not produce end-to-end metric %s", name, ms.Name)
		}
		fmt.Fprintf(r.out, "%s %s %v %s\n", name, ms.Name, v, ms.Unit)
		out.Metrics[ms.Name] = metricValue{Value: v, Unit: ms.Unit}
	}
	for _, g := range gates {
		fmt.Fprintf(r.out, "%s GATE FAILED: %s\n", name, g)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(r.out, string(line))
	return out.Correct, nil
}

// suite runs every workload (runs untraced passes, then a traced pass of
// a third the length) and the ledger, and assembles the versioned
// result.
func (r *runner) suite(ctx context.Context, label string, runs int) (*result, error) {
	res := newResult(label, r.seed, r.seconds, runs)
	for _, w := range r.spec.Workloads {
		var outs []*outcome
		for i := 0; i < runs; i++ {
			o, err := r.untraced(ctx, w.Name, r.seed+int64(i), r.seconds, r.boots())
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			outs = append(outs, o)
		}
		tm, tgates, err := r.tracedPass(ctx, w.Name, r.seconds/3, outs[len(outs)-1].ops)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", w.Name, err)
		}
		wr, err := r.spec.workloadResult(w.Name, outs, tm, tgates)
		if err != nil {
			return nil, err
		}
		wr.print(r.out)
		res.Workloads = append(res.Workloads, wr)
	}
	lm := metrics{}
	ledgerPer := 300 * time.Millisecond
	if r.small {
		ledgerPer = time.Millisecond
	}
	if err := runLedger(ctx, r.ledgerFiles(), ledgerPer, lm); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	if err := r.spec.declared(lm); err != nil {
		return nil, err
	}
	for _, name := range sortedKeys(lm) {
		ms := r.spec.perLayer(name)
		res.Ledger[name] = metricValue{Value: lm[name], Unit: ms.Unit}
		fmt.Fprintf(r.out, "ledger %s %v %s\n", name, lm[name], ms.Unit)
	}
	return res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
