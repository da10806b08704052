package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
)

// metricSpec is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median by which an end-to-end metric may get
// worse; per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the one place names, units, directions
// and bounds are written down. The program computes values by name and
// takes everything else from here.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp benchSpec
	if err := json.Unmarshal(buf, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

func (sp *benchSpec) endToEnd(name string) *metricSpec { return findSpec(sp.EndToEnd, name) }
func (sp *benchSpec) perLayer(name string) *metricSpec { return findSpec(sp.PerLayer, name) }

func findSpec(list []metricSpec, name string) *metricSpec {
	for i := range list {
		if list[i].Name == name {
			return &list[i]
		}
	}
	return nil
}

// declared rejects a computed metric that BENCHMARK.json does not name:
// a number nobody declared is a number nobody can cite.
func (sp *benchSpec) declared(m metrics) error {
	for _, name := range sortedKeys(m) {
		if sp.endToEnd(name) == nil && sp.perLayer(name) == nil {
			return fmt.Errorf("metric %s is computed but not declared in BENCHMARK.json", name)
		}
	}
	return nil
}

// resultSchema is bumped when the result file's shape changes.
const resultSchema = 1

// metricValue is one reported figure. Over several runs Value is the
// median and Spread is (max − min) / median.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Spread  float64 `json:"spread,omitempty"`
}

// workloadResult is one workload's row of the trajectory.
type workloadResult struct {
	Name      string                 `json:"name"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Gates     []string               `json:"gates_failed,omitempty"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

// result is the versioned file a suite run writes: enough about the
// machine and the run that two files can be told comparable or not.
type result struct {
	Schema     int                    `json:"schema"`
	Label      string                 `json:"label"`
	Commit     string                 `json:"commit"`
	GoVersion  string                 `json:"go_version"`
	NumCPU     int                    `json:"nproc"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Workers    int                    `json:"workers"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Runs       int                    `json:"runs"`
	Workloads  []workloadResult       `json:"workloads"`
	Ledger     map[string]metricValue `json:"ledger"`
	// Claim is always null: this suite defines the yardstick and claims
	// no gain.
	Claim *string `json:"claim"`
}

func newResult(label string, seed int64, seconds float64, runs int) *result {
	return &result{
		Schema: resultSchema, Label: label, Commit: commit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers(),
		Seed: seed, Seconds: seconds, Runs: runs, Ledger: map[string]metricValue{},
	}
}

// commit is the VCS revision the binary was built from, when the build
// stamped one.
func commit() string {
	rev, dirty := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

func (r *result) correct() bool {
	for _, w := range r.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

func (r *result) write(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readResult(path string) (*result, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %d, this program reads %d", path, r.Schema, resultSchema)
	}
	return &r, nil
}

func (r *result) workload(name string) *workloadResult {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

// workloadResult folds a workload's untraced passes and its traced
// pass's metrics into one row: medians over the passes, with the spread
// beside them.
func (sp *benchSpec) workloadResult(name string, outs []*outcome, traced metrics, tracedGates []string) (workloadResult, error) {
	wr := workloadResult{Name: name, EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{}}
	wr.Gates = append(wr.Gates, tracedGates...)
	values := map[string][]float64{}
	for _, o := range outs {
		if err := sp.declared(o.m); err != nil {
			return wr, err
		}
		wr.Attempted += o.attempted
		wr.Failed += o.failed
		wr.Gates = append(wr.Gates, o.gates...)
		for k, v := range o.m {
			values[k] = append(values[k], v)
		}
	}
	if err := sp.declared(traced); err != nil {
		return wr, err
	}
	for k, v := range traced {
		values[k] = []float64{v}
	}
	wr.Correct = len(wr.Gates) == 0
	last := outs[len(outs)-1]
	for name, vs := range values {
		mv := metricValue{Value: median(vs), Samples: last.samples[name]}
		if mv.Value != 0 {
			mv.Spread = (slices.Max(vs) - slices.Min(vs)) / mv.Value
		}
		if ms := sp.endToEnd(name); ms != nil {
			mv.Unit = ms.Unit
			wr.EndToEnd[name] = mv
		} else {
			mv.Unit = sp.perLayer(name).Unit
			wr.PerLayer[name] = mv
		}
	}
	return wr, nil
}

// print writes every metric of the row as `workload metric value unit`.
func (wr workloadResult) print(w io.Writer) {
	for _, group := range []map[string]metricValue{wr.EndToEnd, wr.PerLayer} {
		for _, name := range sortedKeys(group) {
			mv := group[name]
			fmt.Fprintf(w, "%s %s %v %s", wr.Name, name, mv.Value, mv.Unit)
			if mv.Samples > 0 {
				fmt.Fprintf(w, " (n=%d)", mv.Samples)
			}
			fmt.Fprintln(w)
		}
	}
	for _, g := range wr.Gates {
		fmt.Fprintf(w, "%s GATE FAILED: %s\n", wr.Name, g)
	}
}
