package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/testutil"
)

// TestSuiteSmoke runs all four workloads, their traced passes and the
// ledger at an eighth of the size with 0.3 s windows, so the ordinary
// test run exercises the whole harness, every correctness gate included,
// in a few seconds.
func TestSuiteSmoke(t *testing.T) {
	testutil.CheckGoroutines(t)
	sp := testSpec(t)
	r := runner{spec: sp, seed: 1, seconds: 0.3, small: true, out: io.Discard}
	res, err := r.suite(context.Background(), "smoke", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(sp.Workloads) {
		t.Fatalf("%d workloads ran, BENCHMARK.json declares %d", len(res.Workloads), len(sp.Workloads))
	}
	for _, wr := range res.Workloads {
		if !wr.Correct || wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d gates=%v", wr.Name, wr.Correct, wr.Attempted, wr.Failed, wr.Gates)
		}
		for _, ms := range sp.EndToEnd {
			if mv, ok := wr.EndToEnd[ms.Name]; !ok || mv.Value <= 0 || mv.Unit != ms.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive value in %s", wr.Name, ms.Name, mv, ms.Unit)
			}
		}
		for name, mv := range wr.PerLayer {
			if strings.HasPrefix(name, "memtier.") && wr.Name != "zipf_tiered" && mv.Value != 0 {
				t.Errorf("%s: %s = %v, the RAM tier must do nothing outside zipf_tiered", wr.Name, name, mv.Value)
			}
		}
		if _, ok := wr.PerLayer["trace.overhead_share"]; !ok {
			t.Errorf("%s: trace.overhead_share missing", wr.Name)
		}
	}
	if got := res.workload("fail_recache").PerLayer["pfs_reads_per_lost_file"].Value; got < 1 || got > 1.01 {
		t.Errorf("fail_recache pfs_reads_per_lost_file = %v, want 1", got)
	}
	if got := res.workload("ingest_mixed").PerLayer["puts_per_s"].Value; got <= 0 {
		t.Errorf("ingest_mixed puts_per_s = %v", got)
	}
	for _, name := range []string{"ledger.read_sum_ns", "ledger.read_unattributed_share", "hvac.client_read_ns", "hvac.put_async_ns"} {
		if _, ok := res.Ledger[name]; !ok {
			t.Errorf("ledger metric %s missing", name)
		}
	}
	// Every per-layer name BENCHMARK.json declares is one the suite
	// produced somewhere: a declared name nothing computes is dead.
	produced := map[string]bool{}
	for name := range res.Ledger {
		produced[name] = true
	}
	for _, wr := range res.Workloads {
		for name := range wr.PerLayer {
			produced[name] = true
		}
	}
	for _, ms := range sp.PerLayer {
		if !produced[ms.Name] {
			t.Errorf("BENCHMARK.json declares per-layer metric %s, which no workload and no ledger entry produced", ms.Name)
		}
	}
}

// TestDriverRunContract checks the last line one run prints against the
// BENCHMARK.json contract: exactly the declared metrics of the asked-for
// kind, each with its unit.
func TestDriverRunContract(t *testing.T) {
	sp := testSpec(t)
	for _, perLayer := range []bool{false, true} {
		var out strings.Builder
		r := runner{spec: sp, seed: 3, seconds: 0.3, small: true, out: &out}
		ok, err := r.driverRun(context.Background(), "epoch_uniform", perLayer)
		if err != nil || !ok {
			t.Fatalf("perLayer=%v: ok=%v err=%v", perLayer, ok, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last struct {
			Correct   bool
			Attempted int64
			Failed    int64
			Metrics   map[string]metricValue
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
		}
		want := sp.EndToEnd
		if perLayer {
			want = sp.PerLayer
		}
		if !last.Correct || last.Attempted < 1 || last.Failed != 0 || len(last.Metrics) != len(want) {
			t.Errorf("perLayer=%v: correct=%v attempted=%d failed=%d metrics=%d want %d",
				perLayer, last.Correct, last.Attempted, last.Failed, len(last.Metrics), len(want))
		}
		for _, ms := range want {
			if mv, ok := last.Metrics[ms.Name]; !ok || mv.Unit != ms.Unit {
				t.Errorf("perLayer=%v: metric %s = %+v, want unit %s", perLayer, ms.Name, mv, ms.Unit)
			}
		}
	}
}

// TestBenchmarkJSONContract holds BENCHMARK.json to the limits the
// driver refuses a file for.
func TestBenchmarkJSONContract(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(buf))
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("key %s missing", key)
		}
	}
	if len(raw) != 6 {
		t.Errorf("%d top-level keys, want exactly 6", len(raw))
	}
	sp := testSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range sp.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if _, err := (&runner{}).find(w.Name); err != nil {
			t.Error(err)
		}
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	setup := false
	for _, ms := range sp.EndToEnd {
		name(ms.Name)
		if ms.Bound <= 0 || ms.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", ms.Name, ms.Bound)
		}
		setup = setup || (ms.Name == "setup_s" && ms.Unit == "s" && ms.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end must include setup_s in s, lower is better")
	}
	for _, ms := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
		if !unitRE.MatchString(ms.Unit) {
			t.Errorf("%s: unit %q is outside the contract", ms.Name, ms.Unit)
		}
		if ms.Better != "lower" && ms.Better != "higher" {
			t.Errorf("%s: better = %q", ms.Name, ms.Better)
		}
	}
	for _, ms := range sp.PerLayer {
		name(ms.Name)
		if ms.Bound != 0 {
			t.Errorf("%s: per-layer metrics have no bound", ms.Name)
		}
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", sp.RunSeconds)
	}
}
