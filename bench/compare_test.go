package main

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := &metricSpec{Name: "epoch_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := &metricSpec{Name: "read_ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name     string
		ms       *metricSpec
		old, new metricValue
		want     string
	}{
		{"lower-is-better within bound", lower, metricValue{Value: 1}, metricValue{Value: 1.09}, verdictOK},
		{"lower-is-better past bound", lower, metricValue{Value: 1}, metricValue{Value: 1.11}, verdictRegressed},
		{"lower-is-better improved", lower, metricValue{Value: 1}, metricValue{Value: 0.5}, verdictOK},
		{"higher-is-better within bound", higher, metricValue{Value: 100}, metricValue{Value: 91}, verdictOK},
		{"higher-is-better past bound", higher, metricValue{Value: 100}, metricValue{Value: 89}, verdictRegressed},
		{"higher-is-better improved", higher, metricValue{Value: 100}, metricValue{Value: 150}, verdictOK},
		{"old spread wider than bound", lower, metricValue{Value: 1, Spread: 0.2}, metricValue{Value: 1.5}, verdictUnresolved},
		{"new spread wider than bound", lower, metricValue{Value: 1}, metricValue{Value: 1, Spread: 0.11}, verdictUnresolved},
		{"spread at the bound still resolves", lower, metricValue{Value: 1, Spread: 0.10}, metricValue{Value: 1.2}, verdictRegressed},
	} {
		if got := verdict(tc.ms, tc.old, tc.new); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// fixtureResult is a two-workload result with every end-to-end metric of
// spec set to base.
func fixtureResult(sp *benchSpec, base float64) *result {
	r := newResult("fixture", 1, 15, 1)
	for _, wl := range sp.Workloads {
		wr := workloadResult{Name: wl.Name, Correct: true, Attempted: 10,
			EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{}}
		for _, ms := range sp.EndToEnd {
			wr.EndToEnd[ms.Name] = metricValue{Value: base, Unit: ms.Unit, Samples: 3}
		}
		wr.PerLayer["failed_op_share"] = metricValue{Unit: "ratio"}
		r.Workloads = append(r.Workloads, wr)
	}
	r.Ledger["xhash.xxh64_string_ns"] = metricValue{Value: 15.5, Unit: "ns"}
	return r
}

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestCompareFiles(t *testing.T) {
	sp := testSpec(t)
	dir := t.TempDir()
	write := func(name string, r *result) string {
		path := filepath.Join(dir, name)
		if err := r.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldPath := write("old.json", fixtureResult(sp, 100))

	var out bytes.Buffer
	regressed, err := compareFiles(&out, sp, oldPath, write("same.json", fixtureResult(sp, 100)))
	if err != nil || regressed {
		t.Fatalf("identical results: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if n := strings.Count(out.String(), " "+verdictOK+"\n"); n != len(sp.Workloads)*len(sp.EndToEnd) {
		t.Errorf("identical results: %d ok rows, want one per workload and end-to-end metric\n%s", n, out.String())
	}

	// Everything doubled: lower-is-better metrics regress past any bound,
	// higher-is-better ones improve.
	out.Reset()
	regressed, err = compareFiles(&out, sp, oldPath, write("worse.json", fixtureResult(sp, 200)))
	if err != nil || !regressed {
		t.Fatalf("doubled: regressed=%v err=%v", regressed, err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		switch {
		case strings.Contains(line, " epoch_s "):
			if !strings.HasSuffix(line, verdictRegressed) || !strings.Contains(line, "+100.00% of 100 s") {
				t.Errorf("epoch_s row: %q", line)
			}
		case strings.Contains(line, " read_ops_per_s "):
			if !strings.HasSuffix(line, verdictOK) {
				t.Errorf("read_ops_per_s row: %q", line)
			}
		}
	}

	// A recorded spread wider than the bound makes the row unresolved,
	// which is not a regression.
	noisy := fixtureResult(sp, 200)
	for i := range noisy.Workloads {
		for k, mv := range noisy.Workloads[i].EndToEnd {
			mv.Spread = 0.5
			noisy.Workloads[i].EndToEnd[k] = mv
		}
	}
	out.Reset()
	regressed, err = compareFiles(&out, sp, oldPath, write("noisy.json", noisy))
	if err != nil || regressed || !strings.Contains(out.String(), verdictUnresolved) {
		t.Fatalf("noisy: regressed=%v err=%v\n%s", regressed, err, out.String())
	}

	// More failed operations is a regression whatever the metrics say.
	failing := fixtureResult(sp, 100)
	failing.Workloads[0].PerLayer["failed_op_share"] = metricValue{Value: 0.001, Unit: "ratio"}
	out.Reset()
	regressed, err = compareFiles(&out, sp, oldPath, write("failing.json", failing))
	if err != nil || !regressed || !strings.Contains(out.String(), "failed_op_share") {
		t.Fatalf("failing: regressed=%v err=%v\n%s", regressed, err, out.String())
	}

	// Results measured with different worker counts are not comparable.
	other := fixtureResult(sp, 100)
	other.Workers++
	if _, err := compareFiles(&out, sp, oldPath, write("other.json", other)); err == nil {
		t.Error("different worker counts compared without an error")
	}
}

func TestResultRoundTrip(t *testing.T) {
	sp := testSpec(t)
	want := fixtureResult(sp, 42.5)
	want.Workloads[0].Gates = []string{"a gate that failed"}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := want.write(path); err != nil {
		t.Fatal(err)
	}
	got, err := readResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the result:\n got %+v\nwant %+v", got, want)
	}
	if got.Schema != resultSchema || got.Claim != nil {
		t.Errorf("schema %d claim %v, want %d and null", got.Schema, got.Claim, resultSchema)
	}
	got.Schema = resultSchema + 1
	if err := got.write(path); err != nil {
		t.Fatal(err)
	}
	if _, err := readResult(path); err == nil {
		t.Error("a result with another schema version was read without an error")
	}
}
