package trainsim

import (
	"reflect"
	"testing"

	"repro/internal/failure"
	"repro/internal/ftcache"
)

// TestPreparedRunsMatchFreshRuns runs configs through one shared
// Prepared in A, B, A order and holds each Result to a fresh Run's. A
// is a run with failures and B the same fleet without, so a failure
// that leaked into the shared owner table, ring or order shows in the
// runs after it.
func TestPreparedRunsMatchFreshRuns(t *testing.T) {
	fails := []failure.Event{
		{Epoch: 1, Frac: 0.3, Node: "node-0003"},
		{Epoch: 2, Frac: 0.6},
	}
	repl := testConfig(16, ftcache.KindNVMe)
	repl.Replication = 2
	p := Prepare(repl.Dataset)
	for _, b := range []Config{
		testConfig(16, ftcache.KindNoFT),
		testConfig(16, ftcache.KindPFS),
		testConfig(16, ftcache.KindNVMe),
		repl,
	} {
		a := b
		a.Failures = fails
		for i, cfg := range []Config{a, b, a} {
			if got, want := p.Run(cfg), run(cfg); !reflect.DeepEqual(got, want) {
				t.Errorf("%s R=%d, run %c: prepared %+v, fresh %+v",
					cfg.Strategy, cfg.Replication, "ABA"[i], got, want)
			}
		}
	}
}

func TestPreparedRejectsOtherDataset(t *testing.T) {
	cfg := testConfig(4, ftcache.KindNVMe)
	p := Prepare(cfg.Dataset.Scaled(2))
	defer func() {
		if recover() == nil {
			t.Error("a run over another dataset did not panic")
		}
	}()
	p.Run(cfg)
}
