package dltrain

import (
	"context"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/ftcache"
	"repro/internal/workload"
)

func TestShuffleIsPermutation(t *testing.T) {
	f := func(nRaw uint8, seed int64, epoch uint8) bool {
		n := int(nRaw)%200 + 1
		order := Shuffle(n, seed, int(epoch))
		if len(order) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range order {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestShuffleDeterministicPerEpochDistinctAcross(t *testing.T) {
	a := Shuffle(100, 42, 3)
	b := Shuffle(100, 42, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same (seed, epoch) must give the same order on every rank")
		}
	}
	c := Shuffle(100, 42, 4)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == 100 {
		t.Error("different epochs must reshuffle")
	}
}

func TestShardAndStepsCoverExactlyOnce(t *testing.T) {
	for _, tc := range []struct{ n, w, b int }{
		{100, 4, 8}, {7, 3, 2}, {1, 1, 1}, {64, 8, 8}, {65, 8, 8}, {5, 8, 2},
	} {
		order := Shuffle(tc.n, 1, 0)
		steps := Steps(tc.n, tc.w, tc.b)
		seen := make(map[int]int)
		for s := 0; s < steps; s++ {
			for w := 0; w < tc.w; w++ {
				for _, idx := range Shard(order, s, w, tc.w, tc.b) {
					seen[idx]++
				}
			}
		}
		if len(seen) != tc.n {
			t.Errorf("n=%d w=%d b=%d: covered %d samples", tc.n, tc.w, tc.b, len(seen))
		}
		for idx, c := range seen {
			if c != 1 {
				t.Errorf("n=%d w=%d b=%d: sample %d read %d times", tc.n, tc.w, tc.b, idx, c)
			}
		}
		// One more step yields nothing.
		for w := 0; w < tc.w; w++ {
			if len(Shard(order, steps, w, tc.w, tc.b)) != 0 {
				t.Errorf("step past end returned samples")
			}
		}
	}
}

func TestShardDegenerateArgs(t *testing.T) {
	if Shard([]int{1, 2}, 0, 0, 0, 2) != nil || Shard([]int{1, 2}, 0, 0, 2, 0) != nil {
		t.Error("degenerate shard args should return nil")
	}
	if Steps(10, 0, 5) != 0 || Steps(10, 5, 0) != 0 {
		t.Error("degenerate steps args should return 0")
	}
}

func liveCluster(t *testing.T, nodes int, kind ftcache.StrategyKind) (*core.Cluster, workload.Dataset) {
	t.Helper()
	c, err := core.NewCluster(core.ClusterConfig{
		Nodes:        nodes,
		Strategy:     kind,
		RPCTimeout:   60 * time.Millisecond,
		TimeoutLimit: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ds := workload.Dataset{Name: "t", Prefix: "t", NumFiles: 48, FileBytes: 64}
	if _, err := c.Stage(ds); err != nil {
		t.Fatal(err)
	}
	return c, ds
}

func TestTrainingNoFailures(t *testing.T) {
	c, ds := liveCluster(t, 4, ftcache.KindNVMe)
	tr, err := New(Config{
		Cluster:   c,
		Dataset:   FromWorkload(ds),
		Workers:   4,
		Epochs:    3,
		BatchSize: 4,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	rep, err := tr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aborted {
		t.Fatalf("aborted: %v", rep.AbortErr)
	}
	if len(rep.Epochs) != 3 {
		t.Fatalf("epochs = %d", len(rep.Epochs))
	}
	for _, e := range rep.Epochs {
		if e.Samples != ds.NumFiles {
			t.Errorf("epoch %d read %d samples, want %d", e.Epoch, e.Samples, ds.NumFiles)
		}
		if e.Workers != 4 || e.Restarts != 0 {
			t.Errorf("epoch %d: %+v", e.Epoch, e)
		}
	}
	// 3 epochs × 48 files, all through the cache layer.
	if rep.ClientStats.RemoteReads != int64(3*ds.NumFiles) {
		t.Errorf("remote reads = %d", rep.ClientStats.RemoteReads)
	}
	if rep.FinalWorkers != 4 {
		t.Errorf("final workers = %d", rep.FinalWorkers)
	}
}

func TestTrainingRingSurvivesFailure(t *testing.T) {
	c, ds := liveCluster(t, 4, ftcache.KindNVMe)
	tr, err := New(Config{
		Cluster:   c,
		Dataset:   FromWorkload(ds),
		Workers:   4,
		Epochs:    3,
		BatchSize: 4,
		Seed:      7,
		Failures: []failure.Event{
			{Epoch: 1, Frac: 0.4},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	rep, err := tr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aborted {
		t.Fatalf("ring run aborted: %v", rep.AbortErr)
	}
	if len(rep.Epochs) != 3 {
		t.Fatalf("epochs completed = %d", len(rep.Epochs))
	}
	// Victim epoch rolled back once and finished with 3 workers.
	e1 := rep.Epochs[1]
	if e1.Restarts != 1 {
		t.Errorf("victim epoch restarts = %d, want 1", e1.Restarts)
	}
	if e1.Workers != 3 {
		t.Errorf("victim epoch workers = %d, want 3", e1.Workers)
	}
	if e1.Samples != ds.NumFiles {
		t.Errorf("victim epoch samples = %d", e1.Samples)
	}
	// Epoch 2 runs clean on 3 workers.
	if rep.Epochs[2].Workers != 3 || rep.Epochs[2].Restarts != 0 {
		t.Errorf("epoch 2: %+v", rep.Epochs[2])
	}
	if rep.FinalWorkers != 3 {
		t.Errorf("final workers = %d", rep.FinalWorkers)
	}
}

// TestUnnamedVictimSparesRankZero: an event naming no node fails a node
// other than rank 0's, and rank 0's only once no other is left.
func TestUnnamedVictimSparesRankZero(t *testing.T) {
	for _, nodes := range []int{3, 1} {
		c, ds := liveCluster(t, nodes, ftcache.KindNVMe)
		tr, err := New(Config{
			Cluster: c, Dataset: FromWorkload(ds),
			Workers: nodes, Epochs: 2, BatchSize: 4, Seed: 7,
			Failures: []failure.Event{{Epoch: 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		tr.Close()
		want := c.Nodes()[min(1, nodes-1)] // rank 1's node, else rank 0's
		for _, n := range c.Nodes() {
			if c.Failed(n) != (n == want) {
				t.Errorf("%d nodes: %s failed = %v; want only %s failed", nodes, n, c.Failed(n), want)
			}
		}
	}
}

// TestTimedFailure: an event with At fires at the first step boundary
// at or after At since Run began.
func TestTimedFailure(t *testing.T) {
	c, ds := liveCluster(t, 3, ftcache.KindNVMe)
	tr, err := New(Config{
		Cluster: c, Dataset: FromWorkload(ds),
		Workers: 3, Epochs: 2, BatchSize: 4, Seed: 7,
		Failures: []failure.Event{{At: time.Nanosecond, Kill: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	rep, err := tr.Run(context.Background())
	if err != nil || rep.Aborted {
		t.Fatalf("run: %v aborted=%v", err, rep.Aborted)
	}
	if e := rep.Epochs[0]; e.Restarts != 1 || e.Workers != 2 {
		t.Errorf("epoch 0: %+v; want one restart, 2 workers", e)
	}
}

func TestTrainingPFSRedirectSurvivesFailure(t *testing.T) {
	c, ds := liveCluster(t, 4, ftcache.KindPFS)
	tr, err := New(Config{
		Cluster:   c,
		Dataset:   FromWorkload(ds),
		Workers:   4,
		Epochs:    3,
		BatchSize: 4,
		Seed:      3,
		Failures:  []failure.Event{{Epoch: 1, Kill: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	rep, err := tr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aborted {
		t.Fatalf("pfs-redirect run aborted: %v", rep.AbortErr)
	}
	if rep.ClientStats.DirectPFS == 0 {
		t.Error("expected direct PFS reads after redirection")
	}
}

func TestTrainingNoFTAborts(t *testing.T) {
	c, ds := liveCluster(t, 3, ftcache.KindNoFT)
	tr, err := New(Config{
		Cluster:   c,
		Dataset:   FromWorkload(ds),
		Workers:   3,
		Epochs:    3,
		BatchSize: 4,
		Seed:      1,
		Failures:  []failure.Event{{Epoch: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	rep, err := tr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Aborted {
		t.Fatal("NoFT training should abort on failure")
	}
	if len(rep.Epochs) != 1 {
		t.Errorf("completed epochs = %d, want 1 (the pre-failure epoch)", len(rep.Epochs))
	}
}

func TestTrainerValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config should fail")
	}
	c, ds := liveCluster(t, 2, ftcache.KindNVMe)
	if _, err := New(Config{Cluster: c, Dataset: FromWorkload(ds)}); err == nil {
		t.Error("zero workers should fail")
	}
}

func TestTrainingContextCancel(t *testing.T) {
	c, ds := liveCluster(t, 2, ftcache.KindNVMe)
	tr, err := New(Config{
		Cluster:   c,
		Dataset:   FromWorkload(ds),
		Workers:   2,
		Epochs:    1000, // would run long
		BatchSize: 2,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(30 * time.Millisecond); cancel() }()
	if _, err := tr.Run(ctx); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestValidationPass(t *testing.T) {
	c, ds := liveCluster(t, 3, ftcache.KindNVMe)
	val := workload.Dataset{Name: "val", Prefix: "val", NumFiles: 18, FileBytes: 32}
	if _, err := c.Stage(val); err != nil {
		t.Fatal(err)
	}
	tr, err := New(Config{
		Cluster: c, Dataset: FromWorkload(ds), Validation: FromWorkload(val),
		Workers: 3, Epochs: 2, BatchSize: 4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	rep, err := tr.Run(context.Background())
	if err != nil || rep.Aborted {
		t.Fatalf("run: %v aborted=%v", err, rep.Aborted)
	}
	for _, e := range rep.Epochs {
		if e.ValidationSamples != val.NumFiles {
			t.Errorf("epoch %d validation samples = %d, want %d",
				e.Epoch, e.ValidationSamples, val.NumFiles)
		}
	}
	// Train (48) + val (18) per epoch × 2 epochs, all through the cache.
	want := int64(2 * (ds.NumFiles + val.NumFiles))
	if rep.ClientStats.RemoteReads != want {
		t.Errorf("remote reads = %d, want %d", rep.ClientStats.RemoteReads, want)
	}
}

func TestValidationSurvivesFailure(t *testing.T) {
	c, ds := liveCluster(t, 3, ftcache.KindNVMe)
	val := workload.Dataset{Name: "val", Prefix: "val", NumFiles: 12, FileBytes: 32}
	c.Stage(val)
	tr, err := New(Config{
		Cluster: c, Dataset: FromWorkload(ds), Validation: FromWorkload(val),
		Workers: 3, Epochs: 3, BatchSize: 4, Seed: 5,
		Failures: []failure.Event{{Epoch: 1, Frac: 0.4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	rep, err := tr.Run(context.Background())
	if err != nil || rep.Aborted {
		t.Fatalf("run: %v aborted=%v", err, rep.Aborted)
	}
	for _, e := range rep.Epochs {
		if e.ValidationSamples != val.NumFiles {
			t.Errorf("epoch %d validation incomplete: %d", e.Epoch, e.ValidationSamples)
		}
	}
}
