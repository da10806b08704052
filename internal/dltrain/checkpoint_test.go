package dltrain

import (
	"context"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/ftcache"
	"repro/internal/storage"
)

func newCheckpointer(t *testing.T) (*checkpoint.Checkpointer, *storage.PFS) {
	t.Helper()
	pfs := storage.NewPFS()
	ck, err := checkpoint.New(storage.NewNVMe(0), pfs, checkpoint.Config{Keep: 3})
	if err != nil {
		t.Fatal(err)
	}
	return ck, pfs
}

func TestTrainingSavesCheckpoints(t *testing.T) {
	c, ds := liveCluster(t, 3, ftcache.KindNVMe)
	ck, _ := newCheckpointer(t)
	tr, err := New(Config{
		Cluster: c, Dataset: FromWorkload(ds),
		Workers: 3, Epochs: 3, BatchSize: 4, Seed: 1,
		Checkpointer: ck,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	rep, err := tr.Run(context.Background())
	if err != nil || rep.Aborted {
		t.Fatalf("run: %v aborted=%v", err, rep.Aborted)
	}
	if rep.ResumedFromEpoch != -1 {
		t.Errorf("fresh run resumed from %d", rep.ResumedFromEpoch)
	}
	ck.Drain()
	m, state, err := ck.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 2 || m.Workers != 3 {
		t.Errorf("latest checkpoint meta = %+v", m)
	}
	if string(state) != "placeholder-state-epoch-2" {
		t.Errorf("state = %q", state)
	}
}

// TestResumeAfterNoFTAbort is the end-to-end fault-tolerance story the
// paper's related work assumes: a NoFT job dies mid-run, but the next
// submission resumes from the last durable checkpoint instead of epoch 0.
func TestResumeAfterNoFTAbort(t *testing.T) {
	c, ds := liveCluster(t, 3, ftcache.KindNoFT)
	ck, _ := newCheckpointer(t)

	run1, err := New(Config{
		Cluster: c, Dataset: FromWorkload(ds),
		Workers: 3, Epochs: 4, BatchSize: 4, Seed: 1,
		Checkpointer: ck,
		Failures:     []failure.Event{{Epoch: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := run1.Run(context.Background())
	run1.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !rep1.Aborted {
		t.Fatal("NoFT run should abort")
	}
	if len(rep1.Epochs) != 2 {
		t.Fatalf("completed epochs before abort = %d, want 2", len(rep1.Epochs))
	}
	ck.Drain()

	// "Resubmission": a fresh cluster (the failed node replaced) and a
	// trainer resuming from the checkpoint.
	c2, err := core.NewCluster(core.ClusterConfig{
		Nodes: 3, Strategy: ftcache.KindNoFT,
		RPCTimeout: 60 * time.Millisecond, TimeoutLimit: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Stage(ds); err != nil {
		t.Fatal(err)
	}
	run2, err := New(Config{
		Cluster: c2, Dataset: FromWorkload(ds),
		Workers: 3, Epochs: 4, BatchSize: 4, Seed: 1,
		Checkpointer: ck,
		Resume:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer run2.Close()
	rep2, err := run2.Run(context.Background())
	if err != nil || rep2.Aborted {
		t.Fatalf("resume run: %v aborted=%v", err, rep2.Aborted)
	}
	if rep2.ResumedFromEpoch != 1 {
		t.Errorf("resumed from %d, want 1", rep2.ResumedFromEpoch)
	}
	if len(rep2.Epochs) != 2 {
		t.Fatalf("resumed run epochs = %d, want 2 (epochs 2,3)", len(rep2.Epochs))
	}
	if rep2.Epochs[0].Epoch != 2 || rep2.Epochs[1].Epoch != 3 {
		t.Errorf("resumed epoch indices: %+v", rep2.Epochs)
	}
}

func TestCheckpointEveryN(t *testing.T) {
	c, ds := liveCluster(t, 2, ftcache.KindNVMe)
	ck, pfs := newCheckpointer(t)
	tr, err := New(Config{
		Cluster: c, Dataset: FromWorkload(ds),
		Workers: 2, Epochs: 4, BatchSize: 4, Seed: 2,
		Checkpointer:    ck,
		CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ck.Drain()
	m, _, err := ck.Latest()
	if err != nil || m.Epoch != 3 {
		t.Errorf("latest = %+v, %v (want epoch 3)", m, err)
	}
	// Saves after epochs 1 and 3 only; Keep=3 retains both + manifest.
	objs, _ := pfs.Stats()
	if objs != 3 {
		t.Errorf("durable objects = %d, want 2 checkpoints + manifest", objs)
	}
}

func TestResumeWithoutCheckpointStartsFresh(t *testing.T) {
	c, ds := liveCluster(t, 2, ftcache.KindNVMe)
	ck, _ := newCheckpointer(t)
	tr, err := New(Config{
		Cluster: c, Dataset: FromWorkload(ds),
		Workers: 2, Epochs: 2, BatchSize: 4, Seed: 3,
		Checkpointer: ck,
		Resume:       true, // nothing to resume from
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	rep, err := tr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResumedFromEpoch != -1 || len(rep.Epochs) != 2 {
		t.Errorf("fresh-resume run: %+v", rep)
	}
}
