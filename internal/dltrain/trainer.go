package dltrain

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/hvac"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Config configures a live training run.
type Config struct {
	// Cluster is the running FT-Cache deployment.
	Cluster *core.Cluster
	// Dataset must already be staged on the cluster's PFS.
	Dataset interface {
		FilePath(i int) string
		NumFilesCount() int
	}
	// Workers is the number of data-parallel ranks. Rank i is co-located
	// with cluster node i%N: when that node fails, the rank dies with it
	// (compute and cache share the node on Frontier).
	Workers int
	// Epochs to run.
	Epochs int
	// BatchSize is samples per rank per step.
	BatchSize int
	// Seed drives the per-epoch shuffles.
	Seed int64
	// ComputePerBatch simulates GPU time per step (0 for I/O-only runs).
	ComputePerBatch time.Duration
	// Failures is the injection plan. An event that names no node fails
	// a live node other than rank 0's, keeping the run observable.
	Failures []failure.Event
	// MaxRestarts bounds elastic restarts; <= 0 selects 8.
	MaxRestarts int

	// Checkpointer, when set, saves model state after epochs (see
	// CheckpointEvery) and enables Resume.
	Checkpointer *checkpoint.Checkpointer
	// CheckpointEvery saves after every n-th completed epoch; <= 0 with
	// a Checkpointer set selects 1 (every epoch).
	CheckpointEvery int
	// Resume starts from the latest checkpoint instead of epoch 0 — how
	// a job killed outright (e.g. NoFT) continues in its next submission.
	Resume bool
	// State produces the opaque model state for epoch checkpoints; nil
	// selects a deterministic placeholder (the harness trains no real
	// model).
	State func(epoch int) []byte

	// Validation, when set, is read in full (unshuffled, sharded across
	// live ranks) after every training epoch — the CosmoFlow validation
	// pass over the 65,536-sample split.
	Validation interface {
		FilePath(i int) string
		NumFilesCount() int
	}
}

// DatasetAdapter adapts workload.Dataset (method name NumFiles is a
// field there) to the Config.Dataset interface.
type DatasetAdapter struct {
	Path  func(i int) string
	Count int
}

// FilePath implements Config.Dataset.
func (d DatasetAdapter) FilePath(i int) string { return d.Path(i) }

// NumFilesCount implements Config.Dataset.
func (d DatasetAdapter) NumFilesCount() int { return d.Count }

// FromWorkload adapts a workload.Dataset.
func FromWorkload(ds workload.Dataset) DatasetAdapter {
	return DatasetAdapter{Path: ds.FilePath, Count: ds.NumFiles}
}

// EpochReport describes one completed epoch.
type EpochReport struct {
	Epoch    int
	Duration time.Duration
	// Workers is the rank count that finished the epoch.
	Workers int
	// Restarts counts elastic rollbacks within this epoch.
	Restarts int
	// Samples actually read in the final (successful) pass.
	Samples int
	// ValidationSamples read after the epoch (0 when no validation set).
	ValidationSamples int
}

// Report is the outcome of a training run.
type Report struct {
	Epochs   []EpochReport
	Total    time.Duration
	Aborted  bool
	AbortErr error
	// FinalWorkers is the surviving rank count.
	FinalWorkers int
	// ClientStats aggregates all ranks' HVAC client counters.
	ClientStats hvac.ClientStats
	// ResumedFromEpoch is the checkpointed epoch the run continued
	// after, or -1 for a fresh start.
	ResumedFromEpoch int
}

// ErrTooManyRestarts reports an elastic-restart loop.
var ErrTooManyRestarts = errors.New("dltrain: exceeded restart budget")

type rank struct {
	id     int
	node   core.NodeID
	client *hvac.Client
	alive  bool
}

// Trainer executes data-parallel epochs against a live cluster.
type Trainer struct {
	cfg   Config
	ranks []*rank
}

// New validates cfg and allocates one HVAC client per rank.
func New(cfg Config) (*Trainer, error) {
	if cfg.Cluster == nil || cfg.Dataset == nil {
		return nil, errors.New("dltrain: Cluster and Dataset are required")
	}
	if cfg.Workers <= 0 || cfg.Epochs <= 0 || cfg.BatchSize <= 0 {
		return nil, errors.New("dltrain: Workers, Epochs, BatchSize must be positive")
	}
	if cfg.MaxRestarts <= 0 {
		cfg.MaxRestarts = 8
	}
	if cfg.Checkpointer != nil && cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 1
	}
	if cfg.State == nil {
		cfg.State = func(epoch int) []byte {
			return []byte(fmt.Sprintf("placeholder-state-epoch-%d", epoch))
		}
	}
	nodes := cfg.Cluster.Nodes()
	tr := &Trainer{cfg: cfg}
	for i := 0; i < cfg.Workers; i++ {
		cli, _, err := cfg.Cluster.NewClient()
		if err != nil {
			tr.Close()
			return nil, fmt.Errorf("dltrain: client for rank %d: %w", i, err)
		}
		tr.ranks = append(tr.ranks, &rank{
			id:     i,
			node:   nodes[i%len(nodes)],
			client: cli,
			alive:  true,
		})
	}
	return tr, nil
}

// Close releases all rank clients.
func (t *Trainer) Close() {
	for _, r := range t.ranks {
		if r.client != nil {
			r.client.Close()
		}
	}
}

func (t *Trainer) aliveRanks() []*rank {
	out := make([]*rank, 0, len(t.ranks))
	for _, r := range t.ranks {
		if r.alive {
			out = append(out, r)
		}
	}
	return out
}

// killRanksOn marks every rank co-located with node as dead (Horovod
// elastic removes them from the communicator).
func (t *Trainer) killRanksOn(node core.NodeID) int {
	n := 0
	for _, r := range t.ranks {
		if r.alive && r.node == node {
			r.alive = false
			n++
		}
	}
	return n
}

// Run executes the configured epochs and returns the report. A NoFT
// abort surfaces in Report.Aborted with the cause, not as a Run error;
// Run errors indicate harness problems (bad ranges, context cancel).
func (t *Trainer) Run(ctx context.Context) (Report, error) {
	rep := Report{ResumedFromEpoch: -1}
	sched := failure.NewSchedule(t.cfg.Failures)
	start := time.Now()
	n := t.cfg.Dataset.NumFilesCount()

	firstEpoch := 0
	if t.cfg.Resume && t.cfg.Checkpointer != nil {
		if m, _, err := t.cfg.Checkpointer.Latest(); err == nil {
			firstEpoch = m.Epoch + 1
			rep.ResumedFromEpoch = m.Epoch
		}
	}

	for epoch := firstEpoch; epoch < t.cfg.Epochs; epoch++ {
		epochStart := time.Now()
		restarts := 0

	restartEpoch:
		workers := t.aliveRanks()
		if len(workers) == 0 {
			rep.Aborted = true
			rep.AbortErr = errors.New("dltrain: no surviving ranks")
			break
		}
		order := Shuffle(n, t.cfg.Seed, epoch)
		steps := Steps(n, len(workers), t.cfg.BatchSize)
		samples := 0

		for step := 0; step < steps; step++ {
			if err := ctx.Err(); err != nil {
				return rep, err
			}
			// Failure injection at the batch boundary.
			if ev, ok := sched.Next(time.Since(start), epoch, step, steps); ok {
				node := core.NodeID(ev.Node)
				if node == "" {
					node = t.pickVictim()
				}
				if node != "" {
					mode := core.FailUnresponsive
					if ev.Kill {
						mode = core.FailKill
					}
					if err := t.cfg.Cluster.Fail(node, mode); err != nil {
						return rep, err
					}
					t.killRanksOn(node)
					restarts++
					if restarts > t.cfg.MaxRestarts {
						return rep, ErrTooManyRestarts
					}
					// Horovod elastic: roll back to the epoch start with
					// the shrunken communicator.
					goto restartEpoch
				}
			}

			read, err := t.runStep(ctx, workers, order, step)
			samples += read
			if err != nil {
				if errors.Is(err, hvac.ErrAborted) {
					rep.Aborted = true
					rep.AbortErr = err
					rep.Total = time.Since(start)
					rep.FinalWorkers = len(t.aliveRanks())
					rep.ClientStats = t.aggregateStats()
					return rep, nil
				}
				return rep, err
			}
			storage.Wait(t.cfg.ComputePerBatch)
		}

		valSamples := 0
		if t.cfg.Validation != nil {
			var err error
			valSamples, err = t.runValidation(ctx, workers)
			if err != nil {
				if errors.Is(err, hvac.ErrAborted) {
					rep.Aborted = true
					rep.AbortErr = err
					rep.Total = time.Since(start)
					rep.FinalWorkers = len(t.aliveRanks())
					rep.ClientStats = t.aggregateStats()
					return rep, nil
				}
				return rep, err
			}
		}

		rep.Epochs = append(rep.Epochs, EpochReport{
			Epoch:             epoch,
			Duration:          time.Since(epochStart),
			Workers:           len(workers),
			Restarts:          restarts,
			Samples:           samples,
			ValidationSamples: valSamples,
		})

		if t.cfg.Checkpointer != nil && (epoch+1)%t.cfg.CheckpointEvery == 0 {
			meta := checkpoint.Meta{Epoch: epoch, Workers: len(workers)}
			if err := t.cfg.Checkpointer.Save(meta, t.cfg.State(epoch)); err != nil {
				return rep, fmt.Errorf("dltrain: checkpoint after epoch %d: %w", epoch, err)
			}
		}
	}

	rep.Total = time.Since(start)
	rep.FinalWorkers = len(t.aliveRanks())
	rep.ClientStats = t.aggregateStats()
	return rep, nil
}

// runStep executes one synchronized step: every live rank reads its
// shard concurrently, then all ranks barrier. Returns samples read.
func (t *Trainer) runStep(ctx context.Context, workers []*rank, order []int, step int) (int, error) {
	var wg sync.WaitGroup
	errCh := make(chan error, len(workers))
	total := 0
	for w, r := range workers {
		shard := Shard(order, step, w, len(workers), t.cfg.BatchSize)
		if len(shard) == 0 {
			continue
		}
		total += len(shard)
		wg.Add(1)
		go func(r *rank, shard []int) {
			defer wg.Done()
			for _, idx := range shard {
				if _, err := r.client.Read(ctx, t.cfg.Dataset.FilePath(idx)); err != nil {
					errCh <- err
					return
				}
			}
		}(r, shard)
	}
	wg.Wait() // the batch-synchronization barrier
	close(errCh)
	for err := range errCh {
		return total, err
	}
	return total, nil
}

// runValidation reads the validation split once, sharded across the live
// ranks in fixed order (validation is never shuffled).
func (t *Trainer) runValidation(ctx context.Context, workers []*rank) (int, error) {
	n := t.cfg.Validation.NumFilesCount()
	var wg sync.WaitGroup
	errCh := make(chan error, len(workers))
	for w, r := range workers {
		wg.Add(1)
		go func(w int, r *rank) {
			defer wg.Done()
			for i := w; i < n; i += len(workers) {
				if _, err := r.client.Read(ctx, t.cfg.Validation.FilePath(i)); err != nil {
					errCh <- err
					return
				}
			}
		}(w, r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return 0, err
	}
	return n, nil
}

// pickVictim chooses a live node that still hosts a rank, rank 0's only
// when no other is left.
func (t *Trainer) pickVictim() core.NodeID {
	victim := core.NodeID("")
	for _, r := range t.aliveRanks() {
		if t.cfg.Cluster.Failed(r.node) {
			continue
		}
		if r.node != t.ranks[0].node {
			return r.node
		}
		victim = r.node
	}
	return victim
}

func (t *Trainer) aggregateStats() hvac.ClientStats {
	var agg hvac.ClientStats
	for _, r := range t.ranks {
		s := r.client.Stats()
		agg.RemoteReads += s.RemoteReads
		agg.RemoteBytes += s.RemoteBytes
		agg.ServedNVMe += s.ServedNVMe
		agg.ServedPFS += s.ServedPFS
		agg.DirectPFS += s.DirectPFS
		agg.DirectBytes += s.DirectBytes
		agg.Timeouts += s.Timeouts
		agg.FailoverReads += s.FailoverReads
	}
	return agg
}
