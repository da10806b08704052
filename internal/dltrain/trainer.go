package dltrain

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/hvac"
	"repro/internal/workload"
)

// Config configures a live training run.
type Config struct {
	// Cluster is the running FT-Cache deployment.
	Cluster *core.Cluster
	// Dataset must already be staged on the cluster's PFS.
	Dataset workload.Dataset
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
	// Failures is the injection plan. An event that names no node fails
	// a live node other than rank 0's, keeping the run observable.
	Failures []failure.Event

	// Validation, when it has files, is read in full (unshuffled,
	// sharded across live ranks) after every training epoch — the
	// CosmoFlow validation pass over the 65,536-sample split. A zero
	// NumFiles skips the pass.
	Validation workload.Dataset
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
}

// ErrTooManyRestarts reports an elastic-restart loop: more than
// maxRestarts rollbacks within one epoch.
var ErrTooManyRestarts = errors.New("dltrain: exceeded restart budget")

// maxRestarts bounds elastic restarts per epoch.
const maxRestarts = 8

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
	if cfg.Cluster == nil || cfg.Dataset.NumFiles <= 0 {
		return nil, errors.New("dltrain: Cluster and a non-empty Dataset are required")
	}
	if cfg.Workers <= 0 || cfg.Epochs <= 0 || cfg.BatchSize <= 0 {
		return nil, errors.New("dltrain: Workers, Epochs, BatchSize must be positive")
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
	var rep Report
	sched := failure.NewSchedule(t.cfg.Failures)
	start := time.Now()
	n := t.cfg.Dataset.NumFiles

	for epoch := 0; epoch < t.cfg.Epochs; epoch++ {
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
					if restarts > maxRestarts {
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
		}

		valSamples := 0
		if t.cfg.Validation.NumFiles > 0 {
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
	n := t.cfg.Validation.NumFiles
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
