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
	// PFSReads is the growth of the cluster's PFS read counter over the
	// epoch, rolled-back attempts included.
	PFSReads int64
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
	var err error
	for epoch := 0; epoch < t.cfg.Epochs; epoch++ {
		var e EpochReport
		if e, err = t.runEpoch(ctx, sched, start, epoch); err != nil {
			break
		}
		rep.Epochs = append(rep.Epochs, e)
	}
	if errors.Is(err, hvac.ErrAborted) || errors.Is(err, errNoRanks) {
		rep.Aborted, rep.AbortErr, err = true, err, nil
	}
	rep.Total = time.Since(start)
	rep.FinalWorkers = len(t.aliveRanks())
	rep.ClientStats = t.aggregateStats()
	return rep, err
}

// errNoRanks aborts a run whose every rank has died.
var errNoRanks = errors.New("dltrain: no surviving ranks")

// runEpoch runs one epoch to completion. A failure at a step boundary
// kills the ranks on the victim node and, as Horovod elastic does,
// rolls the epoch back to its start with the shrunken communicator.
func (t *Trainer) runEpoch(ctx context.Context, sched *failure.Schedule, start time.Time, epoch int) (EpochReport, error) {
	e := EpochReport{Epoch: epoch}
	epochStart := time.Now()
	pfsBefore, _, _ := t.cfg.Cluster.PFS().Counters()
	order := Shuffle(t.cfg.Dataset.NumFiles, t.cfg.Seed, epoch)
attempt:
	for {
		workers := t.aliveRanks()
		if len(workers) == 0 {
			return e, errNoRanks
		}
		steps := Steps(len(order), len(workers), t.cfg.BatchSize)
		e.Workers, e.Samples = len(workers), 0
		for step := 0; step < steps; step++ {
			if err := ctx.Err(); err != nil {
				return e, err
			}
			if ev, ok := sched.Next(time.Since(start), epoch, step, steps); ok {
				failed, err := t.fail(ev)
				if err != nil {
					return e, err
				}
				if failed {
					if e.Restarts++; e.Restarts > maxRestarts {
						return e, ErrTooManyRestarts
					}
					continue attempt
				}
			}
			read, err := t.runStep(ctx, workers, order, step)
			e.Samples += read
			if err != nil {
				return e, err
			}
		}
		break
	}
	e.Duration = time.Since(epochStart)
	pfsAfter, _, _ := t.cfg.Cluster.PFS().Counters()
	e.PFSReads = pfsAfter - pfsBefore
	return e, nil
}

// fail injects ev at a batch boundary and kills the ranks co-located
// with its victim. It reports false when no live node is left to fail.
func (t *Trainer) fail(ev failure.Event) (bool, error) {
	node := core.NodeID(ev.Node)
	if node == "" {
		node = t.pickVictim()
	}
	if node == "" {
		return false, nil
	}
	mode := core.FailUnresponsive
	if ev.Kill {
		mode = core.FailKill
	}
	if err := t.cfg.Cluster.Fail(node, mode); err != nil {
		return false, err
	}
	t.killRanksOn(node)
	return true, nil
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
		agg.ServedRAM += s.ServedRAM
		agg.ServedNVMe += s.ServedNVMe
		agg.ServedPFS += s.ServedPFS
		agg.DirectPFS += s.DirectPFS
		agg.DirectBytes += s.DirectBytes
		agg.Timeouts += s.Timeouts
		agg.FailoverReads += s.FailoverReads
		agg.ReplicaPushes += s.ReplicaPushes
		agg.CoalescedReads += s.CoalescedReads
		agg.HedgedReads += s.HedgedReads
		agg.HedgeWins += s.HedgeWins
		agg.HotPushes += s.HotPushes
		agg.ShedRedirects += s.ShedRedirects
	}
	return agg
}
