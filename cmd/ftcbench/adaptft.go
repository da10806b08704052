package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ftcache"
	"repro/internal/ftpolicy"
	"repro/internal/hvac"
	"repro/internal/rpc"
	"repro/internal/workload"
)

// adaptftConfig parameterizes the adaptive-vs-static comparison.
type adaptftConfig struct {
	nodes     int
	clients   int
	files     int
	fileBytes int64
	unit      time.Duration // per-phase duration base
	pfsDelay  time.Duration // injected PFS read latency in contention phases
	readDelay time.Duration // per-read device service time on servers
	seeds     []int64
	reps      int // best-of-N runs per policy, cancelling machine noise
	out       string
}

// adaptftPolicyRun is one (schedule, seed, policy) measurement.
type adaptftPolicyRun struct {
	Policy      string              `json:"policy"`
	Epochs      float64             `json:"epochs"`        // mean dataset sweeps per reader within the window
	MeanEpochMs float64             `json:"mean_epoch_ms"` // window / epochs — the whole-schedule epoch time
	Reads       int64               `json:"reads"`
	Transient   int64               `json:"transient_retries"`
	WrongBytes  int64               `json:"wrong_bytes"`
	Stuck       int64               `json:"stuck_reads"`
	DNF         bool                `json:"dnf"` // aborted (NoFT death) before the window closed
	PhaseReads  []int64             `json:"phase_reads"`
	Switches    int64               `json:"switches,omitempty"`
	Decisions   []ftpolicy.Decision `json:"decisions,omitempty"`
}

// adaptftSchedule is one schedule × seed block.
type adaptftSchedule struct {
	Schedule     string             `json:"schedule"`
	Seed         int64              `json:"seed"`
	WindowMs     float64            `json:"window_ms"`
	Runs         []adaptftPolicyRun `json:"runs"`
	AdaptiveWins bool               `json:"adaptive_wins"` // beat every static that finished (and no static DNF excuse: noft counts as beaten by finishing)
}

// adaptftReport is the BENCH_adaptft.json shape.
type adaptftReport struct {
	Nodes     int               `json:"nodes"`
	Clients   int               `json:"clients"`
	Files     int               `json:"files"`
	FileBytes int64             `json:"file_bytes"`
	Unit      string            `json:"unit"`
	PFSDelay  string            `json:"pfs_delay"`
	ReadDelay string            `json:"read_delay"`
	Schedules []adaptftSchedule `json:"schedules"`
	AllWins   bool              `json:"all_wins"`
}

// runAdaptFT measures whole-schedule epoch time for each static policy
// and the adaptive controller across seeded phase-shift schedules.
// Readers sweep the dataset continuously for exactly the schedule
// window; the score is the mean time per dataset sweep. The adaptive
// run must beat every static policy on every schedule × seed:
//
//	ftcbench -adaptft -nodes 16 -clients 4
func runAdaptFT(cfg adaptftConfig) error {
	if cfg.nodes < 4 {
		return fmt.Errorf("-nodes must be >= 4 (got %d)", cfg.nodes)
	}
	schedules := []struct {
		name   string
		phases []chaos.Phase
	}{
		{"calm-burst-heal-contention", chaos.PhasesCalmBurstHealContention(cfg.unit, cfg.pfsDelay)},
		{"contention-first", chaos.PhasesContentionFirst(cfg.unit, cfg.pfsDelay)},
	}
	policies := []ftcache.StrategyKind{ftcache.KindNoFT, ftcache.KindPFS, ftcache.KindNVMe, ftcache.KindAdaptive}

	fmt.Printf("adaptft: %d nodes, %d clients, %d files x %d B, unit %s, pfs-delay %s, read-delay %s, seeds %v\n",
		cfg.nodes, cfg.clients, cfg.files, cfg.fileBytes, cfg.unit, cfg.pfsDelay, cfg.readDelay, cfg.seeds)

	rep := adaptftReport{
		Nodes: cfg.nodes, Clients: cfg.clients, Files: cfg.files, FileBytes: cfg.fileBytes,
		Unit: cfg.unit.String(), PFSDelay: cfg.pfsDelay.String(), ReadDelay: cfg.readDelay.String(),
		AllWins: true,
	}
	for _, sched := range schedules {
		for _, seed := range cfg.seeds {
			block := adaptftSchedule{Schedule: sched.name, Seed: seed}
			fmt.Printf("\nschedule %s seed=%d %v\n", sched.name, seed, sched.phases)
			fmt.Printf("  %-10s %10s %14s %10s %10s %6s\n", "POLICY", "EPOCHS", "EPOCH-TIME", "READS", "RETRIES", "DNF")
			for _, pol := range policies {
				// Best-of-reps: a transient machine-level slowdown (GC,
				// noisy neighbour) taxes whichever single run it lands on;
				// taking each policy's best run cancels it fairly.
				reps := cfg.reps
				if reps < 1 {
					reps = 1
				}
				var run adaptftPolicyRun
				var windowMs float64
				for rep := 0; rep < reps; rep++ {
					r, w, err := runAdaptFTOne(cfg, sched.phases, seed, pol)
					if err != nil {
						return fmt.Errorf("%s seed=%d %s: %w", sched.name, seed, pol, err)
					}
					if rep == 0 || betterRun(r, run) {
						run, windowMs = r, w
					}
				}
				block.WindowMs = windowMs
				block.Runs = append(block.Runs, run)
				dnf := ""
				if run.DNF {
					dnf = "yes"
				}
				perPhase := ""
				for pi, n := range run.PhaseReads {
					perPhase += fmt.Sprintf(" %s=%d", sched.phases[pi].Name, n)
				}
				fmt.Printf("  %-10s %10.2f %12.1fms %10d %10d %6s |%s\n",
					run.Policy, run.Epochs, run.MeanEpochMs, run.Reads, run.Transient, dnf, perPhase)
			}
			block.AdaptiveWins = adaptiveWins(block.Runs)
			if !block.AdaptiveWins {
				rep.AllWins = false
			}
			fmt.Printf("  adaptive wins: %v\n", block.AdaptiveWins)
			rep.Schedules = append(rep.Schedules, block)
		}
	}

	fmt.Printf("\nadaptive wins on all %d schedule x seed blocks: %v\n", len(rep.Schedules), rep.AllWins)
	if cfg.out != "" {
		if err := os.MkdirAll(filepath.Dir(cfg.out), 0o755); err != nil {
			return err
		}
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("[wrote %s]\n", cfg.out)
	}
	if !rep.AllWins {
		return fmt.Errorf("adaptft: adaptive lost at least one schedule x seed block")
	}
	return nil
}

// betterRun reports whether a is a better measurement than b: finishing
// beats a DNF, then higher epoch throughput wins.
func betterRun(a, b adaptftPolicyRun) bool {
	if a.DNF != b.DNF {
		return !a.DNF
	}
	return a.Epochs > b.Epochs
}

// adaptiveWins reports whether the adaptive run's whole-schedule epoch
// time beats every static run's. A static DNF (NoFT dying mid-schedule)
// is beaten by finishing at all.
func adaptiveWins(runs []adaptftPolicyRun) bool {
	var adaptive *adaptftPolicyRun
	for i := range runs {
		if runs[i].Policy == string(ftcache.KindAdaptive) {
			adaptive = &runs[i]
		}
	}
	if adaptive == nil || adaptive.DNF || adaptive.WrongBytes != 0 || adaptive.Stuck != 0 {
		return false
	}
	for i := range runs {
		r := &runs[i]
		if r.Policy == string(ftcache.KindAdaptive) || r.DNF {
			continue
		}
		if adaptive.MeanEpochMs >= r.MeanEpochMs {
			return false
		}
	}
	return true
}

// runAdaptFTOne boots a fresh cluster, runs the phased schedule against
// it while readers sweep the dataset, and scores the policy.
func runAdaptFTOne(cfg adaptftConfig, phases []chaos.Phase, seed int64, policy ftcache.StrategyKind) (adaptftPolicyRun, float64, error) {
	const (
		rpcTimeout = 25 * time.Millisecond
		readBudget = 15 * time.Second
	)
	run := adaptftPolicyRun{Policy: string(policy)}

	netctl := chaos.New(rpc.NewInprocNetwork(), chaos.Config{Seed: seed, DialTimeout: 50 * time.Millisecond})
	cl, err := core.NewCluster(core.ClusterConfig{
		Nodes:        cfg.nodes,
		Strategy:     policy,
		RPCTimeout:   rpcTimeout,
		TimeoutLimit: 2,
		Network:      netctl.Network("boot"),
		ReadDelay:    cfg.readDelay,
	})
	if err != nil {
		return run, 0, err
	}
	defer cl.Close()
	ds := workload.Dataset{Name: "adaptft", Prefix: "adaptft/train", NumFiles: cfg.files, FileBytes: cfg.fileBytes}
	if _, err := cl.Stage(ds); err != nil {
		return run, 0, err
	}
	if err := cl.WarmCache(ds); err != nil {
		return run, 0, err
	}
	cl.FlushMovers()
	paths := ds.AllPaths()
	defer cl.PFS().SetReadDelay(0)

	// BurstQuietTicks must outlast the gap between declaration clusters
	// (burst crashes land ~unit/10 apart, declarations a couple of RPC
	// timeouts later) or the controller flaps back to the default
	// strategy between crashes and spends half the burst in the wrong
	// mode.
	polCfg := ftpolicy.Config{
		Interval:        20 * time.Millisecond,
		FailHigh:        2,
		CalmTicks:       8,
		BurstQuietTicks: 10,
		AllowNoFT:       true,
		PFSLatencyHigh:  time.Millisecond,
	}
	var pol *ftpolicy.Controller
	if policy == ftcache.KindAdaptive {
		pol = ftpolicy.New(polCfg)
		pol.SetPFSProbe(cl.PolicyProbe(paths[0]))
	}

	type benchClient struct {
		cli *hvac.Client
		hb  *cluster.Heartbeat
	}
	clients := make([]*benchClient, cfg.clients)
	for i := range clients {
		var cli *hvac.Client
		var err error
		if pol != nil {
			cli, _, err = cl.NewAdaptiveClientNet(netctl.Network(fmt.Sprintf("cli-%d", i)), pol)
		} else {
			cli, _, err = cl.NewClientNet(netctl.Network(fmt.Sprintf("cli-%d", i)))
		}
		if err != nil {
			return run, 0, err
		}
		bc := &benchClient{cli: cli}
		bc.hb = cluster.NewHeartbeat(cli.Tracker(), cli, cluster.HeartbeatConfig{
			Interval: 15 * time.Millisecond,
			Timeout:  rpcTimeout,
			OnRevive: func(n cluster.NodeID) {
				go cli.Rejoin(context.Background(), n, hvac.RejoinOptions{Keys: paths})
			},
		})
		bc.hb.Start()
		clients[i] = bc
		defer cli.Close()
		defer bc.hb.Stop()
	}

	var polDone chan struct{}
	var polCancel context.CancelFunc
	if pol != nil {
		var polCtx context.Context
		polCtx, polCancel = context.WithCancel(context.Background())
		polDone = make(chan struct{})
		go func() {
			defer close(polDone)
			pol.Run(polCtx)
		}()
		defer func() {
			polCancel()
			<-polDone
		}()
	}

	nodeNames := make([]string, 0, cfg.nodes)
	for _, n := range cl.Nodes() {
		nodeNames = append(nodeNames, string(n))
	}
	plan := chaos.GeneratePlan(seed, nodeNames, phases)

	// Readers sweep the dataset in seeded-shuffled order for exactly the
	// schedule window; completed reads convert to fractional epochs.
	var (
		reads      atomic.Int64
		transient  atomic.Int64
		wrongBytes atomic.Int64
		stuck      atomic.Int64
		aborted    atomic.Int64
	)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readersPerClient := 2
	for ci, bc := range clients {
		for g := 0; g < readersPerClient; g++ {
			readers.Add(1)
			cli := bc.cli
			rng := rand.New(rand.NewSource(seed ^ int64(ci*7+g+1)))
			go func() {
				defer readers.Done()
				order := rng.Perm(ds.NumFiles)
				pos := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					if pos == ds.NumFiles {
						pos = 0
						rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
					}
					i := order[pos]
					pos++
					want := ds.SampleContent(i)
					deadline := time.Now().Add(readBudget)
					for {
						ctx, cancel := context.WithDeadline(context.Background(), deadline)
						data, err := cli.Read(ctx, paths[i])
						cancel()
						if err == nil {
							reads.Add(1)
							if !bytes.Equal(data, want) {
								wrongBytes.Add(1)
							}
							break
						}
						if err == hvac.ErrAborted {
							// NoFT death: this reader's job is over.
							aborted.Add(1)
							return
						}
						select {
						case <-stop:
							return
						default:
						}
						if time.Now().After(deadline) {
							stuck.Add(1)
							break
						}
						transient.Add(1)
					}
				}
			}()
		}
	}

	// Sample the read counter at each phase boundary so the per-phase
	// throughput shows which regime a policy wins or loses.
	phaseReads := make([]int64, len(phases))
	phaseDone := make(chan struct{})
	go func() {
		defer close(phaseDone)
		prev := int64(0)
		for pi, ph := range phases {
			select {
			case <-stop:
				// Window closed inside this phase: attribute the tail here.
				phaseReads[pi] = reads.Load() - prev
				return
			case <-time.After(ph.Duration):
			}
			now := reads.Load()
			phaseReads[pi] = now - prev
			prev = now
		}
	}()

	// Collect before the window opens so one run's garbage doesn't tax
	// the next run's measurement.
	runtime.GC()

	windowStart := time.Now()
	planCtx, planCancel := context.WithTimeout(context.Background(), plan.Horizon+5*time.Second)
	plan.Execute(planCtx, netctl, chaos.Actions{
		Crash: func(node string, kill bool) {
			mode := core.FailUnresponsive
			if kill {
				mode = core.FailKill
			}
			_ = cl.Fail(core.NodeID(node), mode)
		},
		Restart:     func(node string) { _ = cl.Revive(core.NodeID(node)) },
		SetPFSDelay: cl.PFS().SetReadDelay,
	})
	planCancel()
	window := time.Since(windowStart)
	close(stop)
	readers.Wait()
	<-phaseDone
	netctl.HealAll()
	run.PhaseReads = phaseReads

	windowMs := float64(window) / float64(time.Millisecond)
	totalReaders := float64(cfg.clients * readersPerClient)
	run.Reads = reads.Load()
	run.Transient = transient.Load()
	run.WrongBytes = wrongBytes.Load()
	run.Stuck = stuck.Load()
	run.DNF = aborted.Load() > 0
	run.Epochs = float64(run.Reads) / float64(ds.NumFiles) / totalReaders
	if run.Epochs > 0 {
		run.MeanEpochMs = windowMs / run.Epochs
	}
	if pol != nil {
		run.Switches = pol.Switches()
		run.Decisions = pol.Decisions(0)
		if err := ftpolicy.Replay(polCfg, run.Decisions); err != nil {
			return run, windowMs, fmt.Errorf("decision log does not replay: %w", err)
		}
	}
	return run, windowMs, nil
}
