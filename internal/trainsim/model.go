package trainsim

import (
	"fmt"
	"time"

	"repro/internal/dltrain"
	"repro/internal/failure"
	"repro/internal/ftcache"
	"repro/internal/hashring"
	"repro/internal/sim"
	"repro/internal/xhash"
)

// rng is a tiny deterministic generator (splitmix64) so simulation runs
// are exactly reproducible for a given seed.
type rng struct{ state uint64 }

func newRNG(seed int64) *rng { return &rng{state: uint64(seed)*2654435761 + 1} }

func (r *rng) next() uint64 { return xhash.SplitMix64(&r.state) }

func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// EpochResult describes one completed epoch of a simulated run.
type EpochResult struct {
	Epoch    int
	Duration time.Duration
	// Workers is the live rank count that completed the epoch.
	Workers int
	// Failures counts failures (and hence rollbacks) within the epoch.
	Failures int
	// PostFailure is true when the epoch ran with at least one node
	// already lost (for FT w/ PFS this means redirection was active).
	PostFailure bool
	// PFSReads during the epoch (including its rollback passes).
	PFSReads int64
}

// Result is the outcome of one simulated run.
type Result struct {
	Strategy string
	Nodes    int
	Total    time.Duration
	Epochs   []EpochResult
	Aborted  bool
	Restarts int
	PFSReads int64
}

// CleanEpochMean averages post-warmup epochs without failures and
// without active redirection — the "no failure" reference of Fig 6(a).
func (r Result) CleanEpochMean() time.Duration {
	var sum time.Duration
	n := 0
	for _, e := range r.Epochs {
		if e.Epoch == 0 || e.Failures > 0 || e.PostFailure {
			continue
		}
		sum += e.Duration
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// VictimEpochMean averages epochs in which a failure struck.
func (r Result) VictimEpochMean() time.Duration {
	var sum time.Duration
	n := 0
	for _, e := range r.Epochs {
		if e.Failures == 0 {
			continue
		}
		sum += e.Duration
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// PostFailureEpochMean averages failure-free epochs that ran with lost
// nodes (FT w/ PFS steady-state redirection epochs).
func (r Result) PostFailureEpochMean() time.Duration {
	var sum time.Duration
	n := 0
	for _, e := range r.Epochs {
		if e.Failures > 0 || !e.PostFailure || e.Epoch == 0 {
			continue
		}
		sum += e.Duration
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// sample classes on the read path.
const (
	classLocal     = iota // cached on the reader's own NVMe
	classRemote           // cached on a remote NVMe
	classPFSServer        // uncached: owner fetches from PFS, then caches
	classPFSDirect        // FT w/ PFS: client reads PFS directly, never cached
)

type model struct {
	cfg   Config
	eng   *sim.Engine
	rng   *rng
	sched *failure.Schedule

	paths  []string
	owner  []int32 // current owner rank
	cached []bool
	lost   []bool  // FT w/ PFS: permanently redirected to PFS
	repl   []uint8 // surviving cached copies (replication extension)

	ring      *hashring.Ring // FT w/ NVMe only
	rankOf    map[hashring.NodeID]int32
	nodeNames []hashring.NodeID

	live     []int32 // live rank indices
	aliveMap []bool

	// run state
	epoch      int
	step       int
	steps      int
	order      []int
	epochStart time.Duration
	epochFails int
	epochPFS   int64
	anyLost    bool

	res Result

	// scratch
	touched    []int32
	sCompute   []time.Duration
	sHidden    []time.Duration
	sPFSCount  []int32 // server-mediated PFS fetches (recache, cold)
	sPFSDirect []int32 // client-direct PFS reads (FT w/ PFS redirection)
	sPFSAccum  []time.Duration
	fetchedBuf []int32
}

// Run executes one simulated training run.
func Run(cfg Config) Result {
	if cfg.Nodes <= 0 || cfg.Epochs <= 0 || cfg.LocalBatch <= 0 {
		panic("trainsim: Nodes, Epochs, LocalBatch must be positive")
	}
	m := &model{
		cfg:   cfg,
		eng:   sim.New(),
		rng:   newRNG(cfg.Seed),
		sched: failure.NewSchedule(cfg.Failures),
	}
	m.init()
	m.eng.At(0, m.startEpoch)
	m.eng.Run()
	m.res.Total = m.eng.Now()
	m.res.Strategy = string(cfg.Strategy)
	m.res.Nodes = cfg.Nodes
	return m.res
}

func (m *model) init() {
	f := m.cfg.Dataset.NumFiles
	m.paths = make([]string, f)
	for i := range m.paths {
		m.paths[i] = m.cfg.Dataset.FilePath(i)
	}
	m.owner = make([]int32, f)
	m.cached = make([]bool, f)
	m.lost = make([]bool, f)
	m.repl = make([]uint8, f)

	m.nodeNames = make([]hashring.NodeID, m.cfg.Nodes)
	m.rankOf = make(map[hashring.NodeID]int32, m.cfg.Nodes)
	for i := range m.nodeNames {
		m.nodeNames[i] = hashring.NodeID(fmt.Sprintf("node-%04d", i))
		m.rankOf[m.nodeNames[i]] = int32(i)
	}

	switch m.cfg.Strategy {
	case ftcache.KindNVMe:
		m.ring = hashring.NewWithNodes(
			hashring.Config{VirtualNodes: m.cfg.VirtualNodes}, m.nodeNames)
		for i, p := range m.paths {
			o, _ := m.ring.Owner(p)
			m.owner[i] = m.rankOf[o]
		}
	default: // NoFT and FT w/ PFS use HVAC's static modulo placement
		for i, p := range m.paths {
			m.owner[i] = int32(xhash.FNV1aString(p) % uint64(m.cfg.Nodes))
		}
	}

	m.live = make([]int32, m.cfg.Nodes)
	m.aliveMap = make([]bool, m.cfg.Nodes)
	for i := range m.live {
		m.live[i] = int32(i)
		m.aliveMap[i] = true
	}

	m.touched = make([]int32, 0, m.cfg.Nodes)
	m.sCompute = make([]time.Duration, m.cfg.Nodes)
	m.sHidden = make([]time.Duration, m.cfg.Nodes)
	m.sPFSCount = make([]int32, m.cfg.Nodes)
	m.sPFSDirect = make([]int32, m.cfg.Nodes)
	m.sPFSAccum = make([]time.Duration, m.cfg.Nodes)
	m.fetchedBuf = make([]int32, 0, m.cfg.LocalBatch*m.cfg.Nodes)
}

func (m *model) startEpoch() {
	if m.res.Aborted {
		return
	}
	m.order = dltrain.Shuffle(m.cfg.Dataset.NumFiles, m.cfg.Seed, m.epoch)
	m.steps = m.stepsPerEpoch()
	m.step = 0
	m.epochStart = m.eng.Now()
	m.epochFails = 0
	m.epochPFS = 0
	m.runStep()
}

// stepsPerEpoch derives the step count from the live rank set: the
// local batch is fixed, so fewer ranks mean a smaller global batch and
// more steps.
func (m *model) stepsPerEpoch() int {
	chunk := m.cfg.LocalBatch * len(m.live)
	if chunk <= 0 {
		return 0
	}
	return (len(m.order) + chunk - 1) / chunk
}

// resumeEpoch restarts the current epoch after a rollback without
// resetting its wall-clock start or failure count. The step count is
// recomputed for the shrunken communicator.
func (m *model) resumeEpoch() {
	if m.res.Aborted {
		return
	}
	m.steps = m.stepsPerEpoch()
	m.step = 0
	m.runStep()
}

func (m *model) runStep() {
	// A failure, timed or not, lands on a step boundary: it manifests to
	// peers as timeouts on in-flight requests, observed at the barrier.
	if ev, ok := m.sched.Next(m.eng.Now(), m.epoch, m.step, m.steps); ok {
		m.applyFailure(ev)
		return
	}
	dt := m.stepTime()
	m.eng.After(dt, func() {
		m.step++
		if m.step >= m.steps {
			m.endEpoch()
			return
		}
		m.runStep()
	})
}

func (m *model) endEpoch() {
	m.eng.After(m.cfg.EpochOverhead, func() {
		m.res.Epochs = append(m.res.Epochs, EpochResult{
			Epoch:       m.epoch,
			Duration:    m.eng.Now() - m.epochStart,
			Workers:     len(m.live),
			Failures:    m.epochFails,
			PostFailure: m.anyLost,
			PFSReads:    m.epochPFS,
		})
		m.epoch++
		if m.epoch >= m.cfg.Epochs {
			return
		}
		m.startEpoch()
	})
}

// applyFailure kills ev's node when it names a live one, else a random
// live rank while more than one is left.
func (m *model) applyFailure(ev failure.Event) {
	victimRank := int32(-1)
	if r, ok := m.rankOf[hashring.NodeID(ev.Node)]; ok && m.aliveMap[r] {
		victimRank = r
	} else if len(m.live) > 1 {
		victimRank = m.live[m.rng.intn(len(m.live))]
	}
	if victimRank < 0 {
		// No viable victim; ignore the event and continue the step.
		m.runStep()
		return
	}

	m.epochFails++
	m.res.Restarts++
	m.anyLost = true

	// Remove the rank.
	m.aliveMap[victimRank] = false
	kept := m.live[:0]
	for _, r := range m.live {
		if r != victimRank {
			kept = append(kept, r)
		}
	}
	m.live = kept

	switch m.cfg.Strategy {
	case ftcache.KindNoFT:
		m.res.Aborted = true
		// Job dies once detection concludes; account the dead time.
		m.eng.After(m.cfg.DetectionTime, func() {})
		return

	case ftcache.KindPFS:
		for i := range m.owner {
			if m.owner[i] == victimRank {
				m.lost[i] = true
			}
		}

	case ftcache.KindNVMe:
		victim := m.nodeNames[victimRank]
		// With replication active, the victim may hold secondary copies
		// of files it does not own; every such replica dies with it.
		if m.cfg.Replication > 1 {
			for i := range m.repl {
				if m.repl[i] < 2 || m.owner[i] == victimRank {
					continue // owner-held copies handled below
				}
				holders, ok := m.ring.Owners(m.paths[i], int(m.repl[i]))
				if !ok {
					continue
				}
				for _, h := range holders {
					if h == victim {
						m.repl[i]--
						break
					}
				}
			}
		}
		m.ring.Remove(victim)
		for i := range m.owner {
			if m.owner[i] == victimRank {
				o, ok := m.ring.Owner(m.paths[i])
				if !ok {
					m.lost[i] = true // no servers left at all
					continue
				}
				m.owner[i] = m.rankOf[o]
				if m.repl[i] > 1 {
					// Replication extension: the ring's new owner is the
					// clockwise successor — exactly the node holding the
					// next replica. The copy survives; one replica gone.
					m.repl[i]--
				} else {
					m.cached[i] = false // the only copy died with the node
					m.repl[i] = 0
				}
			}
		}
	}

	if len(m.live) == 0 {
		m.res.Aborted = true
		return
	}
	// Detection (timeouts accumulating to TIMEOUT_LIMIT) plus Horovod
	// elastic resumption, then the epoch restarts from its beginning.
	m.eng.After(m.cfg.DetectionTime+m.cfg.ElasticRestartCost, m.resumeEpoch)
}

// ftOverhead is the per-read bookkeeping cost of the FT machinery.
func (m *model) ftOverhead() time.Duration {
	if m.cfg.Strategy == ftcache.KindNoFT {
		return 0
	}
	return m.cfg.FTReadOverhead
}

// stepTime computes the duration of the current global step: per-rank
// compute and I/O with the barrier max, PFS contention shared across the
// step's PFS readers, cold reads unhidden by the input pipeline.
func (m *model) stepTime() time.Duration {
	nLive := len(m.live)
	chunk := m.cfg.LocalBatch * nLive
	lo := m.step * chunk
	hi := lo + chunk
	if hi > len(m.order) {
		hi = len(m.order)
	}
	if nLive == 0 || hi <= lo {
		return m.cfg.StepOverhead
	}

	m.touched = m.touched[:0]
	m.fetchedBuf = m.fetchedBuf[:0]
	ftOv := m.ftOverhead()
	size := m.cfg.Dataset.FileBytes

	// Pass 1: classify reads, accumulate compute/hidden I/O, count PFS
	// readers (their service time needs the step's PFS concurrency).
	for j := lo; j < hi; j++ {
		f := m.order[j]
		reader := m.live[(j-lo)%nLive]
		if m.sCompute[reader] == 0 && m.sHidden[reader] == 0 &&
			m.sPFSCount[reader] == 0 && m.sPFSDirect[reader] == 0 {
			m.touched = append(m.touched, reader)
		}
		m.sCompute[reader] += m.cfg.ComputePerSample + ftOv

		class := m.classify(int32(f), reader)
		switch class {
		case classLocal:
			m.sHidden[reader] += m.cfg.NVMe.ReadTime(size, 1)
		case classRemote:
			m.sHidden[reader] += m.cfg.Net.TransferTime(size) + m.cfg.NVMe.ReadTime(size, 1)
		case classPFSServer:
			m.sPFSCount[reader]++
			if m.owner[f] != reader {
				m.sPFSAccum[reader] += m.cfg.Net.TransferTime(size)
			}
			m.fetchedBuf = append(m.fetchedBuf, int32(f))
			m.epochPFS++
			m.res.PFSReads++
		case classPFSDirect:
			m.sPFSDirect[reader]++
			m.epochPFS++
			m.res.PFSReads++
		}
	}

	// PFS contention (§II-A): the step's PFS ops queue on the metadata
	// service — a rank's pipelined opens wait out the step-wide queue
	// depth once — and all transfers share the aggregate bandwidth
	// across the ranks reading the PFS this step.
	kOps, kRanks := 0, 0
	for _, r := range m.touched {
		if c := m.sPFSCount[r] + m.sPFSDirect[r]; c > 0 {
			kOps += int(c)
			kRanks++
		}
	}
	var metaWait, dataTime time.Duration
	if kOps > 0 {
		metaWait = m.cfg.PFS.MetadataTime(kOps)
		dataTime = m.cfg.PFS.DataTime(size, kRanks)
	}
	directFactor := m.cfg.DirectPFSFactor
	if directFactor <= 0 {
		directFactor = 1
	}

	// Pass 2: per-rank step time; barrier max.
	var maxRank time.Duration
	for _, r := range m.touched {
		unhidden := m.sPFSAccum[r]
		if m.sPFSCount[r] > 0 || m.sPFSDirect[r] > 0 {
			unhidden += metaWait + time.Duration(m.sPFSCount[r])*dataTime
		}
		if m.sPFSDirect[r] > 0 {
			direct := time.Duration(float64(metaWait+dataTime) * directFactor)
			unhidden += time.Duration(m.sPFSDirect[r]) * direct
		}
		t := m.sCompute[r]
		if m.sHidden[r] > t {
			t = m.sHidden[r] // input pipeline couldn't keep up
		}
		t += unhidden
		if t > maxRank {
			maxRank = t
		}
		m.sCompute[r], m.sHidden[r], m.sPFSAccum[r] = 0, 0, 0
		m.sPFSCount[r], m.sPFSDirect[r] = 0, 0
	}

	// Server-side fetches populate the owners' NVMe (data mover); with
	// replication the client fans the object out to the secondary owners
	// asynchronously (off the critical path).
	replTarget := uint8(1)
	if m.cfg.Replication > 1 {
		r := m.cfg.Replication
		if r > len(m.live) {
			r = len(m.live)
		}
		if r > 255 {
			r = 255
		}
		replTarget = uint8(r)
	}
	for _, f := range m.fetchedBuf {
		m.cached[f] = true
		m.repl[f] = replTarget
	}

	return maxRank + m.cfg.StepOverhead
}

func (m *model) classify(f, reader int32) int {
	if m.lost[f] {
		return classPFSDirect
	}
	if !m.cached[f] {
		return classPFSServer
	}
	if m.owner[f] == reader {
		return classLocal
	}
	return classRemote
}
