package hvac

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
	"repro/internal/telemetry"
)

// Mover is the HVAC server's background data mover (§II-B): everything
// that lands on the node-local NVMe off the read path goes through it,
// in two stages.
//
// The fill stage stores bytes the server already holds: replica and
// ingest writes synchronously (FillSync, FillBatchSync — so does the
// miss flight, which must not complete before its object is cached),
// RAM-tier demotions through a bounded queue (Enqueue) whose overflow is
// dropped and counted — a dropped demotion only costs one PFS trip
// later. When that queue is idle Enqueue stores inline: an in-memory
// cache insert costs less than the scheduler handoff to a worker.
//
// The recache stage (Recache) prefetches paths the server does not hold
// yet: after a node failure the clients hint every new owner the paths
// it inherited, and up to recacheWidth workers run them through the
// server's miss flight — PFS Get, then NVMe fill — ahead of the reads
// that would otherwise miss on them one at a time. The stage never holds
// bytes, only paths, so nothing fetched can be lost to a full queue:
// hints that do not fit are dropped before any PFS read and those paths
// fill on their first demand miss instead.
type Mover struct {
	nvme *storage.NVMe
	node string // owning server's identity, for event tracing
	ch   chan moveJob
	wg   sync.WaitGroup

	// fetch makes one hinted path resident through the owning server's
	// miss flight and reports the bytes it brought in; false means the
	// path was already resident or could not be fetched. nil (a mover
	// without a server) leaves the recache stage off.
	fetch func(path string) (int, bool)

	enqueued atomic.Int64
	dropped  atomic.Int64
	inline   atomic.Int64 // fills stored synchronously on the idle fast path
	fillErrs atomic.Int64 // fills that failed (e.g. ErrTooLarge)

	errMu   sync.Mutex
	lastErr string // most recent fill failure, for /debug/ftcache

	mu     sync.Mutex
	closed bool
	idle   *sync.Cond
	inQ    int // jobs enqueued but not yet stored

	// Recache stage state, under mu.
	recacheCap int                    // bound on len(rq)
	rq         []recacheJob           // hinted paths not yet handed to a worker, FIFO
	hinted     map[string]struct{}    // paths in rq or being fetched: dedups W clients' hints
	runs       map[string]*recacheRun // open runs by failed node
	rworkers   int                    // live recache workers, <= recacheWidth
}

// recacheWidth is the number of hinted paths a node fetches from the PFS
// concurrently. The stage is latency-bound — each worker spends its time
// waiting on the PFS — so the width is what turns a failed node's share
// from a serial chain of miss latencies into width × receivers
// overlapped ones; it is a property of the stage like readDeviceWidth,
// not a tuning knob.
const recacheWidth = 8

// recacheQueueCap bounds the hinted paths a node holds at once (a few MB
// of path strings at the very worst). Hints beyond it are dropped and
// counted; their paths recache on demand.
const recacheQueueCap = 1 << 16

// recacheRun accounts one receiver's share of one failed node's files,
// from the first accepted hint until its queue drains.
type recacheRun struct {
	failed  string
	start   time.Time
	pending int // paths queued or being fetched
	files   int64
	bytes   int64
}

type recacheJob struct {
	path string
	run  *recacheRun
}

type moveJob struct {
	path string
	data []byte
}

// NewMover starts a mover with the given queue depth and worker count.
// Non-positive arguments select 256 and 1.
func NewMover(nvme *storage.NVMe, queueDepth, workers int) *Mover {
	if queueDepth <= 0 {
		queueDepth = 256
	}
	if workers <= 0 {
		workers = 1
	}
	m := &Mover{
		nvme:       nvme,
		ch:         make(chan moveJob, queueDepth),
		recacheCap: recacheQueueCap,
		hinted:     make(map[string]struct{}),
		runs:       make(map[string]*recacheRun),
	}
	m.idle = sync.NewCond(&m.mu)
	m.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go m.run()
	}
	return m
}

// fill performs one cache fill and records its outcome. Historically a
// failed Put was discarded silently, which made "why is this file never
// cached?" undiagnosable; failures are now counted and the most recent
// one is kept for the debug snapshot.
func (m *Mover) fill(path string, data []byte, inlined bool) error {
	if inlined {
		m.inline.Add(1)
	}
	if err := m.nvme.Put(path, data); err != nil {
		m.fillErrs.Add(1)
		m.errMu.Lock()
		m.lastErr = path + ": " + err.Error()
		m.errMu.Unlock()
		return err
	}
	telemetry.TraceEvent(telemetry.EventRecacheFileDone, m.node, path, int64(len(data)))
	return nil
}

// FillSync stores one object synchronously through the mover's fill
// accounting and tracing. Replica writes use it: the pusher made the
// operation async on its side and wants a durable acknowledgement, and
// routing the store through here keeps every cache fill — first-touch,
// recache, or replica push — visible in the same counters.
func (m *Mover) FillSync(path string, data []byte) error {
	return m.fill(path, data, false)
}

// FillBatchSync stores a whole ingest batch in one sharded NVMe pass
// (storage.NVMe.PutBatch: one lock round-trip per destination shard
// instead of per object), with the same per-fill accounting and tracing
// as FillSync. Returns one error slot per entry.
func (m *Mover) FillBatchSync(entries []storage.BatchEntry) []error {
	errs := m.nvme.PutBatch(entries)
	for i := range entries {
		if errs[i] != nil {
			m.fillErrs.Add(1)
			m.errMu.Lock()
			m.lastErr = entries[i].Path + ": " + errs[i].Error()
			m.errMu.Unlock()
			continue
		}
		telemetry.TraceEvent(telemetry.EventRecacheFileDone, m.node, entries[i].Path, int64(len(entries[i].Data)))
	}
	return errs
}

func (m *Mover) run() {
	defer m.wg.Done()
	for job := range m.ch {
		m.fill(job.path, job.data, false) // failures are counted by fill
		m.mu.Lock()
		m.inQ--
		if m.inQ == 0 {
			m.idle.Broadcast()
		}
		m.mu.Unlock()
	}
}

// Enqueue schedules an async cache fill; returns false when the job was
// dropped (queue full or mover closed).
func (m *Mover) Enqueue(path string, data []byte) bool {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.dropped.Add(1)
		return false
	}
	if m.inQ == 0 {
		// Idle fast path: store synchronously. inQ stays untouched, so
		// Flush sees nothing outstanding — the fill is already durable
		// (in cache terms) by the time Enqueue returns.
		m.mu.Unlock()
		m.fill(path, data, true)
		m.enqueued.Add(1)
		return true
	}
	select {
	case m.ch <- moveJob{path: path, data: data}:
		m.inQ++
		m.enqueued.Add(1)
		m.mu.Unlock()
		return true
	default:
		m.mu.Unlock()
		m.dropped.Add(1)
		return false
	}
}

// Recache queues paths this node inherited from failed for prefetch.
// Paths already hinted (every client of a
// job hints the same plan), already resident, or beyond the queue bound
// are skipped: the first two cost a map probe each, the last is counted
// as a drop and left to the demand path.
func (m *Mover) Recache(failed string, paths []string) {
	accepted, dropped := 0, 0
	m.mu.Lock()
	if m.closed || m.fetch == nil {
		m.mu.Unlock()
		return
	}
	run := m.runs[failed]
	for _, p := range paths {
		// In this order, under mu: a worker stores a path before it takes
		// mu to unhint it, so a path found unhinted here is either resident
		// or was never fetched — never fetched-and-about-to-be-requeued.
		if _, dup := m.hinted[p]; dup || m.nvme.Has(p) {
			continue
		}
		if len(m.rq) >= m.recacheCap {
			dropped++
			continue
		}
		if run == nil {
			run = &recacheRun{failed: failed, start: time.Now()}
			m.runs[failed] = run
		}
		m.hinted[p] = struct{}{}
		m.rq = append(m.rq, recacheJob{path: p, run: run})
		run.pending++
		accepted++
	}
	for m.rworkers < recacheWidth && m.rworkers < len(m.rq) {
		m.rworkers++
		m.wg.Add(1) // under mu with closed false: Close has not reached wg.Wait
		go m.recacheLoop()
	}
	m.mu.Unlock()
	m.enqueued.Add(int64(accepted))
	m.dropped.Add(int64(dropped))
}

// recacheLoop is one recache worker: it fetches hinted paths until the
// queue is empty or the mover closes, then exits — an idle node runs no
// recache goroutines.
func (m *Mover) recacheLoop() {
	defer m.wg.Done()
	m.mu.Lock()
	for !m.closed && len(m.rq) > 0 {
		job := m.rq[0]
		if m.rq = m.rq[1:]; len(m.rq) == 0 {
			m.rq = nil // let the drained backing array go
		}
		m.mu.Unlock()
		n, fetched := m.fetch(job.path)
		m.mu.Lock()
		delete(m.hinted, job.path)
		run := job.run
		if fetched {
			run.files++
			run.bytes += int64(n)
		}
		if run.pending--; run.pending > 0 {
			continue
		}
		delete(m.runs, run.failed)
		if len(m.hinted) == 0 {
			m.idle.Broadcast()
		}
		m.mu.Unlock()
		telemetry.TraceEvent(telemetry.EventRecacheComplete, m.node,
			fmt.Sprintf("%s files=%d bytes=%d", run.failed, run.files, run.bytes), int64(time.Since(run.start)))
		m.mu.Lock()
	}
	m.rworkers--
	m.mu.Unlock()
}

// Flush blocks until every enqueued fill has been stored and every
// hinted path has been fetched. Tests use it to make async caching
// deterministic.
func (m *Mover) Flush() {
	m.mu.Lock()
	for m.inQ > 0 || len(m.hinted) > 0 {
		m.idle.Wait()
	}
	m.mu.Unlock()
}

// Close drains queued fills, abandons hinted paths not yet fetched and
// stops every worker. Enqueue after Close reports a drop.
func (m *Mover) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	close(m.ch)
	m.wg.Wait()
	m.mu.Lock()
	// Jobs may have been consumed between the last decrement and channel
	// close; by now every queued fill has been stored, and the recache
	// workers have exited leaving whatever they had not started.
	m.inQ = 0
	m.rq, m.hinted, m.runs = nil, map[string]struct{}{}, map[string]*recacheRun{}
	m.idle.Broadcast()
	m.mu.Unlock()
}

// Counters returns the cumulative enqueue and drop counts.
func (m *Mover) Counters() (enqueued, dropped int64) {
	return m.enqueued.Load(), m.dropped.Load()
}

// FillStats returns the inline-fill count, the fill-error count, and the
// most recent fill error ("" if none has occurred).
func (m *Mover) FillStats() (inline, errs int64, lastErr string) {
	m.errMu.Lock()
	lastErr = m.lastErr
	m.errMu.Unlock()
	return m.inline.Load(), m.fillErrs.Load(), lastErr
}

// QueueDepth returns the number of jobs currently buffered in the
// channel (a point-in-time, lock-free read for the telemetry gauge).
func (m *Mover) QueueDepth() int64 { return int64(len(m.ch)) }
