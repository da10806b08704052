package hvac

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
	"repro/internal/telemetry"
)

// Mover is the HVAC server's data mover (§II-B): everything that lands
// on the node-local NVMe goes through it, in two stages.
//
// The fill stage stores bytes the server already holds, synchronously:
// writes (FillBatchSync), the miss flight's fill (OfferSync, under the
// admission rule), and RAM-tier demotions (Demote). An in-memory cache
// insert costs less than handing it to a worker, so no fill waits in a
// queue.
//
// The recache stage (Recache) prefetches paths the server does not hold
// yet: after a node failure the clients hint every new owner the paths
// it inherited, and up to recacheWidth workers run them through the
// server's miss flight — PFS Get, then NVMe fill — ahead of the reads
// that would otherwise miss on them one at a time. The stage never holds
// bytes, only paths, so nothing fetched can be lost to a full queue:
// hints that do not fit are dropped before any PFS read and those paths
// fill on their first demand miss instead. It is the mover's only
// concurrency, and an idle node runs none of it.
type Mover struct {
	nvme *storage.NVMe
	node string         // owning server's identity, for event tracing
	wg   sync.WaitGroup // live recache workers

	// srv is the owning server: the recache stage asks its residency
	// check and runs its prefetch. nil (a mover without a server) leaves
	// the stage off.
	srv *Server

	enqueued atomic.Int64
	dropped  atomic.Int64
	fillErrs atomic.Int64 // fills that failed (e.g. ErrTooLarge)

	errMu   sync.Mutex
	lastErr string // most recent fill failure, for /debug/ftcache

	mu     sync.Mutex
	closed bool
	idle   *sync.Cond

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

// NewMover returns a mover over nvme for the server srv named node; a
// nil srv leaves the recache stage off. It starts no goroutine.
func NewMover(nvme *storage.NVMe, node string, srv *Server) *Mover {
	m := &Mover{
		nvme:       nvme,
		node:       node,
		srv:        srv,
		recacheCap: recacheQueueCap,
		hinted:     make(map[string]struct{}),
		runs:       make(map[string]*recacheRun),
	}
	m.idle = sync.NewCond(&m.mu)
	return m
}

// filled records one fill's outcome, the accounting both fill calls
// share: a failure is counted and kept as the last error, so "why is
// this file never cached?" has an answer in the debug snapshot.
func (m *Mover) filled(path string, err error) {
	if err != nil {
		m.fillErrs.Add(1)
		m.errMu.Lock()
		m.lastErr = path + ": " + err.Error()
		m.errMu.Unlock()
	}
}

// FillBatchSync stores a write batch in one sharded NVMe pass
// (storage.NVMe.PutBatch: one lock round-trip per destination shard
// instead of per object) through the fill accounting. Returns one error
// slot per entry.
func (m *Mover) FillBatchSync(entries []storage.BatchEntry) []error {
	errs := m.nvme.PutBatch(entries)
	for i := range entries {
		m.filled(entries[i].Path, errs[i])
	}
	return errs
}

// OfferSync stores a miss flight's fill if NVMe's admission rule lets
// it in (storage.NVMe.Offer) and reports whether it did. A hinted path is
// a lost file, whose fill is the one PFS read its recache owes: it lands.
func (m *Mover) OfferSync(path string, data []byte) bool {
	m.mu.Lock()
	_, lost := m.hinted[path]
	m.mu.Unlock()
	if lost {
		return m.keep(path, data)
	}
	stored, err := m.nvme.Offer(path, data)
	m.filled(path, err)
	return stored
}

// keep stores an object unless NVMe holds a copy, which is as new or
// newer (storage.NVMe.PutIfAbsent), and reports whether NVMe holds one.
func (m *Mover) keep(path string, data []byte) bool {
	err := m.nvme.PutIfAbsent(path, data)
	m.filled(path, err)
	return err == nil
}

// Demote keeps an object that left the RAM tier, before it returns, and
// counts it as enqueued whether or not the store succeeded (a failure is
// counted as a fill error). It reports false, and counts a drop, only
// after Close.
func (m *Mover) Demote(path string, data []byte) bool {
	m.mu.Lock()
	closed := m.closed
	m.mu.Unlock()
	if closed {
		m.dropped.Add(1)
		return false
	}
	m.keep(path, data)
	m.enqueued.Add(1)
	return true
}

// Recache queues paths this node inherited from failed for prefetch.
// Paths already hinted (every client of a job hints the same plan),
// already resident in either tier, or beyond the queue bound are
// skipped: the first two cost a map probe or two each, the last is
// counted as a drop and left to the demand path.
func (m *Mover) Recache(failed string, paths []string) {
	accepted, dropped := 0, 0
	m.mu.Lock()
	if m.closed || m.srv == nil {
		m.mu.Unlock()
		return
	}
	run := m.runs[failed]
	for _, p := range paths {
		// In this order, under mu: a worker stores a path before it takes
		// mu to unhint it, so a path found unhinted here is either resident
		// or was never fetched — never fetched-and-about-to-be-requeued.
		if _, dup := m.hinted[p]; dup || m.srv.resident(p) {
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
		n, fetched := m.srv.prefetch(job.path)
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
		// The event goes out under mu, before the broadcast: a Flush that
		// returns has seen every run it waited for reported.
		telemetry.TraceEvent(telemetry.EventRecacheComplete, m.node,
			fmt.Sprintf("%s files=%d bytes=%d", run.failed, run.files, run.bytes), int64(time.Since(run.start)))
		if len(m.hinted) == 0 {
			m.idle.Broadcast()
		}
	}
	m.rworkers--
	m.mu.Unlock()
}

// Flush blocks until every hinted path has been fetched; fills are
// already stored when their call returns. Tests use it to make the
// recache stage deterministic.
func (m *Mover) Flush() {
	m.mu.Lock()
	for len(m.hinted) > 0 {
		m.idle.Wait()
	}
	m.mu.Unlock()
}

// Close abandons hinted paths not yet fetched and waits for the recache
// workers to exit. Demote after Close reports a drop.
func (m *Mover) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.wg.Wait()
	m.mu.Lock()
	// The recache workers have exited leaving whatever they had not
	// started.
	m.rq, m.hinted, m.runs = nil, map[string]struct{}{}, map[string]*recacheRun{}
	m.idle.Broadcast()
	m.mu.Unlock()
}

// Counters returns the cumulative enqueue and drop counts.
func (m *Mover) Counters() (enqueued, dropped int64) {
	return m.enqueued.Load(), m.dropped.Load()
}

// FillStats returns the fill-error count and the most recent fill error
// ("" if none has occurred).
func (m *Mover) FillStats() (errs int64, lastErr string) {
	m.errMu.Lock()
	lastErr = m.lastErr
	m.errMu.Unlock()
	return m.fillErrs.Load(), lastErr
}
