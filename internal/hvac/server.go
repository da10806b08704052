package hvac

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/loadctl"
	"repro/internal/memtier"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ServerConfig configures one HVAC server daemon.
type ServerConfig struct {
	// Node is this server's cluster identity.
	Node cluster.NodeID
	// NVMeCapacity bounds the node-local cache (0 = unbounded).
	NVMeCapacity int64
	// AdmissionLimit bounds concurrently served reads and written
	// objects (a write takes one slot per entry); excess requests
	// queue (AdmissionQueue deep, for at most
	// loadctl.DefaultAdmissionWait) and are then shed with
	// StatusOverloaded. <= 0 disables admission control.
	AdmissionLimit int
	// AdmissionQueue is the wait-line depth; < 0 selects AdmissionLimit.
	AdmissionQueue int
	// ReadDelay simulates the NVMe device's service time of one read.
	// When > 0, each read served from NVMe is one read of a constant
	// storage.Device, storage.NVMeQueueWidth wide: it waits for a device
	// slot and then this long, giving every node finite serving capacity
	// — queueing at an overloaded node is real wall-clock time, and the
	// wait costs what it says (the device's completion engine, not a
	// runtime timer whose floor is 1.1 ms). A RAM hit never reads the
	// device, and neither does an NVMe miss: NVMe's in-memory index says
	// the object is not there, so the miss goes straight to the PFS,
	// whose own delay is the PFS store's. 0 (the default) disables the
	// simulation entirely.
	ReadDelay time.Duration
	// RAMCapacity, when > 0, enables the RAM tier: a sharded in-memory
	// object cache (internal/memtier) above NVMe on the read path. Every
	// device-served read is offered to it; the tier fills its budget and
	// then keeps what is read most often, moving it up from NVMe. Hits
	// skip the device model entirely and serve zero-copy from the slice
	// the tier holds by reference. 0 (the default) disables the tier.
	RAMCapacity int64
}

// The RPC server stages a request only if its handler is staged; any
// other Handler runs whole, off the connection's reader.
var _ rpc.StagedHandler = (*Server)(nil)

// Server is one node's HVAC daemon: it owns the node-local NVMe cache
// and falls back to the shared PFS on miss.
type Server struct {
	cfg     ServerConfig
	nvme    *storage.NVMe
	pfs     storage.Store
	mover   *Mover
	rpc     *rpc.Server
	limiter *loadctl.Limiter // nil → admission control disabled
	device  *storage.Device  // simulated device; nil → no ReadDelay

	// baseCtx is the server's lifetime context: the wire protocol
	// carries no per-request cancellation, so server-side coalesced
	// fills hang off this root and are cut loose when Close cancels it.
	baseCtx   context.Context
	closeBase context.CancelFunc

	// fill is the one flight every NVMe miss goes through, keyed by
	// path: a demand read, a herd of them, and the recache stage's
	// prefetch of the same path share a single PFS fetch, and the leader
	// offers it to NVMe before the flight completes — so a fetched object
	// NVMe takes is at every instant either in flight or cached, and
	// nothing fetches it twice.
	fill *loadctl.Group

	// ram is the RAM tier (nil when RAMCapacity == 0); it decides for
	// itself which of the objects offered to it stay.
	ram *memtier.Tier

	reads        atomic.Int64
	pfsFallbacks atomic.Int64
	ramServed    atomic.Int64 // reads answered from the RAM tier
	batchPuts    atomic.Int64 // OpPutBatch frames decoded
	batchEntries atomic.Int64 // objects received inside those frames
	batchSheds   atomic.Int64 // whole batches shed by admission
}

// NewServer creates a server over the shared pfs. The PFS handle stands
// in for the mounted Lustre filesystem every Frontier node sees.
func NewServer(cfg ServerConfig, pfs storage.Store) *Server {
	s := &Server{
		cfg:     cfg,
		nvme:    storage.NewNVMe(cfg.NVMeCapacity),
		pfs:     pfs,
		limiter: loadctl.NewLimiter(cfg.AdmissionLimit, cfg.AdmissionQueue, loadctl.DefaultAdmissionWait),
		fill:    loadctl.NewGroup(),
	}
	//ftclint:ignore ctxflow server lifetime root; Close cancels it, and the wire protocol has no caller context to inherit
	s.baseCtx, s.closeBase = context.WithCancel(context.Background())
	if cfg.ReadDelay > 0 {
		s.device = storage.ConstantDevice(cfg.ReadDelay, storage.NVMeQueueWidth)
	}
	if cfg.RAMCapacity > 0 {
		s.ram = memtier.New(cfg.RAMCapacity, s.demoteRAM)
	}
	s.mover = NewMover(s.nvme, string(cfg.Node), s)
	s.rpc = rpc.NewServer(s)
	s.registerTelemetry()
	return s
}

// NVMe exposes the cache store (tests and experiments preload it).
func (s *Server) NVMe() *storage.NVMe { return s.nvme }

// RAM exposes the in-memory hot-object tier (nil when disabled).
func (s *Server) RAM() *memtier.Tier { return s.ram }

// demoteRAM is the tier's eviction callback: an object squeezed out of
// RAM falls back to NVMe so its bytes stay node-local (RAM → NVMe →
// PFS, the paper's tier order). The slice is the immutable one the tier
// held by reference, so the mover stores it as is, before the eviction
// returns, never over a copy NVMe holds. Invalidation and Clear never
// demote: stale bytes must not resurrect into a lower tier.
func (s *Server) demoteRAM(path string, data []byte) { s.mover.Demote(path, data) }

// promote offers an object served from below to the RAM tier. A
// promotion moves it: NVMe's copy goes, so the tiers hold distinct
// objects.
func (s *Server) promote(path string, data []byte) bool {
	ok := s.ram.Admit(path, data)
	if ok {
		s.nvme.Delete(path)
		s.settle(path, data)
	}
	return ok
}

// settle re-checks RAM once a promotion dropped NVMe's copy: an
// eviction in between found that copy and demoted nothing, so an object
// RAM no longer holds goes back to NVMe, never over a newer copy.
func (s *Server) settle(path string, data []byte) {
	if !s.ram.Has(path) {
		s.mover.Demote(path, data)
	}
}

// cachedSize is the one residency check (stat, prefetch, recache dedup):
// after a promotion, RAM holds an object's only copy.
func (s *Server) cachedSize(path string) (int64, bool) {
	size, ok := s.nvme.Size(path)
	if !ok && s.ram != nil {
		size, ok = s.ram.Size(path)
	}
	return size, ok
}

func (s *Server) resident(path string) bool { _, ok := s.cachedSize(path); return ok }

// Mover exposes the data mover (tests flush it for determinism).
func (s *Server) Mover() *Mover { return s.mover }

// Limiter exposes the admission controller (nil when disabled).
func (s *Server) Limiter() *loadctl.Limiter { return s.limiter }

// Reads returns the cumulative OpRead count — the per-node load signal
// the skew experiments report as read share.
func (s *Server) Reads() int64 { return s.reads.Load() }

// Serve runs the RPC loop on lis until Close.
func (s *Server) Serve(lis net.Listener) error { return s.rpc.Serve(lis) }

// SetUnresponsive toggles the fault-injection mode in which the server
// reads requests but never answers (see rpc.Server.SetUnresponsive).
func (s *Server) SetUnresponsive(v bool) { s.rpc.SetUnresponsive(v) }

// Unresponsive reports whether fault-injection mode is active.
func (s *Server) Unresponsive() bool { return s.rpc.Unresponsive() }

// Close stops the RPC server and the mover's recache workers.
func (s *Server) Close() {
	s.closeBase()
	s.rpc.Close()
	s.mover.Close()
}

// Handle implements rpc.Handler for direct invocations in tests and
// tools (the RPC server dispatches through Stage): the whole request
// runs on the caller's goroutine, and a zero-copy read response is
// flattened (head and by-reference tail joined into one owned slice)
// and its lease, if it carries one, released before return, so direct
// callers never see store internals.
func (s *Server) Handle(op uint16, payload []byte) (uint16, []byte) {
	lr := s.HandleLeased(op, payload, 0)
	resp := lr.Head
	if lr.Ext != nil {
		resp = make([]byte, 0, len(lr.Head)+len(lr.Ext))
		resp = append(append(resp, lr.Head...), lr.Ext...)
	}
	if lr.Release != nil {
		lr.Release()
	}
	return lr.Status, resp
}

// HandleLeased runs a whole request on the caller's goroutine — Stage,
// then its continuation if it has one — and returns the complete
// response, whose payload tail may be a zero-copy lease the caller must
// Release. connWait is reported as the time the request waited for a
// fan-out slot.
func (s *Server) HandleLeased(op uint16, payload []byte, connWait time.Duration) rpc.LeasedResp {
	lr, cont := s.Stage(op, payload)
	if cont != nil {
		lr = cont.Continue(op, payload, connWait)
	}
	return lr
}

// Stage implements rpc.StagedHandler. What needs no wait is answered on
// the connection's reading goroutine: ping, stat, stats, invalidate, and
// a read up to its first wait — a RAM hit is served there, and so is an
// NVMe hit when no device is modelled. A read that must wait for an
// admission slot, the device or the miss flight continues on a
// goroutine of its own; so do put batches and recache hints, whole,
// since they wait on the mover. A read answers
// with a zero-copy payload tail — the stored object itself, leased when
// it comes from the RAM tier — that stays referenced until the
// coalesced response flush has it on the wire.
func (s *Server) Stage(op uint16, payload []byte) (rpc.LeasedResp, rpc.Continuation) {
	switch op {
	case OpPing:
		return rpc.LeasedResp{Status: rpc.StatusOK}, nil
	case OpRead:
		return s.stageRead(payload)
	case OpStat:
		return plainResp(s.handleStat(payload)), nil
	case OpStats:
		return plainResp(s.handleStats()), nil
	case OpInvalidate:
		return plainResp(s.handleInvalidate(payload)), nil
	case OpPutBatch, OpRecache:
		return rpc.LeasedResp{}, (*writeOps)(s)
	default:
		return rpc.LeasedResp{Status: StatusError, Head: []byte("unknown opcode")}, nil
	}
}

// writeOps is the continuation of the ops that run whole off the
// reading goroutine; the pointer conversion keeps their dispatch free
// of an allocation.
type writeOps Server

// Continue implements rpc.Continuation.
func (w *writeOps) Continue(op uint16, payload []byte, connWait time.Duration) rpc.LeasedResp {
	s := (*Server)(w)
	if op == OpPutBatch {
		return plainResp(s.handlePutBatch(payload, connWait))
	}
	return plainResp(s.handleRecache(payload))
}

// plainResp wraps a copying handler's result as a lease-free response.
func plainResp(status uint16, resp []byte) rpc.LeasedResp {
	return rpc.LeasedResp{Status: status, Head: resp}
}

// handlePutBatch accepts every write — an ingest batch, or a Push as a
// one-entry batch: every entry is decoded, admitted at its true cost
// (the batch competes for admission slots as N objects, not as one
// frame — otherwise batching would be an admission-control bypass),
// copied off the pooled RPC buffer, and stored in a single sharded NVMe
// pass. Each entry gets its own status so one oversized object never
// fails its batch-mates. Already-cached paths are acknowledged without
// re-storing: hot-object fan-out means many clients may push the same
// object, and re-storing identical bytes only churns the LRU.
func (s *Server) handlePutBatch(payload []byte, connWait time.Duration) (uint16, []byte) {
	var req PutBatchReq
	if err := req.Unmarshal(payload); err != nil {
		return StatusError, []byte(err.Error())
	}
	s.batchPuts.Add(1)
	s.batchEntries.Add(int64(len(req.Entries)))
	statuses := make([]uint16, len(req.Entries))
	if len(req.Entries) == 0 {
		resp := PutBatchResp{}
		return rpc.StatusOK, resp.Marshal()
	}
	sp := trace.StartRemote("server.put_batch", trace.TraceID(req.Trace.TraceID), trace.SpanID(req.Trace.SpanID))
	defer sp.End()
	sp.Annotate("node", string(s.cfg.Node))
	sp.AnnotateInt("entries", int64(len(req.Entries)))
	if connWait > 0 {
		sp.AnnotateDuration("conn_queue_ns", connWait)
	}
	if s.limiter != nil {
		ok, wait := s.limiter.AcquireNWait(len(req.Entries))
		if !ok {
			s.batchSheds.Add(1)
			sp.SetErrorString("overloaded")
			return StatusOverloaded, nil
		}
		defer s.limiter.ReleaseN(len(req.Entries))
		if wait > 0 {
			sp.AnnotateDuration("admission_wait_ns", wait)
		}
	}
	// Collect the entries that actually need storing, remembering which
	// request index each came from so statuses line up.
	fills := make([]storage.BatchEntry, 0, len(req.Entries))
	idx := make([]int, 0, len(req.Entries))
	total := 0
	for i := range req.Entries {
		if s.nvme.Has(req.Entries[i].Path) {
			continue // acked as OK without re-storing
		}
		if s.ram != nil {
			// A path new to NVMe may carry bytes that differ from a RAM
			// copy (a promotion moved it there), so that copy goes before
			// the fill: the write is the object's one copy again.
			s.ram.Invalidate(req.Entries[i].Path)
		}
		fills = append(fills, storage.BatchEntry{Path: req.Entries[i].Path, Data: req.Entries[i].Data})
		idx = append(idx, i)
		total += len(req.Entries[i].Data)
	}
	// Entry data aliases the pooled RPC buffer; copy before retaining.
	// One slab for the whole batch: per-entry allocations at full ingest
	// rate are pure allocator/GC churn, and batch-mates are inserted
	// adjacently so they leave the LRU together — the shared backing
	// array does not outlive its batch by much.
	slab := make([]byte, 0, total)
	for i := range fills {
		start := len(slab)
		slab = append(slab, fills[i].Data...)
		fills[i].Data = slab[start:len(slab):len(slab)]
	}
	failed := 0
	if len(fills) > 0 {
		st := sp.StartChild("storage.batch_fill")
		st.AnnotateInt("fills", int64(len(fills)))
		for j, err := range s.mover.FillBatchSync(fills) {
			if err != nil {
				statuses[idx[j]] = StatusError
				failed++
			}
		}
		if failed > 0 {
			st.SetErrorString("partial batch failure")
		}
		st.End()
	}
	sp.AnnotateInt("failed", int64(failed))
	resp := PutBatchResp{Statuses: statuses}
	return rpc.StatusOK, resp.Marshal()
}

// The read path is tiered: RAM hit → serve with no device model (RAM
// pays no NVMe service time); RAM miss → NVMe's index; NVMe hit → the
// device read, when one is modelled; NVMe miss → the miss flight (PFS
// fetch + NVMe fill, once per path however many readers and prefetches
// want it), which pays no device read — the paper's server serves a
// miss from the PFS and caches it behind the reader's back. Every
// object served below RAM is offered to the RAM tier on the way out,
// and whichever tier answers, the body leaves by reference: the stored
// slice is immutable, so the response is a 13-byte head plus that
// slice.
//
// It runs in two stages split at its first wait — an admission-queue
// slot, the device, or the miss flight. stageRead runs on the
// connection's reading goroutine up to that point and serves every hit
// that needs none; the rest is a readOp continuation. Each tier is
// probed once, in whichever stage reaches it.

// readWait names the wait a read's continuation starts with.
type readWait uint8

const (
	waitAdmission readWait = iota // queued for an admission slot; nothing else done
	waitDevice                    // RAM missed, NVMe hit; the device read of data comes next
	waitFill                      // RAM and NVMe missed; the miss flight comes next
)

// readOp is one read between its stages: what the first stage learned,
// kept for the continuation. The first stage keeps it on its stack and
// parks a pooled copy only when the read has to wait, so splitting costs
// neither the inline path nor the waiting one an allocation.
type readOp struct {
	s    *Server
	req  ReadReq
	sp   *trace.Span // server.read
	st   *trace.Span // storage.read, open across a miss flight
	data []byte      // the NVMe hit a waitDevice read serves
	slot bool        // holds an admission slot, released when the read ends
	next readWait
}

var readOps = sync.Pool{New: func() any { return new(readOp) }}

// stageRead is the read's first stage. Admission comes first: reads and
// writes are limited (a write at its entry count, in handlePutBatch) —
// control-plane ops (ping, stats) must keep answering under overload so
// liveness probes and observability stay truthful. The gate runs
// before the payload is even decoded, so a shed request costs no parse
// and gets no span — the limiter's own counters are its record.
func (s *Server) stageRead(payload []byte) (rpc.LeasedResp, rpc.Continuation) {
	r := readOp{s: s}
	defer r.unwind()
	if s.limiter != nil {
		switch s.limiter.TryAcquire() {
		case loadctl.Shed:
			return rpc.LeasedResp{Status: StatusOverloaded}, nil
		case loadctl.Queued:
			return rpc.LeasedResp{}, r.park()
		}
		r.slot = true
	}
	if lr, done := r.probe(payload, 0, 0); done {
		return lr, nil
	}
	return rpc.LeasedResp{}, r.park()
}

// park moves r off the first stage's stack into a pooled readOp, which
// takes over its spans and slot.
func (r *readOp) park() *readOp {
	p := readOps.Get().(*readOp)
	*p = *r
	*r = readOp{}
	return p
}

// probe is the read up to its first wait: decode, the span, the RAM
// tier and NVMe's index. It serves a hit that needs no device read or a
// bad request (done), and otherwise leaves in r.next the wait the
// continuation starts with. connWait and admissionWait are the
// server-side queueing already paid; the span reports them so the
// client can attribute its observed RPC time to queueing vs. storage.
func (r *readOp) probe(payload []byte, connWait, admissionWait time.Duration) (rpc.LeasedResp, bool) {
	s := r.s
	if err := r.req.Unmarshal(payload); err != nil {
		return r.end(rpc.LeasedResp{Status: StatusError, Head: []byte(err.Error())}), true
	}
	s.reads.Add(1)
	r.sp = trace.StartRemote("server.read", trace.TraceID(r.req.Trace.TraceID), trace.SpanID(r.req.Trace.SpanID))
	r.sp.Annotate("node", string(s.cfg.Node))
	if connWait > 0 {
		r.sp.AnnotateDuration("conn_queue_ns", connWait)
	}
	if admissionWait > 0 {
		r.sp.AnnotateDuration("admission_wait_ns", admissionWait)
	}
	if s.ram != nil {
		if lease, ok := s.ram.Get(r.req.Path); ok {
			return r.end(r.ramHit(lease)), true
		}
	}
	// With a device modelled, its wait is server.read's own time:
	// storage.read opens once a hit has waited, or at the miss flight.
	if s.device == nil {
		r.st = r.sp.StartChild("storage.read")
	}
	data, err := s.nvme.Get(r.req.Path)
	switch {
	case err != nil:
		r.next = waitFill
	case s.device != nil:
		r.data, r.next = data, waitDevice
	default:
		return r.end(r.serve(data, SourceNVMe)), true
	}
	return rpc.LeasedResp{}, false
}

// Continue implements rpc.Continuation: the read from its first wait
// on, on a goroutine that may block.
func (r *readOp) Continue(_ uint16, payload []byte, connWait time.Duration) rpc.LeasedResp {
	defer func() {
		r.unwind()
		*r = readOp{}
		readOps.Put(r)
	}()
	s := r.s
	if r.next == waitAdmission {
		ok, wait := s.limiter.AwaitSlot()
		if !ok {
			return rpc.LeasedResp{Status: StatusOverloaded}
		}
		r.slot = true
		if lr, done := r.probe(payload, connWait, wait); done {
			return lr
		}
	} else if connWait > 0 {
		r.sp.AnnotateDuration("conn_queue_ns", connWait)
	}
	if r.next == waitDevice {
		// One blocking wait covers slot queueing and service; the queue
		// share is what the device computed at admission, so reporting it
		// costs the untraced path (sp == nil) no clock read. The slice is
		// the one the index probe found: stored bytes are immutable, so an
		// eviction or replacement during the wait changes nothing it serves.
		r.sp.AnnotateDuration("device_wait_ns", s.device.Read(int64(len(r.data))))
		r.st = r.sp.StartChild("storage.read")
		return r.end(r.serve(r.data, SourceNVMe))
	}
	if r.st == nil {
		r.st = r.sp.StartChild("storage.read")
	}
	data, err, shared := s.fill.Do(s.baseCtx, r.req.Path, (*missFetcher)(s))
	if shared {
		r.st.Annotate("coalesced", "true")
	}
	if err != nil {
		r.st.SetErrorString("not found")
		r.st.End()
		r.sp.SetErrorString("not found")
		return r.end(rpc.LeasedResp{Status: StatusNotFound, Head: []byte(r.req.Path)})
	}
	return r.end(r.serve(data, SourcePFS))
}

// ramHit serves a RAM hit: no device-slot wait, no storage read. The
// lease rides the response and is released only after the flush.
func (r *readOp) ramHit(lease *memtier.Lease) rpc.LeasedResp {
	hs := r.sp.StartChild("memtier.hit")
	body, inRange := slice(lease.Bytes(), r.req.Offset, r.req.Length)
	if !inRange {
		lease.Release()
		hs.SetErrorString("range out of bounds")
		hs.End()
		r.sp.SetErrorString("range out of bounds")
		return rpc.LeasedResp{Status: StatusError, Head: []byte("range out of bounds")}
	}
	hs.AnnotateInt("bytes", int64(len(body)))
	hs.End()
	r.s.ramServed.Add(1)
	resp := ReadResp{Source: SourceRAM, FileSize: lease.Size(), Data: body}
	return rpc.LeasedResp{Status: rpc.StatusOK, Head: resp.marshalHead(), Ext: body, Release: lease.Release}
}

// serve answers with a stored object, offering it to the RAM tier.
func (r *readOp) serve(data []byte, source uint8) rpc.LeasedResp {
	if r.s.ram != nil && r.s.promote(r.req.Path, data) {
		r.st.Annotate("promoted", "ram")
	}
	r.st.Annotate("source", sourceName(source))
	r.st.End()
	body, ok := slice(data, r.req.Offset, r.req.Length)
	if !ok {
		r.sp.SetErrorString("range out of bounds")
		return rpc.LeasedResp{Status: StatusError, Head: []byte("range out of bounds")}
	}
	resp := ReadResp{Source: source, FileSize: int64(len(data)), Data: body}
	return rpc.LeasedResp{Status: rpc.StatusOK, Head: resp.marshalHead(), Ext: body}
}

// end closes the read: its span ends and its admission slot, if it
// holds one, is released.
func (r *readOp) end(lr rpc.LeasedResp) rpc.LeasedResp {
	r.sp.End()
	if r.slot {
		r.slot = false
		r.s.limiter.Release()
	}
	return lr
}

// unwind, deferred by both stages, ends a read a panic cut short — the
// RPC server recovers the panic and answers the one request with an
// error, and the read must not keep its admission slot, or every such
// bug would shrink the node's read capacity for good. After a read
// ended or parked there is nothing left to do: spans end once, and the
// slot is gone.
func (r *readOp) unwind() {
	r.st.End()
	r.end(rpc.LeasedResp{})
}

// missFetcher is the body of the miss flight; the pointer conversion
// keeps the per-miss path free of a closure allocation.
type missFetcher Server

// Fetch implements loadctl.Fetcher as the flight leader: one PFS read
// and one NVMe fill, offered (under the admission rule) before the
// flight completes, however many demand reads and prefetches piled onto
// it. The returned bytes are shared read-only with every waiter.
func (f *missFetcher) Fetch(_ context.Context, path string) ([]byte, error) {
	s := (*Server)(f)
	// A caller that missed just before an earlier flight for path landed
	// its fill leads a new flight; the object is already here.
	if data, ok := s.nvme.Peek(path); ok {
		return data, nil
	}
	data, err := s.pfs.Get(path)
	if err != nil {
		return nil, err
	}
	s.pfsFallbacks.Add(1)
	telemetry.TraceEvent(telemetry.EventPFSFallback, string(s.cfg.Node), path, int64(len(data)))
	// An object too large to cache is still served; the mover counts the
	// failed fill. Only this fill is traced: puts and RAM demotions also
	// store through the mover, and an event each would flush the bounded
	// trace of the failure events around them.
	if s.mover.OfferSync(path, data) {
		telemetry.TraceEvent(telemetry.EventRecacheFileDone, string(s.cfg.Node), path, int64(len(data)))
	}
	return data, nil
}

// prefetch is the recache stage's fetch: it makes one hinted path
// resident through the miss flight — joining a demand read's fetch if
// one is open — and reports the bytes brought in. A path either tier
// already holds costs a map probe or two. A hinted path's fill always
// lands (Mover.OfferSync); one whose hint came after the flight's leader
// chose is stored here, so a lost file costs one PFS read.
func (s *Server) prefetch(path string) (int, bool) {
	if s.resident(path) {
		return 0, false
	}
	_, sp := trace.StartTrace(s.baseCtx, "mover.recache")
	sp.Annotate("node", string(s.cfg.Node))
	sp.Annotate("path", path)
	data, err, _ := s.fill.Do(s.baseCtx, path, (*missFetcher)(s))
	if err == nil && !s.resident(path) {
		s.mover.keep(path, data)
	}
	sp.SetError(err)
	sp.End()
	return len(data), err == nil
}

// handleRecache accepts one chunk of a recache plan: paths this node
// inherited from a failed one, queued for prefetch. The acknowledgement
// says only that the hint arrived; how much of it the queue took is the
// mover's counters' business.
func (s *Server) handleRecache(payload []byte) (uint16, []byte) {
	var req RecacheReq
	if err := req.Unmarshal(payload); err != nil {
		return StatusError, []byte(err.Error())
	}
	s.mover.Recache(req.Failed, req.Paths)
	return rpc.StatusOK, nil
}

// sourceName renders a read source for span annotations.
func sourceName(source uint8) string {
	switch source {
	case SourcePFS:
		return "pfs"
	case SourceRAM:
		return "ram"
	}
	return "nvme"
}

// slice extracts [off, off+length) of data; length < 0 means to EOF.
func slice(data []byte, off, length int64) ([]byte, bool) {
	if off < 0 || off > int64(len(data)) {
		return nil, false
	}
	if length < 0 {
		return data[off:], true
	}
	end := off + length
	if end > int64(len(data)) {
		end = int64(len(data))
	}
	return data[off:end], true
}

func (s *Server) handleStat(payload []byte) (uint16, []byte) {
	var req StatReq
	if err := req.Unmarshal(payload); err != nil {
		return StatusError, []byte(err.Error())
	}
	// Metadata only: a stat must not look like a read to either tier's
	// counters, refresh LRU recency, or pay the PFS read delay.
	size, cached := s.cachedSize(req.Path)
	if !cached {
		var ok bool
		if size, ok = s.pfs.Size(req.Path); !ok {
			return StatusNotFound, []byte(req.Path)
		}
	}
	resp := StatResp{Size: size, Cached: cached}
	return rpc.StatusOK, resp.Marshal()
}

func (s *Server) handleStats() (uint16, []byte) {
	objs, bytes := s.nvme.Stats()
	hits, misses, _ := s.nvme.Counters()
	enq, drop := s.mover.Counters()
	resp := StatsResp{
		NVMeObjects:   int64(objs),
		NVMeBytes:     bytes,
		NVMeHits:      hits,
		NVMeMisses:    misses,
		PFSFallbacks:  s.pfsFallbacks.Load(),
		MoverEnqueued: enq,
		MoverDropped:  drop,
	}
	return rpc.StatusOK, resp.Marshal()
}

func (s *Server) handleInvalidate(payload []byte) (uint16, []byte) {
	var req StatReq
	if err := req.Unmarshal(payload); err != nil {
		return StatusError, []byte(err.Error())
	}
	if s.ram != nil {
		s.ram.Invalidate(req.Path)
	}
	s.nvme.Delete(req.Path)
	return rpc.StatusOK, nil
}
