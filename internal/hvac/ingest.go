package hvac

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Ingest defaults (see IngestConfig).
const (
	DefaultMaxBatchEntries = 64
	DefaultMaxBatchBytes   = 256 << 10
	DefaultMaxBatchDelay   = 2 * time.Millisecond
	defaultIngestQueue     = 4
)

// IngestConfig enables the batched async ingest pipeline: PutAsync
// buffers objects per destination node and ships them as OpPutBatch
// frames, amortizing one RPC round-trip (and, underneath, one coalesced
// socket write) over many objects. nil leaves the client put path
// exactly as before — every put is its own synchronous OpPut.
type IngestConfig struct {
	// MaxBatchEntries flushes a batch when it holds this many objects.
	// <= 0 selects DefaultMaxBatchEntries.
	MaxBatchEntries int
	// MaxBatchBytes flushes a batch when its encoded payload exceeds
	// this size. <= 0 selects DefaultMaxBatchBytes. A single object
	// larger than the bound still ships (as a one-entry batch).
	MaxBatchBytes int
	// MaxDelay bounds how long a buffered object may wait for
	// batch-mates before an age flush. <= 0 selects
	// DefaultMaxBatchDelay.
	MaxDelay time.Duration
	// QueueDepth bounds sealed batches waiting on each node's sender.
	// When full, PutAsync blocks — enqueue-rate backpressure instead of
	// unbounded buffering. <= 0 selects 4.
	QueueDepth int
}

func (cfg IngestConfig) withDefaults() IngestConfig {
	if cfg.MaxBatchEntries <= 0 {
		cfg.MaxBatchEntries = DefaultMaxBatchEntries
	}
	if cfg.MaxBatchBytes <= 0 {
		cfg.MaxBatchBytes = DefaultMaxBatchBytes
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = DefaultMaxBatchDelay
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = defaultIngestQueue
	}
	return cfg
}

// ErrIngestClosed reports a put against a closed client.
var ErrIngestClosed = errors.New("hvac: ingest pipeline closed")

// ingestBufPool recycles batch encode buffers across batches. A building
// batch would otherwise allocate up to MaxBatchBytes each time it is
// created — at full ingest rate that is hundreds of MB/s of garbage, and
// the GC churn costs more than the round trips batching saves. Buffers
// start small and grow to the steady-state batch size once.
var ingestBufPool = sync.Pool{New: func() any { return wire.NewBuffer(8 << 10) }}

// Flush reasons, recorded per sealed batch so the telemetry shows
// whether the pipeline runs full (size), trickles (age), or is driven
// by explicit barriers (sync).
const (
	flushReasonSize = iota
	flushReasonAge
	flushReasonSync
)

func flushReasonName(reason int) string {
	switch reason {
	case flushReasonSize:
		return "size"
	case flushReasonAge:
		return "age"
	default:
		return "sync"
	}
}

// ingestBatch is one sealed-or-building batch bound for a node. The
// payload is encoded at enqueue time straight into enc (count prefix
// patched at seal), so flushing is a pointer handoff, not an O(bytes)
// re-encode under a lock.
type ingestBatch struct {
	enc   *wire.Buffer
	paths []string // request-ordered, for per-entry error reporting
	done  chan struct{}
	err   error // batch-level failure; set before done closes
	// span is the batch's root trace ("ingest.batch"): one per flush
	// generation, nil with tracing off. Access is sequential across the
	// batch's lifecycle (build/seal under the worker lock, then the
	// sender after the channel handoff), never concurrent. Per-entry
	// spans are deliberately avoided — a batch can hold thousands of
	// objects, and the generation is the unit that queues, ships, and
	// acks.
	span *trace.Span
}

func (b *ingestBatch) entries() int { return len(b.paths) }

// appendWorker is the per-destination-node ingest worker: a building
// batch, a bounded queue of sealed batches, and one lazily started
// sender goroutine that ships them in order.
type appendWorker struct {
	ing  *ingester
	node cluster.NodeID
	ch   chan *ingestBatch // nil element = shutdown sentinel

	mu      sync.Mutex
	cur     *ingestBatch
	timer   *time.Timer    // age-flush timer for cur; nil when cur empty
	unacked []*ingestBatch // sealed, not yet acked (pruned lazily)
	closed  bool

	senderDone chan struct{}
}

// ingester owns the per-node append workers and the collected flush
// errors of one client.
type ingester struct {
	c   *Client
	cfg IngestConfig

	mu      sync.Mutex
	workers map[cluster.NodeID]*appendWorker
	closed  bool

	errMu    sync.Mutex
	firstErr error // first flush failure since the last Flush
}

func newIngester(c *Client, cfg IngestConfig) *ingester {
	return &ingester{c: c, cfg: cfg.withDefaults(), workers: make(map[cluster.NodeID]*appendWorker)}
}

func (in *ingester) worker(node cluster.NodeID) (*appendWorker, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return nil, ErrIngestClosed
	}
	w, ok := in.workers[node]
	if !ok {
		w = &appendWorker{
			ing:        in,
			node:       node,
			ch:         make(chan *ingestBatch, in.cfg.QueueDepth),
			senderDone: make(chan struct{}),
		}
		go w.sender()
		in.workers[node] = w
	}
	return w, nil
}

// enqueue buffers one object for node, copying data into the batch's
// wire encoding immediately (the caller's slice is not retained). It
// blocks only when the node's sealed-batch queue is full.
func (in *ingester) enqueue(node cluster.NodeID, path string, data []byte) error {
	w, err := in.worker(node)
	if err != nil {
		return err
	}
	return w.enqueue(path, data)
}

func (w *appendWorker) enqueue(path string, data []byte) error {
	cfg := w.ing.cfg
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrIngestClosed
	}
	if w.cur == nil {
		enc := ingestBufPool.Get().(*wire.Buffer)
		enc.Reset()
		w.cur = &ingestBatch{
			enc:  enc,
			done: make(chan struct{}),
		}
		// A detached root per batch: the batch aggregates puts from many
		// callers, so no single caller's trace can parent it. Starting at
		// batch creation makes the span duration cover build + queue +
		// send — the full latency an object can see inside the pipeline.
		//ftclint:ignore ctxflow detached root by design, per the comment above: a batch aggregates many callers, so none of their traces can parent it
		_, w.cur.span = trace.StartTrace(context.Background(), "ingest.batch")
		w.cur.span.Annotate("node", string(w.node))
		// 4-byte count placeholder, patched at seal.
		w.cur.enc.U32(0)
		w.timer = time.AfterFunc(cfg.MaxDelay, w.flushAge)
	}
	EncodePutEntry(w.cur.enc, path, data)
	w.cur.paths = append(w.cur.paths, path)
	cliMetrics().ingestEntries.Inc()
	if w.cur.entries() >= cfg.MaxBatchEntries || w.cur.enc.Len() >= cfg.MaxBatchBytes {
		//ftclint:ignore lockorder sealLocked's queue send is safe under mu: the sender drains w.ch without ever taking the worker lock
		w.sealLocked(flushReasonSize)
	}
	return nil
}

// flushAge is the age-timer callback: ship whatever is buffered so no
// object waits longer than MaxDelay for batch-mates.
func (w *appendWorker) flushAge() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cur != nil && !w.closed {
		//ftclint:ignore lockorder sealLocked's queue send is safe under mu: the sender drains w.ch without ever taking the worker lock
		w.sealLocked(flushReasonAge)
	}
}

// sealLocked finishes the building batch and hands it to the sender.
// The queue send may block (bounded in-flight batches); the sender
// needs no worker lock to drain, so the send always completes.
func (w *appendWorker) sealLocked(reason int) {
	b := w.cur
	w.cur = nil
	if w.timer != nil {
		w.timer.Stop()
		w.timer = nil
	}
	binary.LittleEndian.PutUint32(b.enc.Bytes()[:4], uint32(b.entries()))
	if b.span != nil {
		b.span.Annotate("flush", flushReasonName(reason))
		b.span.AnnotateInt("entries", int64(b.entries()))
		// The ext rides after the entries; PutBatchReq decodes it as the
		// optional trailer, so the server's handler span joins this trace.
		b.enc.AppendTraceExt(wire.TraceExt{TraceID: uint64(b.span.TraceID()), SpanID: uint64(b.span.ID())})
	}
	// Prune acked batches so unacked doesn't grow without bound on a
	// long-lived worker that is never explicitly flushed.
	kept := w.unacked[:0]
	for _, u := range w.unacked {
		select {
		case <-u.done:
		default:
			kept = append(kept, u)
		}
	}
	w.unacked = append(kept, b)
	m := cliMetrics()
	m.ingestBatches.Inc()
	m.ingestBatchEntries.Observe(int64(b.entries()))
	switch reason {
	case flushReasonSize:
		m.ingestFlushSize.Inc()
	case flushReasonAge:
		m.ingestFlushAge.Inc()
	case flushReasonSync:
		m.ingestFlushSync.Inc()
	}
	w.ch <- b
}

// sender ships sealed batches in order until it receives the shutdown
// sentinel. One goroutine per destination node: batches to one node
// serialize (preserving put order per node), batches to different nodes
// overlap.
func (w *appendWorker) sender() {
	defer close(w.senderDone)
	for b := range w.ch {
		if b == nil {
			return
		}
		w.send(b)
	}
}

func (w *appendWorker) send(b *ingestBatch) {
	defer close(b.done)
	defer func() {
		b.span.SetError(b.err)
		b.span.End()
	}()
	// The encoding is consumed by the time Call returns (the frame is
	// copied into the coalesced write buffer); recycle it. Only done/err
	// are read after this point.
	defer func() {
		enc := b.enc
		b.enc = nil
		ingestBufPool.Put(enc)
	}()
	c := w.ing.c
	m := cliMetrics()
	// failBatch records a whole-batch failure: every entry is unacked,
	// so the error counter moves by the batch's entry count, keeping
	// ingestErrors in objects — the same unit as ingestEntries.
	failBatch := func(err error) {
		b.err = err
		m.ingestErrors.Add(int64(b.entries()))
		w.ing.recordErr(err)
	}
	// The sender outlives every enqueueing caller, so the call runs under
	// the client's lifetime context; RPCTimeout bounds it.
	payload, status, err := c.callNode(c.baseCtx, w.node, OpPutBatch, b.enc.Bytes())
	if err != nil {
		failBatch(err)
		return
	}
	switch status {
	case rpc.StatusOK:
	case StatusOverloaded:
		failBatch(fmt.Errorf("%w: %s (batch of %d)", ErrOverloaded, w.node, b.entries()))
		return
	default:
		failBatch(fmt.Errorf("hvac: put batch status %d: %s", status, payload))
		return
	}
	var resp PutBatchResp
	if err := resp.Unmarshal(payload); err != nil {
		failBatch(err)
		return
	}
	if len(resp.Statuses) != b.entries() {
		failBatch(fmt.Errorf("hvac: put batch ack count %d, want %d", len(resp.Statuses), b.entries()))
		return
	}
	var firstBad error
	bad := 0
	for i, s := range resp.Statuses {
		if s != rpc.StatusOK {
			bad++
			if firstBad == nil {
				firstBad = fmt.Errorf("hvac: put %s on %s: status %d", b.paths[i], w.node, s)
			}
		}
	}
	b.span.AnnotateInt("acked", int64(b.entries()-bad))
	b.span.AnnotateInt("failed", int64(bad))
	if bad > 0 {
		b.err = firstBad
		m.ingestErrors.Add(int64(bad))
		w.ing.recordErr(firstBad)
	}
}

func (in *ingester) recordErr(err error) {
	in.errMu.Lock()
	if in.firstErr == nil {
		in.firstErr = err
	}
	in.errMu.Unlock()
}

// takeErr returns and clears the first flush failure since the last
// call.
func (in *ingester) takeErr() error {
	in.errMu.Lock()
	defer in.errMu.Unlock()
	err := in.firstErr
	in.firstErr = nil
	return err
}

// barrier seals every building batch (reason sync) and waits until all
// sealed batches have been acked or ctx expires. It does not consume
// collected errors — Flush layers that on top.
func (in *ingester) barrier(ctx context.Context) error {
	in.mu.Lock()
	workers := make([]*appendWorker, 0, len(in.workers))
	for _, w := range in.workers {
		workers = append(workers, w)
	}
	in.mu.Unlock()

	var wait []*ingestBatch
	for _, w := range workers {
		w.mu.Lock()
		if w.cur != nil && !w.closed {
			//ftclint:ignore lockorder sealLocked's queue send is safe under mu: the sender drains w.ch without ever taking the worker lock
			w.sealLocked(flushReasonSync)
		}
		wait = append(wait, w.unacked...)
		w.mu.Unlock()
	}
	for _, b := range wait {
		select {
		case <-b.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// close seals what is buffered, stops every sender, and waits for them
// to exit. In-flight batches fail fast once the client's connections
// drop (Close tears those down first), so this never hangs on a dead
// node.
func (in *ingester) close() {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return
	}
	in.closed = true
	workers := make([]*appendWorker, 0, len(in.workers))
	for _, w := range in.workers {
		workers = append(workers, w)
	}
	in.mu.Unlock()

	for _, w := range workers {
		w.mu.Lock()
		if w.cur != nil {
			//ftclint:ignore lockorder sealLocked's queue send is safe under mu: the sender drains w.ch without ever taking the worker lock
			w.sealLocked(flushReasonSync)
		}
		w.closed = true
		w.mu.Unlock()
		w.ch <- nil // shutdown sentinel; sender drains sealed batches first
	}
	for _, w := range workers {
		<-w.senderDone
	}
}

// PutAsync buffers one object for batched delivery to its ring owner
// (and, with replication enabled, to the ring successors — replica
// pushes ride the same batches). The data slice is encoded immediately
// and not retained. Delivery and errors are deferred: Flush returns the
// first failure since the previous Flush, and the ack-visibility
// guarantee is that once Flush returns nil, every object put since the
// previous barrier is readable from its owner.
//
// Without an IngestConfig the call degrades to the synchronous put.
func (c *Client) PutAsync(path string, data []byte) error {
	if c.closed.Load() {
		return ErrIngestClosed
	}
	owners := c.putOwners(path)
	if len(owners) == 0 {
		return fmt.Errorf("hvac: no owner for %s", path)
	}
	if c.ingest == nil {
		// PutAsync takes no context by contract: the sync fallback runs
		// under the client's lifetime, like the ingest senders.
		return c.Put(c.baseCtx, path, data)
	}
	if err := c.ingest.enqueue(owners[0], path, data); err != nil {
		return err
	}
	c.pushCopies(path, data, owners, false)
	return nil
}

// Put stores one object synchronously on its ring owner: the unbatched
// baseline PutAsync is measured against, and the fallback when no
// ingest pipeline is configured. Replica pushes (with replication
// enabled) stay asynchronous, exactly like the read-path fill.
func (c *Client) Put(ctx context.Context, path string, data []byte) error {
	owners := c.putOwners(path)
	if len(owners) == 0 {
		return fmt.Errorf("hvac: no owner for %s", path)
	}
	if err := c.Push(ctx, owners[0], path, data); err != nil {
		return err
	}
	c.pushCopies(path, data, owners, false)
	return nil
}

// putOwners resolves the destination set of a put: the routed owner,
// extended to the replica set when replication is configured. Empty
// when the router does not currently map the path to a node.
func (c *Client) putOwners(path string) []cluster.NodeID {
	if c.cfg.ReplicationFactor > 1 {
		if owners := c.cfg.Router.Replicas(path, c.cfg.ReplicationFactor); len(owners) > 0 {
			return owners
		}
	}
	d := c.cfg.Router.Route(path)
	if d.Kind != RouteNode {
		return nil
	}
	return []cluster.NodeID{d.Node}
}

// Flush is the ingest barrier: it seals and ships every buffered batch,
// waits for their acks, and returns the first delivery failure since
// the previous Flush (nil with no pipeline configured). When it returns
// nil, every object accepted by PutAsync since the previous barrier is
// readable from its owner — the ack-visibility guarantee batched
// training ingest relies on at epoch boundaries.
func (c *Client) Flush(ctx context.Context) error {
	if c.ingest == nil {
		return nil
	}
	if err := c.ingest.barrier(ctx); err != nil {
		return err
	}
	return c.ingest.takeErr()
}
