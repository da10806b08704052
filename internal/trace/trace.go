// Package trace is the per-request causal tracing layer of the FT-Cache
// reproduction: a low-overhead span recorder in the spirit of the
// lock-free telemetry registry (PR 2), built for the question the
// metrics cannot answer — *why* did this read's p99 move: queueing,
// hedging, retries, or a PFS fallback?
//
// Design points (DESIGN.md §14):
//
//   - Disabled is free. A process-wide atomic gate guards every entry
//     point; with tracing off, Start* returns a nil *Span after one
//     atomic load, and every Span method is nil-safe, so instrumented
//     hot paths carry no locks, no allocation, and no time syscalls.
//   - Context propagation in-process, ids on the wire. A span travels
//     through a request DAG via context.Context; across the RPC
//     boundary only the (TraceID, parent SpanID) pair is carried, as an
//     optional versioned payload extension (wire.TraceExt). A server
//     records its handler spans as a *fragment* — a trace with the
//     client's TraceID rooted at the client's span — into its own
//     node-local flight recorder; fragments are stitched by TraceID at
//     export time.
//   - Completed traces, not live spans, are the unit of collection: a
//     root span's End assembles its finished children and offers the
//     trace to the flight recorder (recorder.go), which applies
//     head + tail sampling. Spans that outlive their root (abandoned
//     hedge legs) are dropped — by then the race has been decided and
//     the winner's timing recorded.
//
// Determinism: span ids come from a seedable splitmix64 counter
// (SeedIDs), so a seeded replay produces identical ids, and Canonical
// export (recorder.go) strips timings entirely — the byte-identical
// replay artifact chaos soaks assert on.
package trace

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one logical request end-to-end (all fragments of
// one request share it). Zero means "no trace".
type TraceID uint64

// SpanID identifies one span within a trace. Zero means "no span".
type SpanID uint64

// enabled is the process-wide gate. All Start* entry points check it
// first; everything downstream is nil-safe, so flipping it at runtime
// is safe (in-flight traces complete normally).
var enabled atomic.Bool

// SetEnabled turns span recording on or off process-wide.
func SetEnabled(v bool) { enabled.Store(v) }

// Enabled reports whether span recording is on.
//
//ftc:hotpath
func Enabled() bool { return enabled.Load() }

// idState is the seedable id generator: a splitmix64 walk from a seed.
// One atomic add per id, no locks; never yields zero.
var idState atomic.Uint64

func init() {
	idState.Store(uint64(time.Now().UnixNano()) | 1)
}

// SeedIDs makes id generation deterministic from seed — seeded soaks
// and replay tests call it so trace/span ids are identical run to run.
func SeedIDs(seed int64) { idState.Store(uint64(seed)*0x9E3779B97F4A7C15 + 1) }

// nextID mints a non-zero id (splitmix64 output of an atomic counter).
//
//ftc:hotpath
func nextID() uint64 {
	z := idState.Add(0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// Annotation is one key/value note on a span. Values are strings so
// exports are stable and the canonical form needs no type dispatch.
type Annotation struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// SpanRecord is one completed span as it appears in an exported trace.
type SpanRecord struct {
	ID          SpanID        `json:"id"`
	Parent      SpanID        `json:"parent,omitempty"`
	Name        string        `json:"name"`
	Start       time.Time     `json:"start"`
	Duration    time.Duration `json:"duration_ns"`
	Annotations []Annotation  `json:"annotations,omitempty"`
	Err         string        `json:"err,omitempty"`
}

// Trace is one completed trace (or node-local fragment of one): the
// unit the flight recorder stores and /debug/traces exports.
type Trace struct {
	ID TraceID `json:"trace_id"`
	// Root is the root span's name (the fragment's entry point).
	Root string `json:"root"`
	// Remote marks a server-side fragment: the root span's Parent is a
	// span id minted by another node.
	Remote   bool          `json:"remote,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	// Err reports whether any span in the fragment recorded an error —
	// the error-class bit tail sampling always retains.
	Err   bool         `json:"err,omitempty"`
	Spans []SpanRecord `json:"spans"`
}

// traceData is the mutable spine shared by every live span of one
// fragment. Completed spans append under mu; the root's End snapshots
// and seals it. Contention is negligible: spans of one request complete
// a handful at a time.
type traceData struct {
	id       TraceID
	remote   bool
	recorder *Recorder

	mu     sync.Mutex
	sealed bool
	errs   int
	spans  []SpanRecord
}

// Span is one live span. The nil *Span is the disabled/no-trace form:
// every method no-ops on it, so call sites never branch on enablement.
type Span struct {
	tr     *traceData
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	annots []Annotation
	err    string
	root   bool
	ended  bool
}

// ctxKey carries the current *Span through a request DAG.
type ctxKey struct{}

// NewContext returns ctx carrying s.
func NewContext(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// ContextIDs returns the wire-propagation pair for the span in ctx:
// (trace id, span id, true), or zeros when ctx carries no live span.
//
//ftc:hotpath
func ContextIDs(ctx context.Context) (TraceID, SpanID, bool) {
	s := FromContext(ctx)
	if s == nil || s.tr == nil {
		return 0, 0, false
	}
	return s.tr.id, s.id, true
}

// StartTrace begins a new trace rooted at a span called name and
// returns ctx carrying it. With tracing disabled it returns (ctx, nil)
// after one atomic load; with a recorder installed, the recorder's
// creation-time sample rate decides by trace id whether this request
// traces at all — the unsampled path costs one atomic add and takes no
// clock reading. The returned span must be ended on all paths.
func StartTrace(ctx context.Context, name string) (context.Context, *Span) {
	if !enabled.Load() {
		return ctx, nil
	}
	rec := activeRecorder()
	id := nextID()
	if rec != nil && !rec.sampleTrace(id) {
		return ctx, nil
	}
	tr := &traceData{id: TraceID(id), recorder: rec}
	s := &Span{tr: tr, id: SpanID(nextID()), name: name, start: time.Now(), root: true}
	return NewContext(ctx, s), s
}

// StartRemote begins a server-side fragment of trace tid, rooted at a
// span called name whose parent is the client's span. It returns nil
// with tracing disabled or when tid is zero (the request carried no
// context).
func StartRemote(name string, tid TraceID, parent SpanID) *Span {
	if !enabled.Load() || tid == 0 {
		return nil
	}
	tr := &traceData{id: tid, remote: true, recorder: activeRecorder()}
	return &Span{tr: tr, id: SpanID(nextID()), parent: parent, name: name, start: time.Now(), root: true}
}

// StartSpan begins a child of the span in ctx and returns ctx carrying
// the child. Without a live span in ctx (or with tracing disabled) it
// returns (ctx, nil).
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil || parent.tr == nil {
		return ctx, nil
	}
	s := &Span{tr: parent.tr, id: SpanID(nextID()), parent: parent.id, name: name, start: time.Now()}
	return NewContext(ctx, s), s
}

// StartChild begins a child span without context plumbing — for
// synchronous server handlers that never fan out.
func (s *Span) StartChild(name string) *Span {
	if s == nil || s.tr == nil {
		return nil
	}
	return &Span{tr: s.tr, id: SpanID(nextID()), parent: s.id, name: name, start: time.Now()}
}

// ID returns the span's id (zero on nil).
func (s *Span) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// TraceID returns the owning trace's id (zero on nil).
func (s *Span) TraceID() TraceID {
	if s == nil || s.tr == nil {
		return 0
	}
	return s.tr.id
}

// Annotate attaches a key/value note. Annotations are owned by the
// span's goroutine until End, so no lock is taken.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.annots = append(s.annots, Annotation{Key: key, Value: value})
}

// AnnotateInt attaches an integer-valued note.
func (s *Span) AnnotateInt(key string, v int64) {
	if s == nil {
		return
	}
	s.annots = append(s.annots, Annotation{Key: key, Value: strconv.FormatInt(v, 10)})
}

// AnnotateDuration attaches a duration-valued note in nanoseconds.
// Timing annotations are stripped from the canonical export along with
// every other timing.
func (s *Span) AnnotateDuration(key string, d time.Duration) {
	if s == nil {
		return
	}
	s.annots = append(s.annots, Annotation{Key: key, Value: strconv.FormatInt(int64(d), 10)})
}

// SetError marks the span failed. Any failed span makes its whole
// fragment error-class, which tail sampling always retains.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.err = err.Error()
}

// SetErrorString marks the span failed with a literal message.
func (s *Span) SetErrorString(msg string) {
	if s == nil {
		return
	}
	s.err = msg
}

// End completes the span. Ending a child appends its record to the
// fragment; ending the root seals the fragment and offers it to the
// flight recorder. End is idempotent; a child ending after its root
// sealed (an abandoned hedge leg) is dropped.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	rec := SpanRecord{
		ID:          s.id,
		Parent:      s.parent,
		Name:        s.name,
		Start:       s.start,
		Duration:    time.Since(s.start),
		Annotations: s.annots,
		Err:         s.err,
	}
	tr := s.tr
	tr.mu.Lock()
	if tr.sealed {
		tr.mu.Unlock()
		return
	}
	if s.err != "" {
		tr.errs++
	}
	tr.spans = append(tr.spans, rec)
	if !s.root {
		tr.mu.Unlock()
		return
	}
	tr.sealed = true
	spans := tr.spans
	errs := tr.errs
	tr.mu.Unlock()

	t := &Trace{
		ID:       tr.id,
		Root:     s.name,
		Remote:   tr.remote,
		Start:    s.start,
		Duration: rec.Duration,
		Err:      errs > 0,
		Spans:    spans,
	}
	if r := tr.recorder; r != nil {
		r.Offer(t)
	}
}
