// Package telemetry is the observability layer of the FT-Cache stack:
// a dependency-free (stdlib-only) metrics registry built so that the
// *write* side — the read hot path instrumented in rpc, storage,
// hashring and hvac — is wait-free and allocation-free, while the
// *read* side (a Prometheus scrape or a /debug snapshot) never takes a
// lock the hot path contends on.
//
// Primitives:
//
//   - Counter / Gauge: single atomic words. Incrementing costs the same
//     as the ad-hoc atomic stats counters the repo already kept.
//   - Histogram (histogram.go): striped, lock-free, fixed log-scale
//     buckets — Observe is one atomic add into a stripe picked from the
//     caller's stack address, so concurrent observers do not share a
//     cache line.
//   - EventTrace (events.go): a bounded ring buffer of structured
//     fault-tolerance events (node-suspected, node-declared-dead,
//     ring-membership-change, recache-planned, recache-file-done,
//     pfs-fallback, recache-complete). Events are rare (failure-path only), so a small
//     mutex is acceptable there.
//
// Metrics are registered once (start-up or first use, via sync.Once in
// the instrumented package) and the returned handle is stored; the hot
// path never touches the registry map. CounterFunc/GaugeFunc register a
// callback evaluated only at scrape time, which lets existing atomic
// counters (storage.NVMe hits, mover drop counts, …) surface with zero
// added hot-path cost. Scrape-time callbacks must themselves be
// lock-free reads (atomic loads) — every provider in this repo is.
//
// A process-wide Default registry wires the whole stack together: every
// instrumented layer publishes into it, ftcserver serves it over HTTP
// (http.go), and the benchmark suite (bench/) reads it after each run.
// Tests that need isolation construct private registries.
package telemetry

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// enabled gates the non-trivial write paths (histogram observations and
// event emission). Counters and gauges stay live regardless — they are
// single atomic adds, no cheaper off than on. rpc's round-trip alloc
// ceiling and the before/after benchmarks toggle this.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns histogram observation and event tracing on or off
// process-wide. Used by the telemetry-overhead benchmarks; production
// code leaves it on.
func SetEnabled(v bool) { enabled.Store(v) }

// Enabled reports whether histogram/event telemetry is active.
func Enabled() bool { return enabled.Load() }

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for Prometheus counter semantics).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// metricKind discriminates registry entries.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindCounterFunc
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// metricEntry is one registered series: a base name plus a rendered
// label set.
type metricEntry struct {
	name   string
	labels string // `k="v",k2="v2"` without braces; "" when unlabeled
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() int64 // kindCounterFunc / kindGaugeFunc; swappable
}

// Registry holds named metrics, an event trace, and debug-snapshot
// providers. All methods are goroutine-safe. Registration takes the
// registry mutex; the returned handles never do.
type Registry struct {
	mu      sync.Mutex
	byKey   map[string]*metricEntry
	entries []*metricEntry // registration order (stable output)

	trace *EventTrace

	debugMu sync.Mutex
	debug   map[string]func() any

	controlMu sync.Mutex
	control   map[string]func(arg string) error
}

// NewRegistry creates an empty registry with a DefaultTraceCapacity
// event trace.
func NewRegistry() *Registry {
	return &Registry{
		byKey:   make(map[string]*metricEntry),
		trace:   NewEventTrace(DefaultTraceCapacity),
		debug:   make(map[string]func() any),
		control: make(map[string]func(arg string) error),
	}
}

var std = NewRegistry()

// Default returns the process-wide registry every instrumented layer
// publishes into.
func Default() *Registry { return std }

// renderLabels turns pairs (k1, v1, k2, v2, ...) into a canonical
// `k1="v1",k2="v2"` string, sorted by key so the same label set always
// identifies the same series. Panics on an odd pair count — labels are
// developer-provided, never data-driven.
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic("telemetry: odd label pair count")
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup returns the entry for (name, labels), creating it with mk when
// absent. It panics when the existing entry has a different kind —
// metric names are a global namespace and a kind clash is a bug.
func (r *Registry) lookup(name string, kind metricKind, labelPairs []string, mk func(*metricEntry)) *metricEntry {
	labels := renderLabels(labelPairs)
	key := name + "{" + labels + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byKey[key]; ok {
		if e.kind != kind {
			panic("telemetry: metric " + name + " re-registered as a different kind")
		}
		return e
	}
	e := &metricEntry{name: name, labels: labels, kind: kind}
	mk(e)
	r.byKey[key] = e
	r.entries = append(r.entries, e)
	return e
}

// Counter returns (registering on first use) the counter for name and
// the optional label pairs (k1, v1, k2, v2, ...).
func (r *Registry) Counter(name string, labelPairs ...string) *Counter {
	e := r.lookup(name, kindCounter, labelPairs, func(e *metricEntry) {
		e.counter = &Counter{}
	})
	return e.counter
}

// Gauge returns (registering on first use) the gauge for name/labels.
func (r *Registry) Gauge(name string, labelPairs ...string) *Gauge {
	e := r.lookup(name, kindGauge, labelPairs, func(e *metricEntry) {
		e.gauge = &Gauge{}
	})
	return e.gauge
}

// Histogram returns (registering on first use) the histogram for
// name/labels. Histograms record int64 nanoseconds and render as
// seconds; name them *_seconds.
func (r *Registry) Histogram(name string, labelPairs ...string) *Histogram {
	e := r.lookup(name, kindHistogram, labelPairs, func(e *metricEntry) {
		e.hist = &Histogram{}
	})
	return e.hist
}

// CounterFunc registers fn as a scrape-time counter. Re-registering the
// same series swaps in the new callback (latest wins) — a revived
// server re-binds its funcs to the fresh instance's state.
func (r *Registry) CounterFunc(name string, fn func() int64, labelPairs ...string) {
	e := r.lookup(name, kindCounterFunc, labelPairs, func(e *metricEntry) {})
	r.mu.Lock()
	e.fn = fn
	r.mu.Unlock()
}

// GaugeFunc registers fn as a scrape-time gauge; latest wins like
// CounterFunc.
func (r *Registry) GaugeFunc(name string, fn func() int64, labelPairs ...string) {
	e := r.lookup(name, kindGaugeFunc, labelPairs, func(e *metricEntry) {})
	r.mu.Lock()
	e.fn = fn
	r.mu.Unlock()
}

// Trace returns the registry's event trace.
func (r *Registry) Trace() *EventTrace { return r.trace }

// TraceEvent emits a structured event into the Default registry's
// trace — the one-liner the instrumented layers use.
func TraceEvent(typ EventType, node, detail string, value int64) {
	std.trace.Emit(typ, node, detail, value)
}

// RegisterDebug attaches a named section provider to the /debug/ftcache
// snapshot. fn is evaluated at snapshot time and must be goroutine-safe
// and lock-light. Re-registering a name replaces the provider (latest
// wins).
func (r *Registry) RegisterDebug(name string, fn func() any) {
	r.debugMu.Lock()
	r.debug[name] = fn
	r.debugMu.Unlock()
}

// RegisterControl attaches a named operator action, served as
// POST /control/<name>?arg=... by the HTTP handler (ftcctl policy
// -force is the canonical caller). fn must be goroutine-safe; its error
// is returned to the HTTP client verbatim. Re-registering a name
// replaces the handler (latest wins), mirroring RegisterDebug.
func (r *Registry) RegisterControl(name string, fn func(arg string) error) {
	r.controlMu.Lock()
	r.control[name] = fn
	r.controlMu.Unlock()
}

// controlHandler returns the named control action, or nil.
func (r *Registry) controlHandler(name string) func(arg string) error {
	r.controlMu.Lock()
	defer r.controlMu.Unlock()
	return r.control[name]
}

// debugSections evaluates every provider outside the registry locks.
func (r *Registry) debugSections() map[string]any {
	r.debugMu.Lock()
	fns := make(map[string]func() any, len(r.debug))
	for k, v := range r.debug {
		fns[k] = v
	}
	r.debugMu.Unlock()
	out := make(map[string]any, len(fns))
	for k, fn := range fns {
		out[k] = fn()
	}
	return out
}

// MetricValue is one series in a registry snapshot.
type MetricValue struct {
	Name   string
	Labels string // canonical `k="v"` list, "" when unlabeled
	Kind   string // "counter" | "gauge" | "histogram"
	Value  int64  // counters and gauges
	Hist   *HistogramSnapshot
}

// Snapshot captures every registered series. Callback metrics are
// evaluated outside the registry lock.
func (r *Registry) Snapshot() []MetricValue {
	r.mu.Lock()
	entries := make([]*metricEntry, len(r.entries))
	copy(entries, r.entries)
	fns := make([]func() int64, len(entries))
	for i, e := range entries {
		fns[i] = e.fn
	}
	r.mu.Unlock()

	out := make([]MetricValue, 0, len(entries))
	for i, e := range entries {
		mv := MetricValue{Name: e.name, Labels: e.labels, Kind: e.kind.String()}
		switch e.kind {
		case kindCounter:
			mv.Value = e.counter.Load()
		case kindGauge:
			mv.Value = e.gauge.Load()
		case kindCounterFunc, kindGaugeFunc:
			if fns[i] != nil {
				mv.Value = fns[i]()
			}
		case kindHistogram:
			s := e.hist.Snapshot()
			mv.Hist = &s
		}
		out = append(out, mv)
	}
	return out
}
