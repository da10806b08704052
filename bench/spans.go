package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/trace"
)

// spanKind names a call the generator makes into the program.
type spanKind uint8

const (
	spanRead spanKind = iota
	spanPutAsync
	spanFlush
	spanDetect // Cluster.Fail until the last client declared the node failed
	spanRejoin
)

var spanKindNames = [...]string{"read", "put_async", "flush", "detect", "rejoin"}

// benchSpan is one benchmark-side span: the call as its caller saw it.
type benchSpan struct {
	kind  spanKind
	start int64 // UnixNano
	dur   int64 // ns
}

// spanLog is one goroutine's benchmark-side spans, kept in memory until
// the pass ends. A nil log is an untraced pass: add is a nil check.
type spanLog struct{ spans []benchSpan }

func newSpanLog(traced bool, capacity int) *spanLog {
	if !traced {
		return nil
	}
	return &spanLog{spans: make([]benchSpan, 0, capacity)}
}

// newSpanLogs returns one log per worker.
func newSpanLogs(traced bool, capacity int) []*spanLog {
	logs := make([]*spanLog, workers())
	for w := range logs {
		logs[w] = newSpanLog(traced, capacity)
	}
	return logs
}

func (l *spanLog) add(kind spanKind, start time.Time, d time.Duration) {
	if l != nil {
		l.spans = append(l.spans, benchSpan{kind, start.UnixNano(), int64(d)})
	}
}

func (l *spanLog) reset() {
	if l != nil {
		l.spans = l.spans[:0]
	}
}

// callMetrics reports the median duration of each benchmark-side span
// kind as trace.call_us.<call>.
func callMetrics(logs []*spanLog, m metrics) {
	byKind := make([][]int64, len(spanKindNames))
	for _, l := range logs {
		if l == nil {
			continue
		}
		for _, s := range l.spans {
			byKind[s.kind] = append(byKind[s.kind], s.dur)
		}
	}
	for k, durs := range byKind {
		slices.Sort(durs)
		m["trace.call_us."+spanKindNames[k]] = float64(quantile(durs, 0.5)) / 1e3
	}
}

// writeSpans writes the benchmark-side spans as JSON lines.
func writeSpans(path, workload string, logs []*spanLog) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for w, l := range logs {
		if l == nil {
			continue
		}
		for _, s := range l.spans {
			err := enc.Encode(map[string]any{"workload": workload, "log": w,
				"name": "bench." + spanKindNames[s.kind], "start_ns": s.start, "duration_ns": s.dur})
			if err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

// interval is a half-open time range in ns.
type interval struct{ lo, hi int64 }

// selfTime is a span's duration minus the part of its interval that its
// child spans cover. Children are clipped to the parent, overlapping
// children count once, and gaps between children stay with the parent.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		c.lo, c.hi = max(c.lo, parent.lo), min(c.hi, parent.hi)
		if c.hi > c.lo {
			clipped = append(clipped, c)
		}
	}
	slices.SortFunc(clipped, func(a, b interval) int { return int(a.lo - b.lo) })
	covered, edge := int64(0), parent.lo
	for _, c := range clipped {
		if c.hi <= edge {
			continue
		}
		covered += c.hi - max(c.lo, edge)
		edge = c.hi
	}
	return parent.hi - parent.lo - covered
}

// tracedSpans are the span names the program emits that the per-layer
// list reports; the storage.* family is reported as one layer.
var tracedSpans = []string{"client.read", "coalesce.do", "read.attempt", "read.leg", "rpc.read",
	"server.read", "memtier.hit", "storage", "pfs.read", "ingest.batch", "mover.recache"}

func spanLayer(name string) string {
	if strings.HasPrefix(name, "storage.") {
		return "storage"
	}
	return name
}

// selfTimes stitches the recorder's fragments by trace id (a server
// fragment's root names the client span that caused it as its parent)
// and reports, per span name, the median self time as
// trace.self_us.<span> and its share of all self time as
// trace.share.<span>.
func selfTimes(traces []*trace.Trace, m metrics) {
	type node struct {
		name     string
		iv       interval
		children []interval
	}
	type key struct {
		trace trace.TraceID
		span  trace.SpanID
	}
	nodes := map[key]*node{}
	for _, tr := range traces {
		for i := range tr.Spans {
			s := &tr.Spans[i]
			lo := s.Start.UnixNano()
			nodes[key{tr.ID, s.ID}] = &node{name: s.Name, iv: interval{lo, lo + int64(s.Duration)}}
		}
	}
	for _, tr := range traces {
		for i := range tr.Spans {
			s := &tr.Spans[i]
			if p := nodes[key{tr.ID, s.Parent}]; p != nil {
				p.children = append(p.children, nodes[key{tr.ID, s.ID}].iv)
			}
		}
	}
	self := map[string][]int64{}
	var total float64
	for _, n := range nodes {
		t := selfTime(n.iv, n.children)
		layer := spanLayer(n.name)
		self[layer] = append(self[layer], t)
		total += float64(t)
	}
	for _, name := range tracedSpans {
		ts := self[name]
		slices.Sort(ts)
		var sum float64
		for _, t := range ts {
			sum += float64(t)
		}
		m["trace.self_us."+name] = float64(quantile(ts, 0.5)) / 1e3
		m["trace.share."+name] = ratio(sum, total)
	}
}
