package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ftcache"
	"repro/internal/hvac"
	"repro/internal/loadctl"
	"repro/internal/workload"
)

// metrics is every figure one pass produced, by its BENCHMARK.json name.
type metrics map[string]float64

// params is what the caller fixes for one pass over one workload.
type params struct {
	seed    int64
	seconds float64 // measured window of this pass
	full    float64 // the invocation's whole window: warm-up lengths derive from it, so a shorter traced pass warms as long as the untraced one
	small   bool    // smoke sizes: every dataset and cache an eighth
	boots   int     // how many cluster boots setup_s is the median of
	traced  bool    // keep benchmark-side spans (the caller switches the program's recorder on)
}

// outcome is one pass over one workload.
type outcome struct {
	m         metrics
	samples   map[string]int // sample count beside every percentile and median
	attempted int64
	failed    int64
	gates     []string // correctness gates that did not hold
	ops       float64  // operations per second, the traced/untraced comparison base
	spans     []*spanLog
}

func (o *outcome) gate(ok bool, format string, args ...any) {
	if !ok {
		o.gates = append(o.gates, fmt.Sprintf(format, args...))
	}
}

// workloadFuncs maps the BENCHMARK.json workload names to their code,
// in suite order.
var workloadFuncs = []struct {
	name string
	run  func(context.Context, params) (*outcome, error)
}{
	{"epoch_uniform", runEpochUniform},
	{"zipf_tiered", runZipfTiered},
	{"ingest_mixed", runIngestMixed},
	{"fail_recache", runFailRecache},
}

// sized shrinks n by eight for the smoke test.
func (p params) sized(n int) int {
	if p.small {
		return n / 8
	}
	return n
}

// sampleCap is the per-worker sample buffer preallocated for a window,
// generous enough that append does not grow it while timing.
func (p params) sampleCap(perSecond float64) int {
	return int(perSecond*(p.seconds+1)) + 1024
}

// latencyMetrics fills the read-latency figures every workload shares.
func (o *outcome) latencyMetrics(all [][]int64, window [][]int64) {
	sorted := merged(all)
	o.m["read_p50_us"] = float64(quantile(sorted, 0.5)) / 1e3
	o.m["read_p99_us"] = windowedQuantile(window, 0.99) / 1e3
	o.m["hvac.read_p999_us"] = float64(quantile(sorted, 0.999)) / 1e3
	o.m["hvac.read_max_ms"] = float64(quantile(sorted, 1)) / 1e6
	o.samples["read_p50_us"] = len(sorted)
	n := 0
	for _, w := range window {
		n += len(w)
	}
	o.samples["read_p99_us"] = n
}

func sampleBytes(bufs ...[][]int64) int {
	n := 0
	for _, b := range bufs {
		for _, w := range b {
			n += 8 * cap(w)
		}
	}
	return n
}

func newBufs(capacity int) [][]int64 {
	b := make([][]int64, workers())
	for w := range b {
		b[w] = make([]int64, 0, capacity)
	}
	return b
}

// forget drops what an unrecorded warm pass left in the span logs and
// the sample buffers.
func forget(logs []*spanLog, bufs ...[][]int64) {
	for _, l := range logs {
		l.reset()
	}
	for _, b := range bufs {
		for w := range b {
			b[w] = b[w][:0]
		}
	}
}

// finish closes the cluster, applies the gates every workload shares and
// derives the per-layer counts from the counter delta.
func (o *outcome) finish(e *env, before, after counts, puts float64, baseGoroutines int) {
	d := after.sub(before)
	layerCounts(d, float64(o.attempted), puts, o.m)
	o.m["memtier.active_leases_end"] = after["ram_leases"]
	o.m["failed_op_share"] = ratio(float64(o.failed), float64(o.attempted))
	o.gate(o.failed == 0, "%d of %d operations failed, were refused or returned wrong bytes", o.failed, o.attempted)
	o.gate(after["ram_leases"] == 0, "memtier.active_leases_end = %v, want 0", after["ram_leases"])
	e.close()
	o.gate(goroutinesSettle(baseGoroutines), "goroutines did not return to %d after Cluster.Close", baseGoroutines)
}

// epochs reads a dataset one permutation at a time.
type epochs struct {
	ctx    context.Context
	e      *env
	rng    *rand.Rand
	perm   []int32
	logs   []*spanLog
	failed atomic.Int64
	reads  int64
}

func newEpochs(ctx context.Context, e *env, p params, spanCap int) *epochs {
	ep := &epochs{ctx: ctx, e: e, rng: rand.New(rand.NewSource(p.seed)), perm: make([]int32, len(e.paths))}
	for i := range ep.perm {
		ep.perm[i] = int32(i)
	}
	ep.logs = newSpanLogs(p.traced, spanCap)
	return ep
}

// forget drops what the warm epoch recorded.
func (ep *epochs) forget(lat [][]int64) {
	forget(ep.logs, lat)
	ep.reads = 0
}

// run is one epoch: a fresh seeded permutation of every file, sharded
// round-robin over the workers, each file read once and checked.
// Latencies are appended to into[w]. When trip is non-nil worker 0 calls
// it a quarter of the way through its shard. The permutation is drawn
// before the clock starts.
func (ep *epochs) run(into [][]int64, trip func()) time.Duration {
	ep.rng.Shuffle(len(ep.perm), func(i, j int) { ep.perm[i], ep.perm[j] = ep.perm[j], ep.perm[i] })
	nw := workers()
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cli, lat, log := ep.e.clients[w], into[w], ep.logs[w]
			tripAt := -1
			if trip != nil && w == 0 {
				tripAt = len(ep.perm) / nw / 4
			}
			var bad int64
			for j, k := w, 0; j < len(ep.perm); j, k = j+nw, k+1 {
				if k == tripAt {
					trip()
				}
				i := int(ep.perm[j])
				s := time.Now()
				got, err := cli.Read(ep.ctx, ep.e.paths[i])
				d := time.Since(s)
				if err != nil || !ep.e.ok(i, got) {
					bad++
				}
				lat = append(lat, int64(d))
				log.add(spanRead, s, d)
			}
			into[w] = lat
			ep.failed.Add(bad)
		}(w)
	}
	wg.Wait()
	ep.reads += int64(len(ep.perm))
	return time.Since(t0)
}

// runEpochUniform is the paper's steady-state training read: a fully
// warm cache that fits, one client per worker, whole-dataset epochs.
func runEpochUniform(ctx context.Context, p params) (*outcome, error) {
	base := runtime.NumGoroutine()
	sh := shape{
		cluster: core.ClusterConfig{Nodes: 8, Strategy: ftcache.KindNVMe, VirtualNodes: 100},
		files:   p.sized(16384),
	}
	e, setup, err := bootMedian(ctx, sh, p.boots)
	if err != nil {
		return nil, err
	}
	o := &outcome{m: metrics{"setup_s": setup}, samples: map[string]int{}}
	lat := newBufs(p.sampleCap(150e3))
	ep := newEpochs(ctx, e, p, cap(lat[0]))
	ep.run(lat, nil) // warm epoch, unrecorded
	ep.forget(lat)

	before := e.snapshot()
	var durs []float64
	var total float64
	for total < p.seconds {
		d := ep.run(lat, nil).Seconds()
		durs = append(durs, d)
		total += d
	}
	o.m["live_heap_mb"] = liveHeapMiB(sampleBytes(lat))
	after := e.snapshot()

	o.attempted, o.failed = ep.reads, ep.failed.Load()
	o.ops = float64(ep.reads) / total
	o.m["epoch_s"] = median(durs)
	o.samples["epoch_s"] = len(durs)
	o.m["read_ops_per_s"] = o.ops
	o.latencyMetrics(lat, lat)
	o.spans = ep.logs
	o.finish(e, before, after, 0, base)
	return o, nil
}

// runFor runs body(w, deadline) on every worker at once and returns the
// wall time until the last one came back.
func runFor(d time.Duration, body func(w int, deadline time.Time)) time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(d)
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body(w, deadline)
		}(w)
	}
	wg.Wait()
	return time.Since(t0)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

const (
	// hotKeys is how many top-ranked Zipf keys hot_read_p50_us covers.
	hotKeys = 16
	// passChunks: a Zipf worker has no epoch boundary, so it times its
	// share of a dataset-sized pass (files / W reads) an eighth at a
	// time, and epoch_s is eight times the median eighth.
	passChunks = 8
)

// runZipfTiered is the working set larger than the cache under skewed
// access: the RAM tier, load control, NVMe eviction and the server-side
// PFS fill do the work; data-loader workers share one client.
func runZipfTiered(ctx context.Context, p params) (*outcome, error) {
	base := runtime.NumGoroutine()
	files := p.sized(4096)
	sh := shape{
		cluster: core.ClusterConfig{
			Nodes: 4, Strategy: ftcache.KindNVMe, VirtualNodes: 100,
			NVMeCapacity: int64(p.sized(1536 << 10)), RAMCapacity: int64(p.sized(512 << 10)),
			ReadDelay: 100 * time.Microsecond, LoadControl: &loadctl.Config{},
		},
		files: files, pfsDelay: 500 * time.Microsecond, sharedClient: true,
	}
	e, setup, err := bootMedian(ctx, sh, p.boots)
	if err != nil {
		return nil, err
	}
	o := &outcome{m: metrics{"setup_s": setup}, samples: map[string]int{}}
	nw := workers()
	lat, hot, passes := newBufs(p.sampleCap(4e3)), newBufs(p.sampleCap(2e3)), newBufs(1024)
	logs := newSpanLogs(p.traced, cap(lat[0]))
	zipfs := make([]*workload.Zipf, nw)
	for w := range zipfs {
		zipfs[w] = workload.NewZipf(1.1, files, p.seed+int64(w))
	}
	var failed, reads atomic.Int64
	body := func(w int, deadline time.Time) {
		cli, z, l, h, ps, log := e.clients[w], zipfs[w], lat[w], hot[w], passes[w], logs[w]
		var bad int64
		passStart, perChunk := time.Now(), files/nw/passChunks
		for {
			i := z.Next()
			s := time.Now()
			if s.After(deadline) {
				break
			}
			got, err := cli.Read(ctx, e.paths[i])
			d := time.Since(s)
			if err != nil || !e.ok(i, got) {
				bad++
			}
			l = append(l, int64(d))
			if i < hotKeys {
				h = append(h, int64(d))
			}
			log.add(spanRead, s, d)
			if len(l)%perChunk == 0 {
				now := s.Add(d)
				ps = append(ps, int64(now.Sub(passStart)))
				passStart = now
			}
		}
		lat[w], hot[w], passes[w] = l, h, ps
		failed.Add(bad)
		reads.Add(int64(len(l)))
	}
	// The first quarter of the run is unrecorded: the tiers and the
	// sketches settle into the Zipf steady state.
	runFor(seconds(p.full/3), body)
	forget(logs, lat, hot, passes)
	failed.Store(0)
	reads.Store(0)

	before := e.snapshot()
	window := runFor(seconds(p.seconds), body).Seconds()
	o.m["live_heap_mb"] = liveHeapMiB(sampleBytes(lat, hot, passes))
	after := e.snapshot()

	o.attempted, o.failed = reads.Load(), failed.Load()
	o.ops = float64(o.attempted) / window
	allPasses := merged(passes)
	o.m["epoch_s"] = passChunks * medianNs(allPasses) / 1e9
	o.samples["epoch_s"] = len(allPasses)
	o.m["read_ops_per_s"] = o.ops
	o.latencyMetrics(lat, lat)
	hotSorted := merged(hot)
	o.m["hot_read_p50_us"] = float64(quantile(hotSorted, 0.5)) / 1e3
	o.samples["hot_read_p50_us"] = len(hotSorted)
	o.m["pfs_read_share"] = ratio(after["pfs_reads"]-before["pfs_reads"], float64(o.attempted))
	o.spans = logs
	o.finish(e, before, after, 0, base)
	return o, nil
}

// Ingest round shape: puts, then a Flush barrier, then verified reads of
// keys from that round. An ingest "epoch" is roundsPerEpoch rounds of
// one worker (8192 puts, 16 barriers, 2048 reads), reported as
// roundsPerEpoch times the median round.
const (
	putsPerRound   = 512
	readsPerRound  = 128
	roundsPerEpoch = 16
	// ingestPool is each worker's ring of object paths. The eight
	// 16 MiB caches hold 32768 objects, so by the time a path comes
	// round again its previous object is long evicted: every put is an
	// insert, and a read can only be answered by this round's put.
	ingestPool = 1 << 16
)

// runIngestMixed is the write path beside reads of the same shards:
// PutAsync batches, a Flush barrier, then reads that only the cache can
// answer, because ingested objects never exist on the PFS.
func runIngestMixed(ctx context.Context, p params) (*outcome, error) {
	base := runtime.NumGoroutine()
	sh := shape{cluster: core.ClusterConfig{
		Nodes: 8, Strategy: ftcache.KindNVMe, VirtualNodes: 100,
		NVMeCapacity: 16 << 20, RPCTimeout: 10 * time.Second, Ingest: &hvac.IngestConfig{},
	}}
	e, setup, err := bootMedian(ctx, sh, p.boots)
	if err != nil {
		return nil, err
	}
	o := &outcome{m: metrics{"setup_s": setup}, samples: map[string]int{}}
	nw := workers()
	pattern := make([]byte, objBytes)
	for i := range pattern {
		pattern[i] = byte(i*7 + 3)
	}
	pools, picks := make([][]string, nw), make([][]uint16, nw)
	for w := range pools {
		pools[w] = make([]string, ingestPool)
		for k := range pools[w] {
			pools[w][k] = fmt.Sprintf("ingest/w%d/obj_%07d", w, k)
		}
		rng := rand.New(rand.NewSource(p.seed + int64(w)))
		picks[w] = make([]uint16, 1<<14)
		for k := range picks[w] {
			picks[w][k] = uint16(rng.Intn(putsPerRound))
		}
	}
	lat, flushes, rounds := newBufs(p.sampleCap(30e3)), newBufs(p.sampleCap(300)), newBufs(p.sampleCap(300))
	logs := newSpanLogs(p.traced, p.sampleCap(160e3))
	seqs := make([]uint64, nw)
	var failed, puts atomic.Int64
	body := func(w int, deadline time.Time) {
		cli, pool, pick, log := e.clients[w], pools[w], picks[w], logs[w]
		l, f, r := lat[w], flushes[w], rounds[w]
		obj := bytes.Clone(pattern)
		seq, pickAt := seqs[w], 0
		var bad, done int64
		for roundStart := time.Now(); roundStart.Before(deadline); {
			first := seq
			for k := 0; k < putsPerRound; k++ {
				binary.LittleEndian.PutUint64(obj, uint64(w)<<56|seq)
				s := time.Now()
				err := cli.PutAsync(pool[seq%ingestPool], obj)
				log.add(spanPutAsync, s, time.Since(s))
				if err != nil {
					bad++
				}
				seq++
			}
			s := time.Now()
			err := cli.Flush(ctx)
			d := time.Since(s)
			f = append(f, int64(d))
			log.add(spanFlush, s, d)
			if err != nil {
				bad++
			} else {
				done += putsPerRound
			}
			for k := 0; k < readsPerRound; k++ {
				at := first + uint64(pick[pickAt&(len(pick)-1)])
				pickAt++
				s := time.Now()
				got, err := cli.Read(ctx, pool[at%ingestPool])
				d := time.Since(s)
				// A miss here is an ack-visibility violation: Flush returned
				// nil, so the object must be readable from its owner.
				if err != nil || len(got) != objBytes ||
					binary.LittleEndian.Uint64(got) != uint64(w)<<56|at ||
					(at&63 == 63 && !bytes.Equal(got[8:], pattern[8:])) {
					bad++
				}
				l = append(l, int64(d))
				log.add(spanRead, s, d)
			}
			now := time.Now()
			r = append(r, int64(now.Sub(roundStart)))
			roundStart = now
		}
		lat[w], flushes[w], rounds[w], seqs[w] = l, f, r, seq
		failed.Add(bad)
		puts.Add(done)
	}
	runFor(seconds(p.full/10), body) // warm pass, unrecorded
	forget(logs, lat, flushes, rounds)
	failed.Store(0)
	puts.Store(0)

	before := e.snapshot()
	window := runFor(seconds(p.seconds), body).Seconds()
	o.m["live_heap_mb"] = liveHeapMiB(sampleBytes(lat, flushes, rounds))
	after := e.snapshot()

	nFlush := 0
	for _, f := range flushes {
		nFlush += len(f)
	}
	nReads := int64(nFlush) * readsPerRound
	o.attempted = int64(nFlush)*(putsPerRound+1) + nReads
	o.failed = failed.Load()
	o.ops = float64(o.attempted) / window
	allRounds := merged(rounds)
	o.m["epoch_s"] = roundsPerEpoch * medianNs(allRounds) / 1e9
	o.samples["epoch_s"] = len(allRounds)
	o.m["read_ops_per_s"] = float64(nReads) / window
	o.m["puts_per_s"] = float64(puts.Load()) / window
	o.latencyMetrics(lat, lat)
	o.m["hvac.read_after_put_p50_us"] = o.m["read_p50_us"]
	flushSorted := merged(flushes)
	o.m["flush_p50_ms"] = float64(quantile(flushSorted, 0.5)) / 1e6
	o.m["hvac.flush_p99_ms"] = windowedQuantile(flushes, 0.99) / 1e6
	o.samples["flush_p50_ms"] = nFlush
	d := after.sub(before)
	o.gate(d["served_pfs"]+d["direct_pfs"]+d["pfs_reads"] == 0,
		"ack-visibility: %v reads after a nil Flush were not served from cache", d["served_pfs"]+d["direct_pfs"]+d["pfs_reads"])
	o.spans = logs
	o.finish(e, before, after, float64(puts.Load()), base)
	return o, nil
}

// runFailRecache is the paper's contribution: a node goes silent, the
// clients detect it by timeouts and drop it from the ring, each lost
// file is fetched from the PFS once by its new owner, and the node later
// rejoins. The steady path is epoch_uniform's.
func runFailRecache(ctx context.Context, p params) (*outcome, error) {
	base := runtime.NumGoroutine()
	sh := shape{
		cluster: core.ClusterConfig{
			Nodes: 8, Strategy: ftcache.KindNVMe, VirtualNodes: 100,
			RPCTimeout: 20 * time.Millisecond, TimeoutLimit: 3,
		},
		files: p.sized(16384), pfsDelay: 500 * time.Microsecond,
	}
	e, setup, err := bootMedian(ctx, sh, p.boots)
	if err != nil {
		return nil, err
	}
	o := &outcome{m: metrics{"setup_s": setup}, samples: map[string]int{}}
	nw := workers()
	nodes := e.cluster.Nodes()
	// Every node fails exactly once, in seeded order, so no survivor ever
	// holds a stale copy of a lost file and PFS accounting is exact. A
	// shorter pass runs a prefix of the cycles.
	cycles := min(len(nodes), max(2, int(p.seconds/15*float64(len(nodes))+0.5)))
	shard := len(e.paths)/nw + 1
	ep := newEpochs(ctx, e, p, 7*cycles*shard)
	victims := ep.rng.Perm(len(nodes))
	detected := make([]atomic.Int64, nw)
	for w := 0; w < nw; w++ {
		w := w
		e.clients[w].Tracker().OnFailure(func(core.NodeID) { detected[w].Store(time.Now().UnixNano()) })
	}
	calm, window := newBufs(4*cycles*shard), newBufs(3*cycles*shard) // 4 calm and 3 disturbed epochs a cycle
	ep.run(calm, nil)                                                // warm epoch, unrecorded
	ep.forget(calm)
	events := newSpanLog(p.traced, 2*cycles)

	before := e.snapshot()
	var steady, overhead, detectMs, rejoinMs []float64
	var sumSteady, sumRecovered, sumAll, lostTotal, warmed, receivers float64
	pfsReads := func() int64 { r, _, _ := e.cluster.PFS().Counters(); return r }
	timeouts := func() (n int64) {
		for _, cli := range e.clients {
			n += cli.Stats().Timeouts
		}
		return n
	}
	for c := 0; c < cycles; c++ {
		victim := nodes[victims[c]]
		plan := e.rings[0].Ring().PlanRecache(victim, e.paths)
		owned := 0
		for _, path := range e.paths {
			if n, _ := e.rings[0].Ring().Owner(path); n == victim {
				owned++
			}
		}
		o.gate(plan.Lost == owned, "cycle %d: hashring.keys_moved %d != %d files owned by %s", c, plan.Lost, owned, victim)
		lostTotal += float64(owned)
		receivers += float64(plan.Receivers())

		var cycleSteady float64
		for i := 0; i < 2; i++ {
			d := ep.run(calm, nil).Seconds()
			steady = append(steady, d)
			cycleSteady += d
		}
		pfs0, timeouts0 := pfsReads(), timeouts()
		var failedAt time.Time
		disturbed := ep.run(window, func() {
			failedAt = time.Now()
			if err := e.cluster.Fail(victim, core.FailUnresponsive); err != nil {
				ep.failed.Add(1)
			}
		}).Seconds()
		var last int64
		for w := range detected {
			last = max(last, detected[w].Load())
		}
		detect := time.Duration(last - failedAt.UnixNano())
		o.gate(detect > 0, "cycle %d: not every client declared %s failed", c, victim)
		detectMs = append(detectMs, float64(detect)/1e6)
		events.add(spanDetect, failedAt, detect)
		for i := 0; i < 2; i++ {
			disturbed += ep.run(window, nil).Seconds()
		}
		var recovered float64
		for i := 0; i < 2; i++ {
			recovered += ep.run(calm, nil).Seconds()
		}
		overhead = append(overhead, disturbed-3*cycleSteady/2)
		sumSteady += cycleSteady
		sumRecovered += recovered
		sumAll += cycleSteady + disturbed + recovered
		// Each client spends TimeoutLimit timeouts declaring the victim
		// failed. Any beyond those hit a healthy node that a neighbour on
		// the machine stalled past the 20 ms TTL; the client retries, and a
		// retry that overtakes the stalled request's cache fill may fetch
		// that one file again.
		pfs1, spurious := pfsReads(), timeouts()-timeouts0-int64(nw*sh.cluster.TimeoutLimit)
		o.gate(pfs1-pfs0 <= int64(owned)+spurious, "cycle %d: %d PFS reads for %d lost files (%d spurious timeouts)", c, pfs1-pfs0, owned, spurious)

		err := e.cluster.Revive(victim)
		o.gate(err == nil, "cycle %d: revive %s: %v", c, victim, err)
		rejoinStart := time.Now()
		var wg sync.WaitGroup
		var warmedFiles, rejoinErrs atomic.Int64
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func(cli *hvac.Client) {
				defer wg.Done()
				// One warm transfer at a time per client: with several in
				// flight, a single stall past the 20 ms TTL times all of them
				// out at once and the client declares a healthy node failed.
				rep, err := cli.Rejoin(ctx, victim, hvac.RejoinOptions{Keys: e.paths, WarmConcurrency: 1})
				if err != nil || !rep.Revived {
					rejoinErrs.Add(1)
				}
				warmedFiles.Add(int64(rep.WarmedFiles))
			}(e.clients[w])
		}
		wg.Wait()
		rejoin := time.Since(rejoinStart)
		rejoinMs = append(rejoinMs, float64(rejoin)/1e6)
		events.add(spanRejoin, rejoinStart, rejoin)
		warmed += float64(warmedFiles.Load())
		o.gate(rejoinErrs.Load() == 0, "cycle %d: %d clients could not rejoin %s", c, rejoinErrs.Load(), victim)
		o.gate(pfsReads() == pfs1, "cycle %d: rejoin caused %d PFS reads, want 0", c, pfsReads()-pfs1)
		for w := range detected {
			detected[w].Store(0)
		}
	}
	o.m["live_heap_mb"] = liveHeapMiB(sampleBytes(calm, window))
	after := e.snapshot()

	o.attempted, o.failed = ep.reads, ep.failed.Load()
	o.ops = float64(ep.reads) / sumAll
	o.m["epoch_s"] = median(steady)
	o.samples["epoch_s"] = len(steady)
	o.m["read_ops_per_s"] = o.ops
	all := make([][]int64, nw)
	for w := range all {
		all[w] = slices.Concat(calm[w], window[w])
	}
	o.latencyMetrics(all, window)
	o.m["fail_overhead_s"] = median(overhead)
	o.samples["fail_overhead_s"] = len(overhead)
	o.m["recovered_epoch_ratio"] = ratio(sumRecovered, sumSteady)
	o.m["pfs_reads_per_lost_file"] = ratio(after["pfs_reads"]-before["pfs_reads"], lostTotal)
	o.m["cluster.detect_ms"] = median(detectMs)
	o.m["hvac.rejoin_ms"] = median(rejoinMs)
	o.m["hvac.rejoin_warmed_files"] = warmed
	o.m["hashring.keys_moved"] = lostTotal
	o.m["hashring.receivers"] = receivers / float64(cycles)
	o.spans = append(ep.logs, events)
	o.finish(e, before, after, 0, base)
	return o, nil
}
