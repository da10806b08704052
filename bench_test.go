package repro_test

// The benchmark harness: one benchmark per table/figure of the paper's
// evaluation. Each runs the corresponding experiment at PaperScale (a
// few seconds of CPU) and reports the headline numbers as custom
// metrics, so `go test -bench=. -benchmem` regenerates every result.
// For the tables themselves use `go run ./cmd/ftcbench -exp all`.

import (
	"context"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/failure"
	"repro/internal/ftcache"
	"repro/internal/hashring"
	"repro/internal/partition"
	"repro/internal/trainsim"
)

func paper() *experiments.Sweep { return experiments.NewSweep(experiments.PaperScale()) }

// BenchmarkTable1 regenerates Table I (job-failure analysis).
func BenchmarkTable1(b *testing.B) {
	var last experiments.Table1Result
	for i := 0; i < b.N; i++ {
		last = paper().Table1()
	}
	b.ReportMetric(100*last.Table.FailureRatio(), "failure-pct")
	b.ReportMetric(100*last.Table.ShareOfFailures("TIMEOUT"), "timeout-share-pct")
}

// BenchmarkFig1 regenerates Fig 1 (weekly elapsed time of failed jobs).
func BenchmarkFig1(b *testing.B) {
	var last experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		last = paper().Fig1()
	}
	b.ReportMetric(last.OverallMinutes, "overall-mean-min")
}

// BenchmarkFig2 regenerates Fig 2 (failure mix by node count / elapsed).
func BenchmarkFig2(b *testing.B) {
	var last experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		last = paper().Fig2()
	}
	top := last.ByNodes[len(last.ByNodes)-1]
	b.ReportMetric(100*top.NodeFailureClassShare(), "topbucket-nf+to-pct")
}

// BenchmarkFig5a regenerates Fig 5(a): no-failure end-to-end time.
func BenchmarkFig5a(b *testing.B) {
	var last experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		last = paper().Fig5a()
	}
	for _, row := range last.Rows {
		if row.Strategy == ftcache.KindNVMe {
			b.ReportMetric(row.Mean.Seconds(), "nvme-"+itoa(row.Nodes)+"n-sec")
		}
	}
}

// BenchmarkFig5b regenerates Fig 5(b): 5 random failures after epoch 1.
// The paper's headline — FT w/ NVMe beats FT w/ PFS by 24.9% at 1024
// nodes — appears as the gap metric.
func BenchmarkFig5b(b *testing.B) {
	var last experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		last = paper().Fig5b()
	}
	for _, n := range experiments.PaperScale().Nodes {
		b.ReportMetric(100*last.Gap(n), "gap-"+itoa(n)+"n-pct")
	}
}

// BenchmarkFig6a regenerates Fig 6(a): per-epoch analysis around a
// failure.
func BenchmarkFig6a(b *testing.B) {
	var last experiments.Fig6aResult
	for i := 0; i < b.N; i++ {
		last = paper().Fig6a()
	}
	row := last.Rows[len(last.Rows)-1]
	if row.NoFailure > 0 {
		b.ReportMetric(float64(row.PFSRedirect)/float64(row.NoFailure), "pfs-redirect-x")
		b.ReportMetric(float64(row.NVMeRecached)/float64(row.NoFailure), "nvme-recached-x")
	}
}

// BenchmarkFig6b regenerates Fig 6(b): the virtual-node sweep.
func BenchmarkFig6b(b *testing.B) {
	var last experiments.Fig6bResult
	for i := 0; i < b.N; i++ {
		last = paper().Fig6b()
	}
	pts := last.Points
	b.ReportMetric(pts[0].ReceiverMean, "receivers-v10")
	b.ReportMetric(pts[len(pts)-1].ReceiverMean, "receivers-v1000")
}

// --- ablations ---------------------------------------------------------

// BenchmarkAblationVirtualNodeCost quantifies the Fig 6(b) trade-off the
// paper discusses: more virtual nodes improve balance but grow the ring.
func BenchmarkAblationVirtualNodeCost(b *testing.B) {
	for _, v := range []int{10, 100, 1000} {
		b.Run("vnodes="+itoa(v), func(b *testing.B) {
			nodes := make([]hashring.NodeID, 256)
			for i := range nodes {
				nodes[i] = hashring.NodeID(itoa(i))
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ring := hashring.NewWithNodes(hashring.Config{VirtualNodes: v}, nodes)
				ring.Owner("cosmoUniverse/train/univ_0001234.tfrecord")
			}
		})
	}
}

// BenchmarkAblationDetectionThreshold measures how the TIMEOUT_LIMIT
// knob trades detection latency against runtime under a single failure.
func BenchmarkAblationDetectionThreshold(b *testing.B) {
	for _, limit := range []int{1, 3, 10} {
		b.Run("limit="+itoa(limit), func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				cfg := trainsim.Frontier(64, ftcache.KindNVMe)
				cfg.Dataset = repro.CosmoFlowTrain().Scaled(64)
				cfg.DetectionTime = time.Duration(limit) * time.Second
				cfg.Failures = []failure.Event{{Epoch: 1, Frac: 0.01}}
				total += trainsim.Prepare(cfg.Dataset).Run(cfg).Total
			}
			b.ReportMetric(total.Seconds()/float64(b.N), "sim-total-sec")
		})
	}
}

// BenchmarkAblationLoadTrial isolates one Fig 6(b) Monte-Carlo trial.
func BenchmarkAblationLoadTrial(b *testing.B) {
	keys := repro.CosmoFlowTrain().Scaled(32).AllPaths()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		partition.Redistribute(partition.RedistributeConfig{
			PhysicalNodes: 256, VirtualNodes: 100, Keys: keys,
			Trials: 1, Seed: int64(i),
		})
	}
}

// BenchmarkExtReplication runs the replication-vs-recache extension.
func BenchmarkExtReplication(b *testing.B) {
	var last experiments.ExtReplicationResult
	for i := 0; i < b.N; i++ {
		last = paper().ExtReplication()
	}
	row := last.Rows[len(last.Rows)-1]
	b.ReportMetric(float64(row.RecachePFSReads), "recache-pfs-reads")
	b.ReportMetric(float64(row.ReplicatedPFSReads), "replicated-pfs-reads")
}

// BenchmarkExtVnodeSweep runs the end-to-end virtual-node ablation.
func BenchmarkExtVnodeSweep(b *testing.B) {
	var last experiments.ExtVnodeSweepResult
	for i := 0; i < b.N; i++ {
		last = paper().ExtVnodeSweep()
	}
	b.ReportMetric(last.Rows[0].Total.Seconds(), "v1-total-sec")
	b.ReportMetric(last.Rows[2].Total.Seconds(), "v100-total-sec")
}

// BenchmarkAblationDetectionMode compares the paper's passive (read-path
// timeout) detection against the proactive heartbeat extension: time
// from node death to first successful post-failure read of one of its
// files.
func BenchmarkAblationDetectionMode(b *testing.B) {
	for _, proactive := range []bool{false, true} {
		name := "passive"
		if proactive {
			name = "heartbeat"
		}
		b.Run(name, func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				total += measureDetection(b, proactive)
			}
			b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "fail-to-read-ms")
		})
	}
}

func measureDetection(b *testing.B, proactive bool) time.Duration {
	cluster, err := repro.NewCluster(repro.ClusterConfig{
		Nodes:        4,
		Strategy:     repro.StrategyNVMe,
		RPCTimeout:   25 * time.Millisecond,
		TimeoutLimit: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	ds := repro.CosmoFlowTrain().Scaled(16384).WithFileBytes(256)
	cluster.Stage(ds)
	client, _, err := cluster.NewClient()
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	for i := 0; i < ds.NumFiles; i++ {
		client.Read(ctx, ds.FilePath(i))
	}
	if proactive {
		hb := repro.NewHeartbeat(client, repro.HeartbeatConfig{
			Interval: 5 * time.Millisecond,
			Timeout:  25 * time.Millisecond,
		})
		hb.Start()
		defer hb.Stop()
	}
	victim := cluster.Nodes()[1]
	start := time.Now()
	cluster.Fail(victim, core.FailUnresponsive)
	if proactive {
		// Give the prober the same observation window a read would get.
		for client.Tracker().IsAlive(victim) {
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < ds.NumFiles; i++ {
		if _, err := client.Read(ctx, ds.FilePath(i)); err != nil {
			b.Fatal(err)
		}
	}
	return time.Since(start)
}

// BenchmarkLiveReadFailover measures a live read that fails over after a
// node death (detection + ring removal + re-route + recache).
func BenchmarkLiveReadFailover(b *testing.B) {
	cluster, err := repro.NewCluster(repro.ClusterConfig{
		Nodes:        4,
		Strategy:     repro.StrategyNVMe,
		RPCTimeout:   20 * time.Millisecond,
		TimeoutLimit: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	ds := repro.CosmoFlowTrain().Scaled(8192).WithFileBytes(4096)
	cluster.Stage(ds)
	client, _, err := cluster.NewClient()
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	for i := 0; i < ds.NumFiles; i++ {
		client.Read(ctx, ds.FilePath(i))
	}
	cluster.Fail(cluster.Nodes()[0], core.FailUnresponsive)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Read(ctx, ds.FilePath(i%ds.NumFiles)); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
