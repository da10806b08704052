package hvac

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/telemetry"
)

// TestSeriesDoNotGrowWithPaths holds the registry to bounded labels: a
// label valued by path, error text or request data would add series
// with every new key. Two runs over a live two-node cluster read N and
// then 4N distinct paths, each through PFS misses, NVMe hits, error
// replies and one declared failure; the Default registry must hold as
// many series after the second run as after the first.
func TestSeriesDoNotGrowWithPaths(t *testing.T) {
	const n = 16
	reg := telemetry.Default()
	reads := seriesCountRun(t, "small", n)
	after := len(reg.Snapshot())
	if reads < 4*n {
		t.Fatalf("the first run's client read %d times, want >= %d", reads, 4*n)
	}
	seriesCountRun(t, "large", 4*n)
	if got := len(reg.Snapshot()); got != after {
		t.Errorf("registry holds %d series after reading %d more paths, %d before: a label is not bounded", got, 4*n, after)
	}
}

// seriesCountRun reads n distinct paths through a fresh cluster whose
// router fails over from node-00 to node-01, and returns how many reads
// its client completed.
func seriesCountRun(t *testing.T, run string, n int) int {
	tc := newTestCluster(t, 2)
	c := tc.client(&notifyRouter{target: "node-00", onFail: func(cluster.NodeID) {}}, 50*time.Millisecond)
	ctx := context.Background()
	path := func(i int) string { return fmt.Sprintf("%s/f%d", run, i) }
	for i := 0; i < n; i++ {
		tc.pfs.Put(path(i), []byte(path(i)))
	}
	readAll := func(what string) {
		for i := 0; i < n; i++ {
			if got, err := c.Read(ctx, path(i)); err != nil || string(got) != path(i) {
				t.Fatalf("%s read %s: %q, %v", what, path(i), got, err)
			}
		}
	}

	readAll("miss") // the owner falls back to the PFS
	tc.servers["node-00"].Mover().Flush()
	readAll("hit")
	if st := c.Stats(); st.ServedNVMe < int64(n) {
		t.Fatalf("%d NVMe hits, want >= %d: %+v", st.ServedNVMe, n, st)
	}
	for i := 0; i < n; i++ {
		if _, err := c.Read(ctx, run+"/missing"+fmt.Sprint(i)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("read of a missing path: %v, want ErrNotFound", err)
		}
	}
	tc.servers["node-00"].SetUnresponsive(true)
	readAll("failover") // declares node-00 failed, then reads from node-01
	if st := c.Stats(); st.FailoverReads == 0 {
		t.Fatalf("no failover read: %+v", st)
	}
	return c.Latency().N
}
