package core

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ftcache"
	"repro/internal/hvac"
	"repro/internal/telemetry"
	"repro/internal/testutil"
)

// TestFailureRecachesWithoutReads: two independent clients declare one
// node failed at the same moment and then read nothing. The plan each
// ships is enough: every lost path becomes resident on exactly the node
// that owns it after the removal, the PFS is read once per lost file —
// however the two clients' hints and the receivers' workers interleave —
// and each receiver reports one recache-complete that accounts for its
// share.
func TestFailureRecachesWithoutReads(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := newTestCluster(t, 8, ftcache.KindNVMe)
	ds := smallDataset(2048)
	c.Stage(ds)
	if err := c.WarmCache(ds); err != nil {
		t.Fatal(err)
	}
	c.PFS().SetReadDelay(200 * time.Microsecond)

	cliA, router, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cliA.Close()
	cliB, _, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cliB.Close()
	ring := router.(*ftcache.Strategy).Ring()

	victim := c.Nodes()[5]
	var lost []string
	for _, path := range ds.AllPaths() {
		if owner, _ := ring.Owner(path); owner == victim {
			lost = append(lost, path)
		}
	}
	if len(lost) == 0 {
		t.Fatalf("%s owns nothing", victim)
	}
	if err := c.Fail(victim, FailUnresponsive); err != nil {
		t.Fatal(err)
	}
	var since uint64 // the last event before the declarations
	if last := telemetry.Default().Trace().Recent(1); len(last) > 0 {
		since = last[0].Seq
	}
	reads0, _, _ := c.PFS().Counters()

	var wg sync.WaitGroup
	for _, cli := range []*hvac.Client{cliA, cliB} {
		wg.Add(1)
		go func(cli *hvac.Client) {
			defer wg.Done()
			declared := false
			for i := 0; i < cli.Tracker().Limit() && !declared; i++ {
				declared = cli.Tracker().RecordTimeout(victim)
			}
			if !declared {
				t.Errorf("timeouts did not declare %s", victim)
			}
		}(cli)
	}
	wg.Wait()

	// No reads: residency can only come from the prefetch.
	resident := func() int {
		n := 0
		for _, path := range lost {
			owner, _ := ring.Owner(path)
			if c.Server(owner).NVMe().Has(path) {
				n++
			}
		}
		return n
	}
	deadline := time.Now().Add(20 * time.Second)
	for resident() < len(lost) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d lost paths resident on their new owner after 20s without reads", resident(), len(lost))
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.FlushMovers() // late duplicate hints drain: they must find everything resident

	if reads, _, _ := c.PFS().Counters(); reads-reads0 != int64(len(lost)) {
		t.Errorf("PFS reads = %d for %d lost files, want exactly one each", reads-reads0, len(lost))
	}
	for _, path := range lost {
		owner, _ := ring.Owner(path)
		for _, n := range c.aliveNodes() {
			if has := c.Server(n).NVMe().Has(path); has != (n == owner) {
				t.Fatalf("%s resident on %s = %v; its owner after the removal is %s", path, n, has, owner)
			}
		}
	}

	plan := ftcache.NewRingRecache(c.Nodes(), 0).PlanRecache(victim, ds.AllPaths())
	files := map[string]int{}
	for _, e := range telemetry.Default().Trace().Recent(0) {
		if e.Seq <= since || e.Type != telemetry.EventRecacheComplete || !strings.HasPrefix(e.Detail, string(victim)+" ") {
			continue
		}
		if _, dup := files[e.Node]; dup {
			t.Errorf("receiver %s reported recache-complete for %s twice", e.Node, victim)
		}
		n, err := strconv.Atoi(strings.TrimPrefix(strings.Fields(e.Detail)[1], "files="))
		if err != nil {
			t.Fatalf("recache-complete detail %q: %v", e.Detail, err)
		}
		files[e.Node] = n
		if e.Value <= 0 {
			t.Errorf("recache-complete from %s carries duration %d ns", e.Node, e.Value)
		}
	}
	for receiver, share := range plan {
		if files[string(receiver)] != len(share) {
			t.Errorf("receiver %s reported %d files recached, its share of the plan is %d", receiver, files[string(receiver)], len(share))
		}
	}
	if len(files) != len(plan) {
		t.Errorf("%d receivers reported recache-complete, the plan has %d", len(files), len(plan))
	}
}
