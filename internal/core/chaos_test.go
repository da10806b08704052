package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/ftcache"
	"repro/internal/workload"
)

// TestChaosRandomFailuresUnderLoad is the randomized stress version of
// the strategy tests: concurrent readers hammer a ring-recaching cluster
// while nodes are killed at random moments in random modes. Invariants:
//
//  1. no read ever fails (data is always reachable via ring + PFS),
//  2. every read returns the exact staged content,
//  3. total PFS reads stay bounded by cold misses + recache misses
//     (each file fetched at most once per failure epoch + once cold).
func TestChaosRandomFailuresUnderLoad(t *testing.T) {
	const (
		nodes    = 8
		files    = 200
		readers  = 6
		failures = 3
	)
	c, err := NewCluster(ClusterConfig{
		Nodes:        nodes,
		Strategy:     ftcache.KindNVMe,
		RPCTimeout:   80 * time.Millisecond,
		TimeoutLimit: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ds := workload.Dataset{Name: "chaos", Prefix: "chaos", NumFiles: files, FileBytes: 128}
	if _, err := c.Stage(ds); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, readers)
	var readCount sync.Map

	for r := 0; r < readers; r++ {
		cli, _, err := c.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		wg.Add(1)
		go func(r int, cli interface {
			Read(context.Context, string) ([]byte, error)
		}) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(files)
				got, err := cli.Read(ctx, ds.FilePath(i))
				if err != nil {
					errCh <- fmt.Errorf("reader %d file %d: %w", r, i, err)
					return
				}
				want := ds.SampleContent(i)
				if len(got) != len(want) || got[0] != want[0] || got[len(got)-1] != want[len(want)-1] {
					errCh <- fmt.Errorf("reader %d file %d: corrupt content", r, i)
					return
				}
				n, _ := readCount.LoadOrStore(r, new(int))
				*(n.(*int))++
			}
		}(r, cli)
	}

	// Chaos: kill nodes at random times in random modes.
	chaosRng := rand.New(rand.NewSource(99))
	for k := 0; k < failures; k++ {
		time.Sleep(time.Duration(30+chaosRng.Intn(60)) * time.Millisecond)
		alive := c.aliveNodes()
		if len(alive) <= nodes-failures {
			break
		}
		victim := alive[chaosRng.Intn(len(alive))]
		mode := FailUnresponsive
		if chaosRng.Intn(2) == 0 {
			mode = FailKill
		}
		if err := c.Fail(victim, mode); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(150 * time.Millisecond) // let readers ride through recovery
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	total := 0
	readCount.Range(func(_, v interface{}) bool { total += *(v.(*int)); return true })
	if total < files {
		t.Fatalf("only %d reads completed; chaos starved the workload", total)
	}

	// PFS-read bound: cold misses (≤ files) plus at most one recache per
	// file per failure.
	reads, _, _ := c.PFS().Counters()
	bound := int64(files * (1 + failures))
	if reads > bound {
		t.Errorf("PFS reads %d exceed bound %d — recaching is leaking", reads, bound)
	}
	t.Logf("chaos: %d reads, %d PFS fetches (bound %d), %d survivors",
		total, reads, bound, len(c.aliveNodes()))
}
