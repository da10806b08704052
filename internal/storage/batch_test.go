package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestPutBatchBasic(t *testing.T) {
	n := NewNVMe(0)
	entries := make([]BatchEntry, 20)
	for i := range entries {
		entries[i] = BatchEntry{Path: fmt.Sprintf("b/f%02d", i), Data: []byte{byte(i)}}
	}
	for i, err := range n.PutBatch(entries) {
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
	}
	for i := range entries {
		got, err := n.Get(entries[i].Path)
		if err != nil || got[0] != byte(i) {
			t.Fatalf("get %s: %v, %v", entries[i].Path, got, err)
		}
	}
	objs, bytes := n.Stats()
	if objs != 20 || bytes != 20 {
		t.Fatalf("stats: %d objects / %d bytes, want 20/20", objs, bytes)
	}
}

func TestPutBatchMixedTooLarge(t *testing.T) {
	n := NewNVMe(16)
	errs := n.PutBatch([]BatchEntry{
		{Path: "small", Data: []byte("abc")},
		{Path: "huge", Data: make([]byte, 64)},
		{Path: "small2", Data: []byte("def")},
	})
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("good entries failed: %v / %v", errs[0], errs[2])
	}
	if !errors.Is(errs[1], ErrTooLarge) {
		t.Fatalf("oversized entry: err=%v, want ErrTooLarge", errs[1])
	}
	if _, err := n.Get("small"); err != nil {
		t.Fatalf("batch-mate of an oversized entry lost: %v", err)
	}
}

func TestPutBatchAllTooLarge(t *testing.T) {
	n := NewNVMe(4)
	errs := n.PutBatch([]BatchEntry{
		{Path: "a", Data: make([]byte, 8)},
		{Path: "b", Data: make([]byte, 8)},
	})
	for i, err := range errs {
		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("entry %d: %v", i, err)
		}
	}
	if objs, _ := n.Stats(); objs != 0 {
		t.Fatalf("store not empty: %d objects", objs)
	}
}

func TestPutBatchEvictsToCapacity(t *testing.T) {
	n := NewNVMe(100)
	// Fill near capacity, then batch-insert enough to force eviction.
	for i := 0; i < 9; i++ {
		if err := n.Put(fmt.Sprintf("old/%d", i), make([]byte, 10)); err != nil {
			t.Fatal(err)
		}
	}
	entries := make([]BatchEntry, 5)
	for i := range entries {
		entries[i] = BatchEntry{Path: fmt.Sprintf("new/%d", i), Data: make([]byte, 10)}
	}
	for i, err := range n.PutBatch(entries) {
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
	}
	if _, bytes := n.Stats(); bytes > 100 {
		t.Fatalf("capacity exceeded after batch: %d bytes", bytes)
	}
	// Every batch entry must have survived its own insert round — a
	// batch may evict older objects but never its own members.
	for i := range entries {
		if _, err := n.Get(entries[i].Path); err != nil {
			t.Fatalf("batch entry %s evicted by its own batch: %v", entries[i].Path, err)
		}
	}
}

func TestPutBatchLargerThanCacheDegrades(t *testing.T) {
	// A batch whose total exceeds the whole cache cannot keep every
	// member; it must still restore the capacity invariant and keep the
	// newest insert, like a run of sequential Puts would.
	n := NewNVMe(32)
	entries := make([]BatchEntry, 8)
	for i := range entries {
		entries[i] = BatchEntry{Path: fmt.Sprintf("big/%d", i), Data: make([]byte, 8)}
	}
	for i, err := range n.PutBatch(entries) {
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
	}
	if _, bytes := n.Stats(); bytes > 32 {
		t.Fatalf("capacity invariant broken: %d bytes", bytes)
	}
	if objs, _ := n.Stats(); objs == 0 {
		t.Fatal("cache empty after oversized batch; newest insert should survive")
	}
}

func TestPutBatchReplaceAccountsBytes(t *testing.T) {
	n := NewNVMe(0)
	if err := n.Put("k", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	errs := n.PutBatch([]BatchEntry{{Path: "k", Data: []byte("xy")}})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	objs, bytes := n.Stats()
	if objs != 1 || bytes != 2 {
		t.Fatalf("after replace: %d objects / %d bytes, want 1/2", objs, bytes)
	}
}

func TestPutBatchConcurrentWithReads(t *testing.T) {
	n := NewNVMe(1 << 16)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				entries := make([]BatchEntry, 16)
				for i := range entries {
					entries[i] = BatchEntry{
						Path: fmt.Sprintf("w%d/r%d/f%d", w, r, i),
						Data: make([]byte, 32),
					}
				}
				for j, err := range n.PutBatch(entries) {
					if err != nil {
						t.Errorf("w%d r%d entry %d: %v", w, r, j, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_, _ = n.Get(fmt.Sprintf("w0/r0/f%d", i%16))
		}
	}()
	wg.Wait()
	if _, bytes := n.Stats(); bytes > 1<<16 {
		t.Fatalf("capacity exceeded: %d bytes", bytes)
	}
}

// TestNVMeAllocs pins the store's allocations per operation at the layer
// ledger's figures (bench: storage.nvme_*_allocs), so the shared cache
// underneath cannot grow the hot path unnoticed: a hit allocates
// nothing, and an insert into a full store little beyond the entry it
// makes resident.
func TestNVMeAllocs(t *testing.T) {
	const (
		objects = 1024
		batch   = 64 // hvac.DefaultMaxBatchEntries
	)
	body := make([]byte, 4096)
	paths := make([]string, 8*objects) // a path comes round again long after its eviction
	for i := range paths {
		paths[i] = fmt.Sprintf("cosmoUniverse/train/univ_%06d.tfrecord", i)
	}
	n := NewNVMe(objects * int64(len(body)))
	next := 0
	newKey := func() string { next++; return paths[next%len(paths)] }
	for i := 0; i < objects; i++ {
		if err := n.Put(newKey(), body); err != nil {
			t.Fatal(err)
		}
	}
	entries := make([]BatchEntry, batch)
	for _, c := range []struct {
		op      string
		per     float64 // objects per run
		ceiling float64
		run     func()
	}{
		{"Get hit", 1, 0, func() {
			if _, err := n.Get(paths[next%len(paths)]); err != nil {
				t.Fatal(err)
			}
		}},
		{"Put of a new key into a full store", 1, 2, func() {
			if err := n.Put(newKey(), body); err != nil {
				t.Fatal(err)
			}
		}},
		{"PutBatch of new keys into a full store, per entry", batch, 3.5, func() {
			for k := range entries {
				entries[k] = BatchEntry{Path: newKey(), Data: body}
			}
			n.PutBatch(entries)
		}},
	} {
		if got := testing.AllocsPerRun(50, c.run) / c.per; got > c.ceiling {
			t.Errorf("%s: %.2f allocations, ceiling %.1f", c.op, got, c.ceiling)
		} else {
			t.Logf("%s: %.2f allocations", c.op, got)
		}
	}
	if _, _, evictions := n.Counters(); evictions == 0 {
		t.Error("the store was never full")
	}
}
