package shardcache

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestShardIsCacheLinePadded(t *testing.T) {
	if size := unsafe.Sizeof(shard{}); size%64 != 0 {
		t.Fatalf("shard is %d bytes: neighbouring shards' locks and counters share a cache line", size)
	}
}

// readCounts is the suite's frequency policy: exact per-shard read
// counts under the admission rule (a victim goes only to a candidate
// read more than margin more often), so a test can say exactly who
// displaces whom; sketch_test.go holds the sketch itself. The lists are
// unsynchronised on purpose — the race detector then checks that the
// cache calls its admission only under the lock of the shard it names.
type readCounts [][]readCount

type readCount struct {
	hash uint64
	n    int
}

const margin = 2

func (r readCounts) of(shard int, hash uint64) *int {
	for i := range r[shard] {
		if r[shard][i].hash == hash {
			return &r[shard][i].n
		}
	}
	r[shard] = append(r[shard], readCount{hash: hash})
	return &r[shard][len(r[shard])-1].n
}

func (r readCounts) touch(shard int, hash uint64)     { *r.of(shard, hash)++ }
func (r readCounts) weigh(shard int, hash uint64) int { return *r.of(shard, hash) }
func (r readCounts) displaces(w int, shard int, victim uint64) bool {
	return *r.of(shard, victim)+margin < w
}

// policies are the two an Offer meets: none (an unbounded cache, or one
// built without a sketch, where Offer is Put) and the frequency rule.
var policies = []struct {
	name      string
	admission func(shards int) admission
}{
	{"always", func(int) admission { return nil }},
	{"frequency", func(shards int) admission { return make(readCounts, shards) }},
}

// newWith is New with the admission replaced by adm.
func newWith(capacity int64, shards int, adm admission, onEvict func(path string, data []byte)) *Cache {
	c := New(capacity, shards, 0, onEvict)
	c.admission = adm
	return c
}

// TestChurnConcurrent hammers a cache from many goroutines with capacity
// set to half the working set, so displacement and cross-shard spill run
// constantly while Offers, Puts-if-absent, batches, Gets, Deletes and
// scrapes race them. The byte budget
// is checked inside the race, on every operation; afterwards the books
// must balance (deleting everything returns used to 0), every displaced
// object must have reached the hook once, and no object may be corrupt.
func TestChurnConcurrent(t *testing.T) {
	const (
		workers  = 8
		files    = 256
		fileSize = 128
		capacity = files * fileSize / 2
	)
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			var handed atomic.Int64
			c := newWith(capacity, 8, pol.admission(8), func(path string, data []byte) {
				handed.Add(1)
			})
			keys := make([]string, files)
			vals := make([][]byte, files)
			for i := range keys {
				keys[i] = fmt.Sprintf("train/f%04d", i)
				vals[i] = bytes.Repeat([]byte{byte(i)}, fileSize)
			}
			var refused atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 4000; i++ {
						// Low keys come up more often, so the frequency
						// policy has both hotter and colder candidates.
						k := (i*7 + w*13) % files
						if i%3 == 0 {
							k %= 32
						}
						switch i % 5 {
						case 0, 1, 2:
							if data, ok := c.Get(keys[k]); !ok {
								if !c.Offer(keys[k], vals[k]) {
									refused.Add(1)
								}
							} else if len(data) != fileSize || data[0] != byte(k) || data[fileSize-1] != byte(k) {
								t.Errorf("get %s: corrupt data", keys[k])
								return
							}
						case 3:
							c.PutBatch([]Entry{{keys[k], vals[k]}, {keys[(k+1)%files], vals[(k+1)%files]}})
						case 4:
							if i%50 == 4 {
								c.Delete(keys[k])
							} else {
								c.PutIfAbsent(keys[k], vals[k])
							}
						}
						if _, used := c.StatsAtomic(); used > capacity {
							t.Errorf("budget overshot mid-race: used=%d > capacity=%d", used, capacity)
							return
						}
					}
				}(w)
			}
			wg.Wait()

			s := c.Snapshot()
			if s.Evictions == 0 || s.Hits == 0 || s.Misses == 0 {
				t.Errorf("implausible counters at half capacity: %+v", s)
			}
			if handed.Load() != s.Evictions {
				t.Errorf("hook saw %d displaced objects, counters say %d", handed.Load(), s.Evictions)
			}
			if vetoes := refused.Load(); (vetoes > 0) != (pol.name == "frequency") {
				t.Errorf("%d puts refused under the %s policy", vetoes, pol.name)
			}
			for _, k := range keys {
				c.Delete(k)
			}
			if objects, used := c.StatsAtomic(); objects != 0 || used != 0 || len(c.Paths()) != 0 {
				t.Errorf("after deleting all: objects=%d used=%d paths=%d, want 0", objects, used, len(c.Paths()))
			}
		})
	}
}

// TestSpillEvictsOtherShards pins the cross-shard budget: with room for
// four objects over sixteen shards, an insert's victims usually live on
// other shards — and the bound holds, the newest object is never its own
// victim, and a candidate the policy lets in is let in wherever its
// victims are.
func TestSpillEvictsOtherShards(t *testing.T) {
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			c := newWith(1024, 16, pol.admission(16), nil)
			for i := 0; i < 200; i++ {
				path := fmt.Sprintf("f%03d", i)
				// Each candidate is read clearly more often than the
				// residents it has to displace.
				for n := 0; n < (i+1)*(margin+1); n++ {
					c.Get(path)
				}
				if !c.Offer(path, make([]byte, 256)) {
					t.Fatalf("put %d refused", i)
				}
				if objects, used := c.StatsAtomic(); used > 1024 || (i >= 3 && objects != 4) {
					t.Fatalf("after put %d: objects=%d used=%d, want 4 within 1024", i, objects, used)
				}
				if !c.Has(path) {
					t.Fatalf("put %d evicted itself", i)
				}
			}
			if s := c.Snapshot(); s.Evictions != 196 || s.Spills == 0 || s.Spills > s.Evictions {
				t.Errorf("evictions=%d spills=%d, want 196 and some of them spills", s.Evictions, s.Spills)
			}
		})
	}
}

// TestClearConcurrentWithPuts races Clear (a node losing its cache)
// against writers; afterwards the accounting must still balance.
func TestClearConcurrentWithPuts(t *testing.T) {
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			const capacity = 64 * 64
			c := newWith(capacity, 8, pol.admission(8), nil)
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						c.Offer(fmt.Sprintf("w%d/f%d", w, i%64), make([]byte, 64))
						if _, used := c.StatsAtomic(); used > capacity {
							t.Errorf("budget overshot mid-race: used=%d > capacity=%d", used, capacity)
							return
						}
					}
				}(w)
			}
			for i := 0; i < 50; i++ {
				c.Clear()
			}
			close(stop)
			wg.Wait()
			c.Clear()
			if objects, used := c.StatsAtomic(); objects != 0 || used != 0 {
				t.Errorf("after final clear: objects=%d used=%d, want 0,0", objects, used)
			}
			c.Put("again", []byte("y"))
			if !c.Has("again") {
				t.Error("cache unusable after Clear")
			}
		})
	}
}

// TestAdmissionAndEvictHook pins the two points an insert varies, on
// one shard so the victim is deterministic: a full cache asks its
// admission before each displacement an Offer makes, a veto leaves
// everything where it was and is counted, and a Put displaces whatever
// the rule would say; what is displaced goes to the hook, what is
// deleted or cleared does not.
func TestAdmissionAndEvictHook(t *testing.T) {
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			var handed []string
			c := newWith(30, 1, pol.admission(1), func(path string, data []byte) {
				handed = append(handed, path)
			})
			for _, p := range []string{"a", "b", "c"} {
				c.Put(p, make([]byte, 10))
			}
			c.Get("a") // so b is the LRU victim
			unread := c.Offer("e", make([]byte, 10))
			if vetoed := pol.name == "frequency"; unread == vetoed {
				t.Fatalf("unread candidate admitted=%v into a full cache", unread)
			} else if vetoed && (!c.Has("b") || len(handed) != 0 || c.Snapshot().Bytes != 30) {
				t.Fatalf("a veto moved something: b=%v handed=%v", c.Has("b"), handed)
			}
			for n := 0; n <= 2*margin; n++ {
				c.Get("d")
			}
			if !c.Offer("d", make([]byte, 10)) {
				t.Fatal("hotter candidate refused")
			}
			if c.Has("b") || !c.Has("a") || !c.Has("d") || len(handed) == 0 || handed[0] != "b" {
				t.Fatalf("wrong victim: b=%v a=%v d=%v handed=%v", c.Has("b"), c.Has("a"), c.Has("d"), handed)
			}
			if refused, vetoed := c.Snapshot().Refused, pol.name == "frequency"; refused != map[bool]int64{true: 1}[vetoed] {
				t.Fatalf("%d offers counted refused", refused)
			}
			// Nothing reads "f", so an Offer of it would lose to the LRU
			// victim; a Put stores it all the same.
			if !c.Put("f", make([]byte, 10)) || c.Has("c") || !c.Has("f") {
				t.Fatalf("a Put into a full cache: f=%v c=%v", c.Has("f"), c.Has("c"))
			}
			before := len(handed)
			c.Delete("a")
			c.Clear()
			if s := c.Snapshot(); len(handed) != before || int64(before) != s.Evictions || s.Bytes != 0 || s.Objects != 0 {
				t.Fatalf("delete/clear ran the hook or miscounted: handed=%v %+v", handed, s)
			}
		})
	}
}

// TestOneObjectBudgetConcurrent gives eight writers a budget for one
// object: most of the time everything a Put could evict is another
// Put's reservation, not yet visible, so it must wait for it rather
// than overshoot or give up.
func TestOneObjectBudgetConcurrent(t *testing.T) {
	for _, shards := range []int{1, 8} {
		c := New(128, shards, 0, nil)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 5000; i++ {
					if !c.Put(fmt.Sprintf("w%d/f%d", w, i%50), make([]byte, 128)) {
						t.Errorf("put refused by a cache that admits always")
						return
					}
					if _, used := c.StatsAtomic(); used > 128 {
						t.Errorf("budget overshot mid-race: used=%d > capacity=128", used)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if s := c.Snapshot(); s.Objects != 1 || s.Bytes != 128 || s.Evictions != 8*5000-1 {
			t.Errorf("shards=%d: %+v, want the last object and every other one evicted", shards, s)
		}
	}
}

// TestPutIfAbsentKeepsResident: a resident copy of the path wins — it is
// as new or newer — and an absent path is stored like a Put, displacing
// whatever it has to even where the admission rule would refuse an
// Offer.
func TestPutIfAbsentKeepsResident(t *testing.T) {
	c := newWith(20, 1, make(readCounts, 1), nil)
	c.Put("a", []byte("newer-copy"))
	if c.PutIfAbsent("a", []byte("older-one")) {
		t.Fatal("PutIfAbsent replaced a resident copy")
	}
	if got, _ := c.Peek("a"); string(got) != "newer-copy" {
		t.Fatalf("resident holds %q", got)
	}
	c.Put("b", make([]byte, 10))
	for n := 0; n < 4*margin; n++ {
		c.Get("a")
		c.Get("b")
	}
	if c.Offer("c", make([]byte, 10)) {
		t.Fatal("an unread Offer displaced a hotter resident")
	}
	if !c.PutIfAbsent("c", make([]byte, 10)) || !c.Has("c") || c.Has("a") {
		t.Fatalf("absent path: c=%v a=%v, want c stored over the LRU victim a", c.Has("c"), c.Has("a"))
	}
	if c.PutIfAbsent("big", make([]byte, 21)) {
		t.Fatal("PutIfAbsent stored an object larger than the cache")
	}
}
