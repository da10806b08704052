package shardcache

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// model is the sequential specification of an always-admitting Cache
// with one shard: a map and a slice in LRU order.
type model struct {
	capacity, used int64
	data           map[string][]byte
	batch          map[string]uint64 // the batch put that stored the path; 0 for put
	lru            []string          // least recently used first
	evicted        []string          // every displaced path, in order
}

func (m *model) remove(path string) {
	m.used -= int64(len(m.data[path]))
	delete(m.data, path)
	for i, p := range m.lru {
		if p == path {
			m.lru = append(m.lru[:i], m.lru[i+1:]...)
			return
		}
	}
}

func (m *model) get(path string) ([]byte, bool) {
	data, ok := m.data[path]
	if ok {
		m.remove(path)
		m.insert(path, data, m.batch[path])
	}
	return data, ok
}

func (m *model) insert(path string, data []byte, batch uint64) {
	m.data[path], m.batch[path] = data, batch
	m.lru = append(m.lru, path)
	m.used += int64(len(data))
}

// put reserves before it inserts: the size difference with the resident
// copy kept; failing that the full size with nothing kept; failing that
// without the batch's protection.
func (m *model) put(path string, data []byte, batch *uint64) bool {
	size := int64(len(data))
	if m.capacity > 0 && size > m.capacity {
		return false
	}
	keep, need := path, size-int64(len(m.data[path]))
	for m.capacity > 0 && m.used+need > m.capacity {
		victim := ""
		for _, p := range m.lru {
			if p != keep && (*batch == 0 || m.batch[p] != *batch) {
				victim = p
				break
			}
		}
		switch {
		case victim != "":
			m.remove(victim)
			m.evicted = append(m.evicted, victim)
		case need != size:
			keep, need = "", size
		case keep != "":
			keep = ""
		default:
			*batch = 0
		}
	}
	if _, resident := m.data[path]; resident {
		m.remove(path)
	}
	m.insert(path, data, *batch)
	return true
}

func (m *model) clear() {
	for len(m.lru) > 0 {
		m.remove(m.lru[0])
	}
}

// TestModelSequential drives seeded random op sequences against the
// cache. With one shard it must agree with the model exactly — every
// result, the resident set and its bytes, and the order in which objects
// are displaced. With sixteen the victim order is per-shard-approximate,
// so only the invariants are checked, as they are with one, after every
// op: the byte gauge is the sum of the contents and of the shard gauges
// and never exceeds capacity, the object gauge is the number of
// residents, a resident reads back as what was last stored, the newest
// insert is resident, and so is every member of a batch that fits in
// the cache.
func TestModelSequential(t *testing.T) {
	const (
		capacity = 2000
		keys     = 48
		ops      = 3000
	)
	for _, shards := range []int{1, 16} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var evicted []string
			c := New(capacity, shards, 0, func(path string, data []byte) {
				evicted = append(evicted, path)
			})
			m := &model{capacity: capacity, data: map[string][]byte{}, batch: map[string]uint64{}}
			exact := shards == 1
			stored := map[string][]byte{} // what each path was last given
			batches := uint64(0)
			fail := func(op int, format string, args ...any) {
				t.Helper()
				t.Fatalf("shards=%d seed=%d op %d: %s", shards, seed, op, fmt.Sprintf(format, args...))
			}
			object := func() (string, []byte) {
				size := rng.Intn(400)
				if rng.Intn(50) == 0 {
					size = capacity - rng.Intn(3) + 1 // at, and just over, the whole cache
				}
				return fmt.Sprintf("k%02d", rng.Intn(keys)), bytes.Repeat([]byte{byte(rng.Intn(256))}, size)
			}
			for op := 0; op < ops; op++ {
				var newest []Entry // what this op stored and must still hold
				path, data := object()
				switch r := rng.Intn(100); {
				case r < 40:
					none := uint64(0)
					if got, want := c.Put(path, data), len(data) <= capacity; got != want {
						fail(op, "Put(%s, %d B) = %v", path, len(data), got)
					} else if got {
						m.put(path, data, &none)
						newest = []Entry{{path, data}}
						stored[path] = data
					}
				case r < 55:
					var batch []Entry
					seen, total := map[string]bool{}, 0
					for n := 1 + rng.Intn(12); len(batch) < n; path, data = object() {
						if !seen[path] && len(data) <= capacity {
							seen[path] = true
							batch = append(batch, Entry{path, data})
							total += len(data)
						}
					}
					if refused := c.PutBatch(batch); refused != nil {
						fail(op, "PutBatch refused %v", refused)
					}
					batches++
					id := batches
					for _, e := range batch {
						m.put(e.Path, e.Data, &id)
						stored[e.Path] = e.Data
					}
					// A batch bigger than the cache keeps its last insert,
					// which only one shard makes the last entry.
					if total <= capacity {
						newest = batch
					} else if exact {
						newest = batch[len(batch)-1:]
					}
				case r < 80:
					got, ok := c.Get(path)
					if _, want := m.get(path); exact && ok != want {
						fail(op, "Get(%s) = %v, model says %v", path, ok, want)
					} else if ok && !bytes.Equal(got, stored[path]) {
						fail(op, "Get(%s) = %d B, last stored %d B", path, len(got), len(stored[path]))
					}
				case r < 85:
					_, want := m.data[path]
					if got, ok := c.Peek(path); exact && ok != want {
						fail(op, "Peek(%s) = %v", path, ok)
					} else if ok && !bytes.Equal(got, stored[path]) {
						fail(op, "Peek(%s) = %d B, last stored %d B", path, len(got), len(stored[path]))
					}
				case r < 99:
					_, want := m.data[path]
					if got := c.Delete(path); exact && got != want {
						fail(op, "Delete(%s) = %v", path, got)
					} else if got && c.Has(path) {
						fail(op, "%s resident after Delete", path)
					}
					m.remove(path)
				default:
					c.Clear()
					m.clear()
				}

				objects, used := c.StatsAtomic()
				var sum, shardSum int64
				paths := c.Paths()
				for _, p := range paths {
					data, _ := c.Peek(p)
					sum += int64(len(data))
					if !bytes.Equal(data, stored[p]) {
						fail(op, "resident %s holds %d B, last stored %d B", p, len(data), len(stored[p]))
					}
				}
				for _, b := range c.ShardBytes() {
					shardSum += b
				}
				if used != sum || used != shardSum || objects != int64(len(paths)) || used > capacity {
					fail(op, "gauges: used=%d Σlen=%d ΣShardBytes=%d objects=%d residents=%d capacity=%d",
						used, sum, shardSum, objects, len(paths), capacity)
				}
				for _, e := range newest {
					if data, ok := c.Peek(e.Path); !ok || !bytes.Equal(data, e.Data) {
						fail(op, "%s (%d B) stored by this op is not resident", e.Path, len(e.Data))
					}
				}
				if !exact {
					continue
				}
				if used != m.used || len(paths) != len(m.lru) {
					fail(op, "cache holds %d objects / %d B, model %d / %d", len(paths), used, len(m.lru), m.used)
				}
				for _, p := range m.lru {
					if data, ok := c.Peek(p); !ok || !bytes.Equal(data, m.data[p]) {
						fail(op, "model resident %s (%d B): cache has %d B, %v", p, len(m.data[p]), len(data), ok)
					}
				}
				if fmt.Sprint(evicted) != fmt.Sprint(m.evicted) {
					fail(op, "displaced %v, model says %v", evicted, m.evicted)
				}
				evicted, m.evicted = evicted[:0], m.evicted[:0]
			}
		}
	}
}
