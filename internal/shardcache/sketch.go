package shardcache

import "math/bits"

const (
	// admitMargin is the hysteresis of the admission rule: a candidate
	// displaces a victim only if its estimated read count exceeds the
	// victim's by more than this. One of the margin is the very read
	// that is offering the candidate (Get counted its miss before the
	// Offer runs); the other keeps near-ties at the cold edge of the
	// resident set from trading places on every read, which is what a
	// uniform scan would otherwise turn into per-read churn.
	admitMargin = 2
	// agePerObject is the length of the frequency window in reads per
	// resident object: long enough to rank the cold edge of the resident
	// set against what is knocking, short enough that 4-bit counters
	// saturate only on the head of the distribution.
	agePerObject = 32
	sketchRows   = 4
	counterMax   = 15
)

// frequency is the admission rule of Offer: a read-count sketch per
// shard, each guarded by its shard's lock, which Get touches from the
// hash it already computed for the shard pick — hit or miss, so
// non-residents accumulate history too.
type frequency struct {
	cache  *Cache
	shards []sketch
}

// newFrequency sizes one sketch per shard from the shard's share of
// capacity, one counter per grain bytes in each row, all of them cut
// from one zeroed allocation: a cluster boots its caches on the clock.
func newFrequency(c *Cache, grain int64) *frequency {
	f := &frequency{cache: c, shards: make([]sketch, len(c.shards))}
	counters := sketchWidth(c.capacity/int64(len(c.shards)), grain)
	words := make([]uint64, len(f.shards)*sketchRows*counters/16)
	for i := range f.shards {
		f.shards[i] = newSketch(counters, words[i*sketchRows*counters/16:])
	}
	return f
}

// touch counts one read toward hash's estimate.
func (f *frequency) touch(shard int, hash uint64) {
	if f.shards[shard].touch(hash) {
		// The next window is agePerObject reads for each object the
		// shard holds on average, so it tracks the resident set whatever
		// the object size (the sketch caps it at what its width can tell
		// apart).
		objects, _ := f.cache.StatsAtomic()
		f.shards[shard].age(int(objects) * agePerObject / len(f.shards))
	}
}

// weigh is the candidate's estimated read count.
func (f *frequency) weigh(shard int, hash uint64) int { return f.shards[shard].estimate(hash) }

// displaces is the rule: a victim goes only to a candidate read more
// than admitMargin more often.
func (f *frequency) displaces(count int, shard int, victim uint64) bool {
	return f.shards[shard].estimate(victim)+admitMargin < count
}

// sketch is a count-min sketch of 4-bit saturating counters that halves
// itself every period touches, so an estimate is a read count over a
// sliding window rather than since boot. It is not safe for concurrent
// use; the shard lock guards it.
type sketch struct {
	rows    [sketchRows][]uint64 // 16 counters to a word
	shift   uint                 // 64 - log2(counters per row)
	samples int
	period  int
}

// rowSeeds are odd multipliers; each row indexes by the top bits of
// hash*seed, so the four counters of a key are independent picks.
var rowSeeds = [sketchRows]uint64{
	0xff51afd7ed558ccd, 0xc4ceb9fe1a85ec53, 0x9e3779b97f4a7c15, 0xd6e8feb86659fd93,
}

// sketchWidth is the counters in each row of a sketch for a shard
// serving capacity bytes: one per grain bytes of it, a power of two and
// at least 16.
func sketchWidth(capacity, grain int64) int {
	counters := 16
	for int64(counters)*grain < capacity {
		counters <<= 1
	}
	return counters
}

// newSketch is a sketch of counters a row whose rows are cut from the
// zeroed words, in its first window.
func newSketch(counters int, words []uint64) sketch {
	s := sketch{shift: uint(64 - bits.TrailingZeros(uint(counters))), period: agePerObject}
	for i := range s.rows {
		s.rows[i] = words[i*counters/16 : (i+1)*counters/16 : (i+1)*counters/16]
	}
	return s
}

// slot returns the word and bit offset of hash's counter in row.
func (s *sketch) slot(row int, hash uint64) (word *uint64, off uint) {
	i := (hash * rowSeeds[row]) >> s.shift
	return &s.rows[row][i>>4], uint(i&15) * 4
}

// touch counts one read of hash and reports whether the window is over
// (the caller then calls age with the next window's length).
func (s *sketch) touch(hash uint64) bool {
	for row := range s.rows {
		word, off := s.slot(row, hash)
		if (*word>>off)&counterMax < counterMax {
			*word += 1 << off
		}
	}
	s.samples++
	return s.samples >= s.period
}

// estimate returns hash's read count in the current window: never low,
// high only when all four of its counters are shared with busier keys.
func (s *sketch) estimate(hash uint64) int {
	est := counterMax
	for row := range s.rows {
		word, off := s.slot(row, hash)
		est = min(est, int((*word>>off)&counterMax))
	}
	return est
}

// age halves every counter and starts a window of period touches,
// bounded above by half a row — past that, distinct keys share counters
// too often for estimates to rank them — and below by one object's
// worth.
func (s *sketch) age(period int) {
	for row := range s.rows {
		for i, w := range s.rows[row] {
			s.rows[row][i] = (w >> 1) & 0x7777777777777777
		}
	}
	s.samples = 0
	s.period = max(min(period, len(s.rows[0])*16/2), agePerObject)
}
