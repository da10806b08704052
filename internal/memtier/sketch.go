package memtier

import "math/bits"

const (
	// sketchBytesPerCounter sizes a sketch row from the byte budget it
	// serves: one 4-bit counter per 64 bytes of capacity, which is 64
	// counters per resident 4 KiB object. With four rows the sketch
	// costs capacity/32 bytes.
	sketchBytesPerCounter = 64
	// agePerObject is the length of the frequency window in reads per
	// resident object: long enough to rank the cold edge of the resident
	// set against what is knocking, short enough that 4-bit counters
	// saturate only on the head of the distribution.
	agePerObject = 32
	sketchRows   = 4
	counterMax   = 15
)

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

// newSketch sizes a sketch for a shard serving capacity bytes.
func newSketch(capacity int64) sketch {
	counters := 16
	for int64(counters)*sketchBytesPerCounter < capacity {
		counters <<= 1
	}
	s := sketch{shift: uint(64 - bits.TrailingZeros(uint(counters)))}
	for i := range s.rows {
		s.rows[i] = make([]uint64, counters/16)
	}
	s.age(0)
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
