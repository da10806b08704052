package shardcache

import "testing"

// TestSketchNeverLow: within a window a key's estimate is at least its
// true read count (capped at what a 4-bit counter holds), a window's
// end halves every estimate, and the window is as long as asked for,
// within what the sketch's width can tell apart.
func TestSketchNeverLow(t *testing.T) {
	counters := sketchWidth(64*1024, 512)
	if counters != 128 {
		t.Fatalf("%d counters a row, want 128", counters)
	}
	s := newSketch(counters, make([]uint64, sketchRows*counters/16))
	if s.period != agePerObject {
		t.Fatalf("a fresh sketch's window is %d touches, want %d", s.period, agePerObject)
	}
	s.age(1 << 20)
	if s.period != 64 {
		t.Fatalf("window %d touches, want half a row, 64", s.period)
	}
	counts := map[uint64]int{}
	for i := 0; i < 63; i++ {
		h := Hash(policyKey(i % 9))
		counts[h]++
		if s.touch(h) {
			t.Fatalf("window ended after %d of its 64 touches", i+1)
		}
	}
	for h, n := range counts {
		if est := s.estimate(h); est < min(n, counterMax) {
			t.Errorf("estimate %d below the true count %d", est, n)
		}
	}
	if !s.touch(Hash(policyKey(0))) {
		t.Fatal("the 64th touch did not end the window")
	}
	before := map[uint64]int{}
	for h := range counts {
		before[h] = s.estimate(h)
	}
	s.age(64)
	for h, est := range before {
		if got := s.estimate(h); got != est/2 {
			t.Errorf("aged estimate %d, want half of %d", got, est)
		}
	}
}

func policyKey(i int) string { return "data/f" + string(rune('a'+i)) }
