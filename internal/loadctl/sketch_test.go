package loadctl

import (
	"fmt"
	"sync"
	"testing"
)

// sketchConfig returns an unsampled sketch config so tests are exact.
func sketchConfig() Config {
	return Config{
		SketchSize:    8,
		SampleRate:    1,
		WindowTouches: 1 << 20, // effectively no aging unless a test wants it
		HotFraction:   0.02,
	}
}

func TestSketchFlagsSkewedKey(t *testing.T) {
	cfg := sketchConfig()
	s := NewSketch(cfg)
	// One dominant key (50% of traffic) among background noise.
	for i := 0; i < 400; i++ {
		s.Touch("hot")
		s.Touch(fmt.Sprintf("cold-%d", i%100))
	}
	if !s.IsHot("hot") {
		t.Fatal("dominant key not flagged hot")
	}
	if s.IsHot("cold-1") {
		t.Fatal("background key flagged hot")
	}
	top := s.Top(1)
	if len(top) == 0 || top[0].Key != "hot" {
		t.Fatalf("Top(1) = %+v, want the hot key first", top)
	}
	if s.Flagged() < 1 {
		t.Fatal("promotion not counted")
	}
}

func TestSketchUniformWorkloadStaysCold(t *testing.T) {
	// More keys than slots, uniform access: space-saving slots churn and
	// inherit counts, but the guaranteed count stays tiny — nothing may
	// be flagged hot.
	s := NewSketch(sketchConfig())
	for round := 0; round < 2000; round++ {
		for i := 0; i < 64; i++ {
			s.Touch(fmt.Sprintf("key-%d", i))
		}
	}
	if n := s.HotCount(); n != 0 {
		t.Fatalf("uniform workload flagged %d hot keys: %+v", n, s.Top(8))
	}
}

func TestSketchAgingDemotesCooledKey(t *testing.T) {
	cfg := sketchConfig()
	cfg.WindowTouches = 256
	s := NewSketch(cfg)
	for i := 0; i < 100; i++ {
		s.Touch("flash")
	}
	if !s.IsHot("flash") {
		t.Fatal("key not hot after burst")
	}
	// The key cools off; several aging windows of other traffic halve it
	// below threshold and it must be demoted.
	for i := 0; i < 8*256; i++ {
		s.Touch(fmt.Sprintf("other-%d", i%4))
	}
	if s.IsHot("flash") {
		t.Fatal("cooled key still flagged hot after aging")
	}
}

func TestSketchBoundedMemory(t *testing.T) {
	cfg := sketchConfig()
	cfg.SketchSize = 16
	s := NewSketch(cfg)
	for i := 0; i < 100000; i++ {
		s.Touch(fmt.Sprintf("key-%d", i))
	}
	if n := len(s.Top(1 << 20)); n > 16 {
		t.Fatalf("sketch holds %d entries, cap is 16", n)
	}
}

// TestSketchRace hammers the sketch from many goroutines; run with
// -race (CI's test job does) to verify the sampled fast path, the
// published hot set and the locked update path are data-race free.
func TestSketchRace(t *testing.T) {
	cfg := Config{SketchSize: 32, SampleRate: 4, WindowTouches: 512, HotFraction: 0.05}
	s := NewSketch(cfg)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				switch i % 4 {
				case 0:
					s.Touch("hot")
				case 1:
					s.Touch(fmt.Sprintf("w%d-%d", w, i%97))
				case 2:
					s.IsHot("hot")
				default:
					if i%1000 == 0 {
						s.Top(4)
					} else {
						s.Touch("warm")
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if !s.IsHot("hot") {
		t.Log("hot key not flagged under race mix (timing-dependent, not fatal)")
	}
}
