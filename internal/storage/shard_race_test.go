package storage

import (
	"fmt"
	"sync"
	"testing"
)

// TestPFSShardedConcurrent races reads, writes, deletes and stats on the
// sharded PFS; byte accounting must balance after a full delete.
func TestPFSShardedConcurrent(t *testing.T) {
	p := NewPFS()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("ds/f%04d", (i+w*37)%128)
				switch i % 4 {
				case 0:
					p.Put(k, make([]byte, 32))
				case 1:
					p.Get(k)
				case 2:
					p.Has(k)
				case 3:
					p.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < 128; i++ {
		p.Delete(fmt.Sprintf("ds/f%04d", i))
	}
	if objs, bytes := p.Stats(); objs != 0 || bytes != 0 {
		t.Errorf("after deleting all: objs=%d bytes=%d, want 0,0", objs, bytes)
	}
}
