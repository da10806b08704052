package hvac

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/storage"
)

// TestReadPanicReturnsAdmissionSlot: a read that panics after it was
// admitted — in its first stage, or in its continuation — still gives
// its admission slot back, so the RPC server's recovery answers the
// one request with an error instead of shrinking the node's read
// capacity for good. The NVMe store is taken away to make the tier
// probe panic; twice as many reads panic as there are slots.
func TestReadPanicReturnsAdmissionSlot(t *testing.T) {
	for _, tc := range []struct {
		name  string
		delay time.Duration // with a device modelled, NVMe is probed in the continuation
	}{
		{"first stage", 0},
		{"continuation", 50 * time.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const slots = 4
			srv := NewServer(ServerConfig{Node: "node-00", AdmissionLimit: slots, ReadDelay: tc.delay}, storage.NewPFS())
			t.Cleanup(srv.Close)
			srv.nvme = nil
			req := (&ReadReq{Path: "p", Length: -1}).Marshal()
			for i := 1; i <= 2*slots; i++ {
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("read %d did not panic", i)
						}
					}()
					srv.HandleLeased(OpRead, req, 0)
				}()
				if held := srv.Limiter().Inflight(); held != 0 {
					t.Fatalf("after %d panicking reads: %d admission slots held, want 0", i, held)
				}
			}
		})
	}
}

// TestColdReadProbesEachTierOnce: a read that misses both tiers is split
// between the connection's reader (RAM, and NVMe when no device is
// modelled) and its continuation (the device, NVMe behind it, the miss
// flight), and still looks at each tier exactly once: one RAM miss —
// the tier's Get is its one frequency-sketch touch, so hits+misses is the
// touch count — one NVMe miss and one PFS read. The repeat read is a RAM
// hit that touches nothing else.
func TestColdReadProbesEachTierOnce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		delay time.Duration
	}{
		{"no device", 0},
		{"device", 50 * time.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			network := rpc.NewInprocNetwork()
			pfs := storage.NewPFS()
			srv := NewServer(ServerConfig{Node: "node-00", RAMCapacity: 1 << 20, ReadDelay: tc.delay}, pfs)
			lis, err := network.Listen("node-00")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(lis)
			t.Cleanup(srv.Close)
			c := ramClient(t, network, pfs)
			want := bytes.Repeat([]byte("x"), 4096)
			pfs.Put("cold", want)

			check := func(read int, ramHits, ramMisses, nvmeMisses, pfsReads int64) {
				t.Helper()
				got, err := c.Read(context.Background(), "cold")
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("read %d: %d bytes, err %v", read, len(got), err)
				}
				hits, misses, _, _, _, _ := srv.RAM().Counters()
				nh, nm, _ := srv.NVMe().Counters()
				reads, _, _ := pfs.Counters()
				if hits != ramHits || misses != ramMisses || nh != 0 || nm != nvmeMisses || reads != pfsReads {
					t.Errorf("after read %d: RAM %d hits %d misses, NVMe %d hits %d misses, PFS %d reads; want RAM %d/%d, NVMe 0/%d, PFS %d",
						read, hits, misses, nh, nm, reads, ramHits, ramMisses, nvmeMisses, pfsReads)
				}
			}
			check(1, 0, 1, 1, 1)
			check(2, 1, 1, 1, 1)
		})
	}
}
