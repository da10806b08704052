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
// capacity for good. Taking the NVMe store away makes the first stage's
// index probe panic; taking the PFS away makes the continuation's miss
// flight panic. Twice as many reads panic as there are slots.
func TestReadPanicReturnsAdmissionSlot(t *testing.T) {
	for _, tc := range []struct {
		name string
		take func(*Server)
	}{
		{"first stage", func(s *Server) { s.nvme = nil }},
		{"continuation", func(s *Server) { s.pfs = nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const slots = 4
			srv := NewServer(ServerConfig{Node: "node-00", AdmissionLimit: slots}, storage.NewPFS())
			t.Cleanup(srv.Close)
			tc.take(srv)
			req := (&ReadReq{Path: "p", Length: -1}).Marshal()
			for i := 1; i <= 2*slots; i++ {
				stage := "first stage"
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("read %d did not panic", i)
						}
					}()
					_, cont := srv.Stage(OpRead, req)
					stage = "continuation"
					if cont != nil {
						cont.Continue(OpRead, req, 0)
					}
				}()
				if stage != tc.name {
					t.Fatalf("read %d panicked in the %s, want the %s", i, stage, tc.name)
				}
				if held := srv.Limiter().Inflight(); held != 0 {
					t.Fatalf("after %d panicking reads: %d admission slots held, want 0", i, held)
				}
			}
		})
	}
}

// TestColdReadProbesEachTierOnce: a read that misses both tiers is split
// between the connection's reader (RAM, then NVMe's index) and its
// continuation (the miss flight — a device, when one is modelled, is not
// read for an object NVMe does not hold), and still looks at each tier
// exactly once: one RAM miss —
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

// TestDeviceChargesNVMeHitsOnly: the modelled device is read only for an
// object on NVMe. A cold read goes from NVMe's index straight to the
// miss flight — one PFS read, no device wait — and the repeat read,
// served from NVMe, waits the device out.
func TestDeviceChargesNVMeHitsOnly(t *testing.T) {
	const delay = 50 * time.Millisecond
	pfs := storage.NewPFS()
	srv := NewServer(ServerConfig{Node: "node-00", ReadDelay: delay}, pfs)
	t.Cleanup(srv.Close)
	want := bytes.Repeat([]byte("x"), 4096)
	pfs.Put("f", want)
	req := (&ReadReq{Path: "f", Length: -1}).Marshal()
	read := func(n int) time.Duration {
		t.Helper()
		start := time.Now()
		lr := srv.HandleLeased(OpRead, req, 0)
		took := time.Since(start)
		if lr.Status != rpc.StatusOK || !bytes.Equal(lr.Ext, want) {
			t.Fatalf("read %d: status %d, %d bytes", n, lr.Status, len(lr.Ext))
		}
		return took
	}
	if took := read(1); took >= delay/2 {
		t.Errorf("cold read took %v; a miss must not wait out the %v device", took, delay)
	}
	if reads, _, _ := pfs.Counters(); reads != 1 {
		t.Errorf("cold read: %d PFS reads, want 1", reads)
	}
	if took := read(2); took < delay {
		t.Errorf("NVMe-served read took %v, want >= the %v device read", took, delay)
	}
	if reads, _, _ := pfs.Counters(); reads != 1 {
		t.Errorf("after the NVMe-served read: %d PFS reads, want 1", reads)
	}
}

// TestDeviceWaitServesAdmittedBytes: an NVMe hit carries the slice its
// index probe found into the device wait. Stored slices are immutable,
// so an object deleted while its read waits on the device is still
// served — the bytes it was admitted with, and no PFS fetch. The probe
// runs on the test's goroutine, so the delete lands after it however
// the continuation is scheduled; the pause only puts it inside the wait.
func TestDeviceWaitServesAdmittedBytes(t *testing.T) {
	pfs := storage.NewPFS()
	srv := NewServer(ServerConfig{Node: "node-00", ReadDelay: 50 * time.Millisecond}, pfs)
	t.Cleanup(srv.Close)
	want := []byte("admitted-bytes")
	pfs.Put("f", want)
	if err := srv.NVMe().Put("f", want); err != nil {
		t.Fatal(err)
	}
	req := (&ReadReq{Path: "f", Length: -1}).Marshal()
	_, cont := srv.Stage(OpRead, req)
	if cont == nil {
		t.Fatal("an NVMe hit with a device modelled answered in the first stage")
	}
	done := make(chan rpc.LeasedResp)
	go func() { done <- cont.Continue(OpRead, req, 0) }()
	time.Sleep(5 * time.Millisecond)
	srv.NVMe().Delete("f")
	lr := <-done
	if lr.Status != rpc.StatusOK || !bytes.Equal(lr.Ext, want) {
		t.Fatalf("read: status %d, body %q; want %q", lr.Status, lr.Ext, want)
	}
	if reads, _, _ := pfs.Counters(); reads != 0 {
		t.Errorf("%d PFS reads, want 0: the read had its bytes before the delete", reads)
	}
}
