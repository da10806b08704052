package storage

import (
	"sync"
	"sync/atomic"
	"time"
)

// Byte-rate helpers for readable model definitions.
const (
	KiB = 1 << 10
	MiB = 1 << 20
	GiB = 1 << 30
	TiB = 1 << 40
)

// timeFor converts bytes at bytesPerSec into a duration.
func timeFor(bytes int64, bytesPerSec float64) time.Duration {
	if bytesPerSec <= 0 || bytes <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / bytesPerSec * float64(time.Second))
}

// NVMeModel captures per-node NVMe service times. Frontier's node-local
// RAID0 pair delivers ~8 GB/s sequential read and ~4 GB/s write
// (paper §V-A), with sub-100µs access latency.
type NVMeModel struct {
	ReadBandwidth  float64 // bytes/s
	WriteBandwidth float64 // bytes/s
	AccessLatency  time.Duration
}

// FrontierNVMe is the calibrated Frontier node-local device.
func FrontierNVMe() NVMeModel {
	return NVMeModel{
		ReadBandwidth:  8 * GiB,
		WriteBandwidth: 4 * GiB,
		AccessLatency:  80 * time.Microsecond,
	}
}

// ReadTime returns the service time for one read of size bytes.
func (m NVMeModel) ReadTime(bytes int64) time.Duration {
	return m.AccessLatency + timeFor(bytes, m.ReadBandwidth)
}

// WriteTime returns the service time for one write of size bytes.
func (m NVMeModel) WriteTime(bytes int64) time.Duration {
	return m.AccessLatency + timeFor(bytes, m.WriteBandwidth)
}

// NetworkModel captures the interconnect used for remote-NVMe reads
// (Frontier: Cray Slingshot, ~25 GB/s per NIC, microsecond-scale
// latency; the effective per-flow rate we model is conservative).
type NetworkModel struct {
	Bandwidth float64 // bytes/s per flow
	Latency   time.Duration
}

// FrontierNetwork is the calibrated Slingshot per-flow model.
func FrontierNetwork() NetworkModel {
	return NetworkModel{Bandwidth: 12 * GiB, Latency: 5 * time.Microsecond}
}

// TransferTime returns the time to move size bytes over one flow.
func (m NetworkModel) TransferTime(bytes int64) time.Duration {
	return m.Latency + timeFor(bytes, m.Bandwidth)
}

// PFSModel captures the shared parallel file system. Its defining
// features for this paper:
//
//   - the aggregate read bandwidth is shared: k concurrent readers each
//     see Aggregate/k (never more than PerClientCap), so post-failure
//     PFS traffic slows *with scale*;
//   - every open pays a metadata-server round trip, and the metadata
//     server serializes: its effective service rate bounds small-file
//     open throughput (the "metadata lock contention" of §II-A).
type PFSModel struct {
	AggregateBandwidth float64 // bytes/s across all clients
	PerClientCap       float64 // bytes/s ceiling for one client
	MetadataOpTime     time.Duration
	// MetadataParallelism is how many metadata ops the MDS can overlap;
	// 1 reproduces a fully serialized MDS.
	MetadataParallelism int
	// MetadataWaitCap bounds the queueing wait one client observes:
	// under huge bursts (a cold epoch opening thousands of files) deep
	// client-side readahead and batched RPCs keep the effective stall
	// bounded rather than linear in burst size. 0 = uncapped.
	MetadataWaitCap time.Duration
}

// FrontierOrion is a deliberately modest share of Orion calibrated for a
// 1024-node job: DL reads are small and random, far from the marketing
// sequential numbers. The absolute values matter less than the ratio to
// NVMe speed; see EXPERIMENTS.md for how the shapes were validated.
func FrontierOrion() PFSModel {
	return PFSModel{
		AggregateBandwidth:  220 * GiB,
		PerClientCap:        1.5 * GiB,
		MetadataOpTime:      600 * time.Microsecond,
		MetadataParallelism: 32,
	}
}

// ReadTime returns one client's service time for a read of size bytes
// while `concurrent` clients (including this one) are hitting the PFS.
func (m PFSModel) ReadTime(bytes int64, concurrent int) time.Duration {
	return m.MetadataTime(concurrent) + m.DataTime(bytes, concurrent)
}

// DataTime returns the pure transfer time for size bytes while
// `concurrent` clients share the aggregate bandwidth.
func (m PFSModel) DataTime(bytes int64, concurrent int) time.Duration {
	if concurrent < 1 {
		concurrent = 1
	}
	bw := m.AggregateBandwidth / float64(concurrent)
	if m.PerClientCap > 0 && bw > m.PerClientCap {
		bw = m.PerClientCap
	}
	return timeFor(bytes, bw)
}

// MetadataTime returns the expected metadata-server delay for one open
// when `concurrent` clients are opening simultaneously: queueing behind
// concurrent/parallelism ops on average.
func (m PFSModel) MetadataTime(concurrent int) time.Duration {
	if concurrent < 1 {
		concurrent = 1
	}
	par := m.MetadataParallelism
	if par < 1 {
		par = 1
	}
	depth := (concurrent + par - 1) / par
	wait := time.Duration(depth) * m.MetadataOpTime
	if m.MetadataWaitCap > 0 && wait > m.MetadataWaitCap {
		wait = m.MetadataWaitCap
	}
	return wait
}

// NVMeQueueWidth is the number of reads a node-local device serves at
// once (an NVMe-like queue width); further reads wait for a slot.
const NVMeQueueWidth = 4

// Device is one storage device's timing, the same type under the live
// stack and the simulator: a service-time model and a queue width. The
// simulator reads ReadTime, which is pure; the live stack calls Read,
// which blocks the caller for the modelled time on the completion
// engine (engine.go).
type Device struct {
	service func(bytes int64, concurrent int) time.Duration

	inflight atomic.Int32 // reads admitted and not yet complete
	mu       sync.Mutex   // guards free
	// free holds, per slot of the queue width, the instant the slot's
	// last admitted read completes. No slots = unqueued: every read
	// starts at once.
	free []int64
}

func newDevice(width int, service func(bytes int64, concurrent int) time.Duration) *Device {
	return &Device{service: service, free: make([]int64, width)}
}

// ConstantDevice serves every read in d, width at a time (0 = unqueued).
func ConstantDevice(d time.Duration, width int) *Device {
	return newDevice(width, func(int64, int) time.Duration { return d })
}

// Device returns the node-local device m describes, NVMeQueueWidth wide.
func (m NVMeModel) Device() *Device {
	return newDevice(NVMeQueueWidth, func(bytes int64, _ int) time.Duration { return m.ReadTime(bytes) })
}

// Device returns the shared file system m describes: unqueued, because
// contention is in the model — each read is served at the rate its
// concurrency leaves it.
func (m PFSModel) Device() *Device {
	return newDevice(0, m.ReadTime)
}

// ReadTime returns the service time of one read of size bytes while
// `concurrent` reads (including this one) are in service. Pure.
func (d *Device) ReadTime(bytes int64, concurrent int) time.Duration {
	return d.service(bytes, concurrent)
}

// Read blocks for one read of size bytes: the wait for the earliest
// free slot plus the service time, computed once at admission and handed
// to the engine as a single wait. It returns the queue share of that
// wait.
func (d *Device) Read(bytes int64) (queued time.Duration) {
	service := int64(d.service(bytes, int(d.inflight.Add(1))))
	due, queued := d.admit(service)
	waitUntil(due)
	d.inflight.Add(-1)
	return queued
}

// admit fixes a read's completion instant, max(now, earliest free slot)
// + service, and books the slot until then.
func (d *Device) admit(service int64) (due int64, queued time.Duration) {
	if len(d.free) == 0 {
		return now() + service, 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	admitted := now() // read under the lock, so admission order is clock order
	slot := 0
	for i, t := range d.free {
		if t < d.free[slot] {
			slot = i
		}
	}
	start := max(admitted, d.free[slot])
	d.free[slot] = start + service
	return start + service, time.Duration(start - admitted)
}
