// Package workload describes the training datasets the experiments read.
// The reference geometry is the paper's CosmoFlow/cosmoUniverse setup:
// 524,288 training samples plus 65,536 validation samples stored as
// individual TFRecord files totalling 1.3 TB (≈2.6 MB per sample) staged
// on the PFS before any run (§V-A). The many-small-files shape is the
// point: it is what makes PFS metadata the bottleneck.
package workload

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/storage"
	"repro/internal/xhash"
)

// Dataset is an immutable description of a file population.
type Dataset struct {
	// Name labels the dataset in experiment output.
	Name string
	// Prefix is the path prefix of every file (the PFS staging directory).
	Prefix string
	// NumFiles is the number of sample files.
	NumFiles int
	// FileBytes is the size of each sample file.
	FileBytes int64
}

// CosmoFlowTrain is the paper's training split at full scale.
func CosmoFlowTrain() Dataset {
	return Dataset{
		Name:      "cosmoUniverse-train",
		Prefix:    "cosmoUniverse/train",
		NumFiles:  524288,
		FileBytes: 2_600_000, // ≈2.6 MB TFRecord per sample, ~1.3 TB total
	}
}

// Scaled returns a copy shrunk by factor in file count (geometry
// preserved): Scaled(64) has 1/64 of the files. File sizes are kept so
// per-file service times stay realistic. factor < 1 is treated as 1.
func (d Dataset) Scaled(factor int) Dataset {
	if factor < 1 {
		factor = 1
	}
	out := d
	out.NumFiles = d.NumFiles / factor
	if out.NumFiles < 1 {
		out.NumFiles = 1
	}
	out.Name = fmt.Sprintf("%s/%d", d.Name, factor)
	return out
}

// WithFileBytes returns a copy with a different per-file size (for live
// in-process runs where 2.6 MB × thousands of files would waste memory).
func (d Dataset) WithFileBytes(n int64) Dataset {
	out := d
	out.FileBytes = n
	return out
}

// FilePath returns the path of sample i (0-based). It panics when i is
// out of range, which always indicates a sampler bug.
func (d Dataset) FilePath(i int) string {
	if i < 0 || i >= d.NumFiles {
		panic(fmt.Sprintf("workload: sample %d out of range [0,%d)", i, d.NumFiles))
	}
	return fmt.Sprintf("%s/univ_%07d.tfrecord", d.Prefix, i)
}

// AllPaths materializes every file path.
func (d Dataset) AllPaths() []string {
	out := make([]string, d.NumFiles)
	for i := range out {
		out[i] = d.FilePath(i)
	}
	return out
}

// SampleContent deterministically generates the body of sample i: a
// seeded pseudo-random block so reads can be content-verified end to end
// without storing a golden copy. Each SplitMix64 draw fills eight bytes,
// little-endian; a tail shorter than a word takes the low bytes of one
// more draw.
func (d Dataset) SampleContent(i int) []byte { return d.content(d.FilePath(i)) }

// content is SampleContent for the sample at path, which seeds it.
func (d Dataset) content(path string) []byte {
	buf := make([]byte, d.FileBytes)
	state := xhash.XXH64String(path, 0x5EED)
	off := 0
	for ; off+8 <= len(buf); off += 8 {
		binary.LittleEndian.PutUint64(buf[off:], xhash.SplitMix64(&state))
	}
	if off < len(buf) {
		for word := xhash.SplitMix64(&state); off < len(buf); off, word = off+1, word>>8 {
			buf[off] = byte(word)
		}
	}
	return buf
}

// Stage writes the whole dataset into the PFS — the "dataset is stored on
// the Orion file system before any training run" step — and returns the
// byte total staged. Generating the bytes is the whole cost, so it runs
// on runtime.GOMAXPROCS(0) goroutines, each taking every n-th index, and
// stores into the sharded PFS as it goes; each path is formatted once.
// Whatever the order of the stores, FilePath(i) ends up holding
// SampleContent(i), and the PFS keeps that slice: it is the object every
// cache tier is filled with later, never a copy of it.
func (d Dataset) Stage(pfs *storage.PFS) (int64, error) {
	workers := min(runtime.GOMAXPROCS(0), d.NumFiles)
	staged := make([]int64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < d.NumFiles; i += workers {
				path := d.FilePath(i)
				body := d.content(path)
				if err := pfs.Put(path, body); err != nil {
					errs[w] = fmt.Errorf("stage %s: %w", path, err)
					return
				}
				staged[w] += int64(len(body))
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, n := range staged {
		total += n
	}
	return total, errors.Join(errs...)
}
