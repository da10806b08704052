package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strings"
	"testing"

	"repro/internal/storage"
)

func TestCosmoFlowGeometry(t *testing.T) {
	train := CosmoFlowTrain()
	if train.NumFiles != 524288 {
		t.Errorf("train files = %d, want 524288", train.NumFiles)
	}
	// ~1.3 TB total, as in the paper.
	tb := float64(int64(train.NumFiles)*train.FileBytes) / 1e12
	if tb < 1.2 || tb > 1.5 {
		t.Errorf("train size = %.2f TB, want ~1.3", tb)
	}
}

func TestScaled(t *testing.T) {
	d := CosmoFlowTrain()
	s := d.Scaled(64)
	if s.NumFiles != d.NumFiles/64 {
		t.Errorf("scaled files = %d", s.NumFiles)
	}
	if s.FileBytes != d.FileBytes {
		t.Error("scaling must preserve file size")
	}
	if !strings.Contains(s.Name, "/64") {
		t.Errorf("scaled name = %q", s.Name)
	}
	// Degenerate factors.
	if d.Scaled(0).NumFiles != d.NumFiles {
		t.Error("factor < 1 should be treated as 1")
	}
	if d.Scaled(1<<30).NumFiles != 1 {
		t.Error("over-scaling should clamp to 1 file")
	}
}

func TestWithFileBytes(t *testing.T) {
	d := CosmoFlowTrain().WithFileBytes(512)
	if d.FileBytes != 512 || d.NumFiles != 524288 {
		t.Errorf("got %+v", d)
	}
}

func TestFilePathStableAndUnique(t *testing.T) {
	d := Dataset{Name: "t", Prefix: "p", NumFiles: 100, FileBytes: 10}
	seen := map[string]bool{}
	for i := 0; i < d.NumFiles; i++ {
		p := d.FilePath(i)
		if seen[p] {
			t.Fatalf("duplicate path %q", p)
		}
		seen[p] = true
		if !strings.HasPrefix(p, "p/") {
			t.Fatalf("path %q missing prefix", p)
		}
	}
	if d.FilePath(7) != d.FilePath(7) {
		t.Error("paths must be stable")
	}
}

func TestFilePathPanicsOutOfRange(t *testing.T) {
	d := Dataset{NumFiles: 3}
	for _, i := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FilePath(%d) should panic", i)
				}
			}()
			d.FilePath(i)
		}()
	}
}

func TestAllPaths(t *testing.T) {
	d := Dataset{Prefix: "x", NumFiles: 5, FileBytes: 1}
	paths := d.AllPaths()
	if len(paths) != 5 {
		t.Fatalf("len = %d", len(paths))
	}
	for i, p := range paths {
		if p != d.FilePath(i) {
			t.Errorf("paths[%d] mismatch", i)
		}
	}
}

func TestSampleContentDeterministicAndDistinct(t *testing.T) {
	d := Dataset{Prefix: "x", NumFiles: 4, FileBytes: 256}
	a := d.SampleContent(0)
	b := d.SampleContent(0)
	if !bytes.Equal(a, b) {
		t.Error("content must be deterministic")
	}
	if int64(len(a)) != d.FileBytes {
		t.Errorf("content length = %d", len(a))
	}
	c := d.SampleContent(1)
	if bytes.Equal(a, c) {
		t.Error("different samples must differ")
	}
	// Content should not be trivially compressible (all zeros).
	zeros := 0
	for _, x := range a {
		if x == 0 {
			zeros++
		}
	}
	if zeros > len(a)/2 {
		t.Errorf("content looks degenerate: %d/%d zero bytes", zeros, len(a))
	}
}

// TestSampleContentGolden pins the generated bytes: datasets staged
// before and after a change to the generator must be identical, so a
// bench run's content checks and every seeded result stay comparable.
// The odd sizes cover the tail shorter than one 8-byte draw.
func TestSampleContentGolden(t *testing.T) {
	for _, c := range []struct {
		d      Dataset
		i      int
		digest string
	}{
		{Dataset{Prefix: "bench", NumFiles: 16384, FileBytes: 4096}, 0, "138735d1327bc9764ec7bae850679cd1bd067e31f474d69bb4a9689df91eebf0"},
		{Dataset{Prefix: "bench", NumFiles: 16384, FileBytes: 4096}, 12345, "9abaade62cc355b1d98e69eea5ddd2d5bcbd82ca597241662624ffcf0094c0ef"},
		{Dataset{Prefix: "x", NumFiles: 4, FileBytes: 256}, 3, "98c4351e6200d3b9c408be20bf655e4e77061e8d604a115b22a55e33ea924233"},
		{Dataset{Prefix: "odd", NumFiles: 10, FileBytes: 4099}, 7, "d9033af51f49178e0e7352901b2fa6a706a65287bb0a10d6865b07286cb0519e"},
		{Dataset{Prefix: "tiny", NumFiles: 2, FileBytes: 5}, 1, "e67ef5ee67104ecaba18fde0d491d35a811a24d0d124f8ef8220c86edb41e120"},
	} {
		sum := sha256.Sum256(c.d.SampleContent(c.i))
		if got := hex.EncodeToString(sum[:]); got != c.digest {
			t.Errorf("%s/%d (%d bytes): sha256 %s, want %s", c.d.Prefix, c.i, c.d.FileBytes, got, c.digest)
		}
	}
}

// TestStage: whatever the number of staging goroutines, and with fewer
// files than goroutines, FilePath(i) holds exactly SampleContent(i) and
// Stage returns NumFiles × FileBytes.
func TestStage(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		for _, files := range []int{0, 1, 2, 37} {
			d := Dataset{Prefix: "s", NumFiles: files, FileBytes: 61}
			pfs := storage.NewPFS()
			n, err := d.Stage(pfs)
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(files) * d.FileBytes; n != want {
				t.Errorf("procs %d, %d files: staged %d bytes, want %d", procs, files, n, want)
			}
			if objs, b := pfs.Stats(); objs != files || b != n {
				t.Errorf("procs %d, %d files: pfs stats = %d, %d", procs, files, objs, b)
			}
			for i := 0; i < files; i++ {
				got, ok := pfs.Peek(d.FilePath(i))
				if !ok || !bytes.Equal(got, d.SampleContent(i)) {
					t.Errorf("procs %d, %d files: %s is not SampleContent(%d)", procs, files, d.FilePath(i), i)
				}
			}
		}
	}
}

func BenchmarkSampleContent(b *testing.B) {
	d := Dataset{Prefix: "x", NumFiles: 1, FileBytes: 1 << 20}
	b.SetBytes(d.FileBytes)
	for i := 0; i < b.N; i++ {
		d.SampleContent(0)
	}
}
