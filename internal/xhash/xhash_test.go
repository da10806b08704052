package xhash

import (
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"
)

// Reference vectors for XXH64 with seed 0 (from the canonical xxHash
// test suite).
var xxh64Vectors = []struct {
	in   string
	want uint64
}{
	{"", 0xef46db3751d8e999},
	{"a", 0xd24ec4f1a98c6e5b},
	{"as", 0x1c330fb2d66be179},
	{"asd", 0x631c37ce72a97393},
	{"asdf", 0x415872f599cea71e},
	// Exactly 64 bytes — exercises the 32-byte lane loop twice.
	{"Call me Ishmael. Some years ago--never mind how long precisely-",
		0x02a2e85470d6fd96},
}

func TestXXH64Vectors(t *testing.T) {
	for _, v := range xxh64Vectors {
		if got := XXH64([]byte(v.in), 0); got != v.want {
			t.Errorf("XXH64(%q) = %#x, want %#x", v.in, got, v.want)
		}
		if got := XXH64String(v.in, 0); got != v.want {
			t.Errorf("XXH64String(%q) = %#x, want %#x", v.in, got, v.want)
		}
	}
}

func TestXXH64LengthBoundaries(t *testing.T) {
	// Every size around the internal block boundaries must be stable and
	// distinct from its neighbours (catches off-by-one in tail handling).
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 70)
	rng.Read(buf)
	seen := make(map[uint64]int)
	for n := 0; n <= 70; n++ {
		h := XXH64(buf[:n], 42)
		if prev, dup := seen[h]; dup {
			t.Fatalf("length %d collides with length %d", n, prev)
		}
		seen[h] = n
		if h2 := XXH64(buf[:n], 42); h2 != h {
			t.Fatalf("length %d: non-deterministic hash", n)
		}
	}
}

func TestXXH64SeedSensitivity(t *testing.T) {
	in := []byte("frontier/cosmoflow/train/file_000123.tfrecord")
	if XXH64(in, 0) == XXH64(in, 1) {
		t.Error("seed 0 and seed 1 should produce different hashes")
	}
}

func TestXXH64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	base := []byte("abcdefghijklmnopqrstuvwxyz0123456789ABCD")
	h0 := XXH64(base, 0)
	mut := append([]byte(nil), base...)
	mut[7] ^= 1
	h1 := XXH64(mut, 0)
	diff := h0 ^ h1
	bits := 0
	for diff != 0 {
		bits += int(diff & 1)
		diff >>= 1
	}
	if bits < 16 || bits > 48 {
		t.Errorf("poor avalanche: %d differing bits", bits)
	}
}

func TestFNV1aMatchesStdlib(t *testing.T) {
	f := func(b []byte) bool {
		h := fnv.New64a()
		h.Write(b)
		return FNV1aString(string(b)) == h.Sum64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestFNV1aStringMatchesBytes checks the published FNV-1a 64 vectors,
// which are defined over bytes.
func TestFNV1aStringMatchesBytes(t *testing.T) {
	for s, want := range map[string]uint64{"": 0xcbf29ce484222325, "a": 0xaf63dc4c8601ec8c, "foobar": 0x85944171f73967e8} {
		if got := FNV1aString(s); got != want {
			t.Errorf("FNV1aString(%q) = %#x, want %#x", s, got, want)
		}
	}
}

func TestSplitMix64Sequence(t *testing.T) {
	// Known-good values of splitmix64 with seed 1234567 (first 5 outputs).
	state := uint64(1234567)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		v := SplitMix64(&state)
		if seen[v] {
			t.Fatalf("splitmix64 repeated value at step %d", i)
		}
		seen[v] = true
	}
}

func TestSplitMix64Deterministic(t *testing.T) {
	a, b := uint64(99), uint64(99)
	for i := 0; i < 100; i++ {
		if SplitMix64(&a) != SplitMix64(&b) {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestMix64Bijectivity(t *testing.T) {
	// Mix64 is a bijection; distinct inputs must map to distinct outputs.
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 10000; i++ {
		m := Mix64(i)
		if prev, dup := seen[m]; dup {
			t.Fatalf("Mix64 collision: %d and %d both map to %#x", prev, i, m)
		}
		seen[m] = i
	}
}

func TestMix64Distribution(t *testing.T) {
	// Sequential integers must spread across the upper bits after mixing.
	var hi [16]int
	const n = 16000
	for i := uint64(0); i < n; i++ {
		hi[Mix64(i)>>60]++
	}
	for b, c := range hi {
		if c < n/16/2 || c > n/16*2 {
			t.Errorf("bucket %d has %d values, expected near %d", b, c, n/16)
		}
	}
}

func BenchmarkXXH64_16B(b *testing.B)  { benchXXH64(b, 16) }
func BenchmarkXXH64_256B(b *testing.B) { benchXXH64(b, 256) }
func BenchmarkXXH64_4KB(b *testing.B)  { benchXXH64(b, 4096) }

func benchXXH64(b *testing.B, n int) {
	buf := make([]byte, n)
	rand.New(rand.NewSource(7)).Read(buf)
	b.SetBytes(int64(n))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		XXH64(buf, 0)
	}
}

func BenchmarkXXH64String(b *testing.B) {
	s := "frontier/cosmoflow/train/file_000123.tfrecord"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		XXH64String(s, 0)
	}
}

func BenchmarkFNV1aString(b *testing.B) {
	s := "frontier/cosmoflow/train/file_000123.tfrecord"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FNV1aString(s)
	}
}
