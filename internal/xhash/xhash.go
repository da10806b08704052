// Package xhash provides the non-cryptographic hash functions used across
// the FT-Cache reproduction: xxHash64 (the default key hash for the
// consistent-hash ring), FNV-1a (the hash HVAC's original static
// partitioner used for path→node mapping), and splitmix64 (used to derive
// well-distributed virtual-node points and seeded RNG streams).
//
// All implementations are self-contained and allocation-free so they can
// sit on the hot path of every cache lookup.
package xhash

const (
	prime64_1 = 11400714785074694791
	prime64_2 = 14029467366897019727
	prime64_3 = 1609587929392839161
	prime64_4 = 9650029242287828579
	prime64_5 = 2870177450012600261
)

func rotl64(x uint64, r uint) uint64 { return (x << r) | (x >> (64 - r)) }

func round64(acc, input uint64) uint64 {
	acc += input * prime64_2
	acc = rotl64(acc, 31)
	acc *= prime64_1
	return acc
}

func mergeRound64(acc, val uint64) uint64 {
	val = round64(0, val)
	acc ^= val
	acc = acc*prime64_1 + prime64_4
	return acc
}

func u64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func u32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// XXH64 computes the 64-bit xxHash of b with the given seed.
func XXH64(b []byte, seed uint64) uint64 {
	n := len(b)
	var h64 uint64

	if n >= 32 {
		v1 := seed + prime64_1 + prime64_2
		v2 := seed + prime64_2
		v3 := seed
		v4 := seed - prime64_1
		for len(b) >= 32 {
			v1 = round64(v1, u64(b[0:8]))
			v2 = round64(v2, u64(b[8:16]))
			v3 = round64(v3, u64(b[16:24]))
			v4 = round64(v4, u64(b[24:32]))
			b = b[32:]
		}
		h64 = rotl64(v1, 1) + rotl64(v2, 7) + rotl64(v3, 12) + rotl64(v4, 18)
		h64 = mergeRound64(h64, v1)
		h64 = mergeRound64(h64, v2)
		h64 = mergeRound64(h64, v3)
		h64 = mergeRound64(h64, v4)
	} else {
		h64 = seed + prime64_5
	}

	h64 += uint64(n)

	for len(b) >= 8 {
		h64 ^= round64(0, u64(b[:8]))
		h64 = rotl64(h64, 27)*prime64_1 + prime64_4
		b = b[8:]
	}
	if len(b) >= 4 {
		h64 ^= uint64(u32(b[:4])) * prime64_1
		h64 = rotl64(h64, 23)*prime64_2 + prime64_3
		b = b[4:]
	}
	for _, c := range b {
		h64 ^= uint64(c) * prime64_5
		h64 = rotl64(h64, 11) * prime64_1
	}

	h64 ^= h64 >> 33
	h64 *= prime64_2
	h64 ^= h64 >> 29
	h64 *= prime64_3
	h64 ^= h64 >> 32
	return h64
}

// XXH64String is XXH64 over the bytes of s without allocating.
func XXH64String(s string, seed uint64) uint64 {
	// The compiler recognises the []byte(s) conversion passed directly to a
	// non-escaping function and avoids the copy in most cases; measured via
	// BenchmarkXXH64String this does not allocate.
	return XXH64([]byte(s), seed)
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// FNV1aString computes the 64-bit FNV-1a hash of the bytes of s. This
// mirrors the hash the original HVAC static partitioner applied to file
// paths before the modulo-N node selection.
func FNV1aString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// SplitMix64 advances the splitmix64 generator state and returns the next
// output. It is the recommended way to expand one 64-bit seed into a
// sequence of well-distributed values (e.g. virtual-node point seeds).
func SplitMix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Mix64 applies the splitmix64 finalizer to x, producing an avalanched
// value. Useful to decorrelate sequential integers.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
