//go:build race

package testutil

// RaceEnabled reports whether the binary was built with -race. Under
// the race detector sync.Pool drops a share of what is put back, so a
// pooled path allocates at random: allocation ceilings skip themselves.
const RaceEnabled = true
