// Package use marks a hot path that calls into dep: the violation in
// dep.Slow arrives as the Hot field of its imported LockFact, and
// dep.Fast, marked at its definition, exports none.
package use

import "hotpathlock2/dep"

//ftc:hotpath
func Lookup(r *dep.Reg) int {
	r.Slow() // want `hot-path function Lookup calls dep\.\(\*Reg\)\.Slow, which acquires`
	return r.Fast()
}
