package partition_test

import (
	"fmt"

	"repro/internal/partition"
)

// The closed-form Fig 6(b) model: receiver count is capped by lost
// files, which is why adding virtual nodes past a few hundred stops
// helping (the paper's plateau at ~300 of 1024 nodes).
func ExampleExpectedReceivers() {
	for _, v := range []int{10, 100, 1000, 10000} {
		r := partition.ExpectedReceivers(1024, v, 524288)
		fmt.Printf("vnodes=%5d expected receivers=%3.0f\n", v, r)
	}
	// Output:
	// vnodes=   10 expected receivers= 10
	// vnodes=  100 expected receivers= 95
	// vnodes= 1000 expected receivers=332
	// vnodes=10000 expected receivers=395
}
