// Package repro is a from-scratch Go reproduction of "Fault-Tolerant
// Deep Learning Cache with Hash Ring for Load Balancing in HPC Systems"
// (SC 2024): FT-Cache, a fault-tolerant extension of the HVAC
// distributed node-local NVMe cache for large-scale deep-learning
// training.
//
// The root package re-exports what README and examples/quickstart use:
//
//   - Cluster boots an HVAC server fleet (in-process or TCP) over a
//     shared PFS and hands out fault-tolerant clients; StrategyNVMe
//     selects the paper's hash-ring recaching.
//   - Trainer runs the paper's step-synchronous, elastic training loop
//     against the live cluster, failing nodes from a plan of
//     FailureEvents; the discrete-event model in repro/internal/trainsim
//     models the same loop at Frontier scale (64–1024 nodes).
//   - NewHeartbeat adds proactive failure probing to a client.
//   - Every table and figure of the paper regenerates through
//     repro/internal/experiments (CLI: cmd/ftcbench).
//
// See README.md for a tour, DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-vs-measured comparison.
package repro
