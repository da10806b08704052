package slurmlog

import (
	"math"
	"time"
)

// This file quantifies the paper's §III motivation — "as the number of
// compute nodes increases in DL, the probability of node failure
// increases correspondingly" — as an estimable model: a per-node MTBF
// extracted from the job log, and the induced survival probability of an
// N-node job of a given duration.

// MTBFReport summarizes node-failure incidence in a log.
type MTBFReport struct {
	// Span is the observation window (first to last submit).
	Span time.Duration
	// NodeFailureEvents counts jobs killed by the node-failure class
	// (NODE_FAIL + TIMEOUT, the paper's definition).
	NodeFailureEvents int
	// NodeHours is the total node-time the log's jobs consumed.
	NodeHours float64
	// PerNodeMTBF is the estimated mean time between failures of a
	// single node: NodeHours / events.
	PerNodeMTBF time.Duration
}

// EstimateMTBF computes the report. Jobs with zero elapsed time or zero
// nodes contribute nothing. Returns a zero report for empty logs.
func EstimateMTBF(recs []Record) MTBFReport {
	var rep MTBFReport
	if len(recs) == 0 {
		return rep
	}
	first, last := recs[0].Submit, recs[0].Submit
	for _, r := range recs {
		if r.Submit.Before(first) {
			first = r.Submit
		}
		if r.Submit.After(last) {
			last = r.Submit
		}
		if r.State == StateCancelled {
			continue
		}
		rep.NodeHours += float64(r.Nodes) * r.Elapsed.Hours()
		if r.IsNodeFailureClass() {
			rep.NodeFailureEvents++
		}
	}
	rep.Span = last.Sub(first)
	if rep.NodeFailureEvents > 0 {
		hours := rep.NodeHours / float64(rep.NodeFailureEvents)
		rep.PerNodeMTBF = time.Duration(hours * float64(time.Hour))
	}
	return rep
}

// SurvivalProbability returns P(an N-node job of the given duration sees
// no node failure), assuming independent exponential per-node failures
// with the report's MTBF: exp(-N·T/MTBF).
func (m MTBFReport) SurvivalProbability(nodes int, duration time.Duration) float64 {
	if m.PerNodeMTBF <= 0 || nodes <= 0 || duration <= 0 {
		return 1
	}
	lambda := float64(nodes) * float64(duration) / float64(m.PerNodeMTBF)
	return math.Exp(-lambda)
}

// ExpectedFailures returns the expected node-failure count for an N-node
// job of the given duration.
func (m MTBFReport) ExpectedFailures(nodes int, duration time.Duration) float64 {
	if m.PerNodeMTBF <= 0 {
		return 0
	}
	return float64(nodes) * float64(duration) / float64(m.PerNodeMTBF)
}
