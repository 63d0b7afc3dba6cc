package sim

import (
	"fmt"

	"repro/internal/curves"
	"repro/internal/model"
)

// PhasingResult is the outcome of an exhaustive phasing search.
type PhasingResult struct {
	// WorstLatency maps chain names to the maximum latency observed
	// over all explored phasings.
	WorstLatency map[string]curves.Time
	// WorstOffsets records the offset vector that produced each chain's
	// worst latency (chain name → offsets by chain name).
	WorstOffsets map[string]map[string]curves.Time
	// Runs counts simulation runs performed.
	Runs int
}

// ExhaustivePhasings sweeps arrival offsets of every chain except the
// first over [0, limit) in the given step, simulating each combination
// with dense arrivals and worst-case execution times, and returns the
// worst latency observed per chain. It provides an empirical lower
// bound on the true worst case that is much stronger than single runs:
// the critical instant of a chain is not necessarily the synchronous
// release, so sweeping phasings probes the bound's tightness.
//
// The search space is step^(n-1); keep systems small or steps coarse.
// maxRuns guards against explosion (0 means 10000).
func ExhaustivePhasings(sys *model.System, limit, step curves.Time, horizon curves.Time, maxRuns int) (*PhasingResult, error) {
	if step <= 0 || limit <= 0 {
		return nil, fmt.Errorf("sim: phasing sweep needs positive limit and step")
	}
	if maxRuns <= 0 {
		maxRuns = 10000
	}
	perChain := int(limit / step)
	if perChain < 1 {
		perChain = 1
	}
	n := len(sys.Chains)
	total := 1
	for i := 1; i < n; i++ {
		if total > maxRuns/perChain {
			return nil, fmt.Errorf("sim: phasing sweep needs > %d runs (limit %d)", maxRuns, maxRuns)
		}
		total *= perChain
	}

	res := &PhasingResult{
		WorstLatency: make(map[string]curves.Time),
		WorstOffsets: make(map[string]map[string]curves.Time),
	}
	idx := make([]int, n) // idx[0] stays 0: global shift is irrelevant
	for {
		offsets := make(map[string]curves.Time, n)
		for i := 1; i < n; i++ {
			offsets[sys.Chains[i].Name] = curves.Time(idx[i]) * step
		}
		r, err := Run(sys, Config{Horizon: horizon, OffsetsFor: offsets})
		if err != nil {
			return nil, err
		}
		res.Runs++
		for _, c := range sys.Chains {
			if lat := r.Chains[c.Name].MaxLatency; lat > res.WorstLatency[c.Name] {
				res.WorstLatency[c.Name] = lat
				res.WorstOffsets[c.Name] = offsets
			}
		}
		// Advance the mixed-radix counter over chains 1..n-1.
		i := n - 1
		for ; i >= 1; i-- {
			idx[i]++
			if idx[i] < perChain {
				break
			}
			idx[i] = 0
		}
		if i < 1 {
			return res, nil
		}
	}
}
