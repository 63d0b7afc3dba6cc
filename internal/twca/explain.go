package twca

import (
	"fmt"
	"io"

	"repro/internal/curves"
)

// Explain writes a human-readable narrative of the analysis to w: the
// Def. 2 classification of every other chain, the segment and active
// segment structure, the per-q busy times and slacks, the combination
// verdicts and — for a given k — the Ω capacities and the resulting
// DMM. It is the diagnostic a designer reads to understand *why* a
// chain can miss deadlines and which overload chain is responsible.
func (a *Analysis) Explain(w io.Writer, k int64) error {
	b := a.Target
	fmt.Fprintf(w, "=== TWCA explanation for chain %s (D=%d, %v) ===\n",
		b.Name, b.Deadline, b.Kind)

	// Interference classification.
	fmt.Fprintf(w, "\ninterference classification (Def. 2):\n")
	for _, c := range a.info.Interfering {
		over := ""
		if c.Overload {
			over = " [overload]"
		}
		fmt.Fprintf(w, "  %-12s arbitrarily interfering%s: full cost %d charged per activation\n",
			c.Name, over, c.TotalWCET())
	}
	for _, c := range a.info.Deferred {
		over := ""
		if c.Overload {
			over = " [overload]"
		}
		fmt.Fprintf(w, "  %-12s deferred%s: only segments interfere\n", c.Name, over)
		for _, s := range a.info.Segments(c) {
			mark := ""
			if s.Key() == a.info.CriticalSegment(c).Key() {
				mark = "  ← critical"
			}
			fmt.Fprintf(w, "      segment %-30s cost %d%s\n", s, s.Cost(), mark)
		}
	}

	// Overload active segments.
	fmt.Fprintf(w, "\nactive segments of overload chains (Def. 8):\n")
	for _, c := range a.overload {
		for _, s := range a.info.ActiveSegments(c) {
			fmt.Fprintf(w, "  %-12s %-30s cost %d\n", c.Name, s, s.Cost())
		}
	}

	// Busy windows and slack.
	fmt.Fprintf(w, "\nbusy-window analysis (Thm. 1-2): K=%d, WCL=%d, N=%d, typical schedulable=%v\n",
		a.Latency.K, a.Latency.WCL, a.Latency.MissesPerWindow, a.TypicalSchedulable)
	fmt.Fprintf(w, "  %3s %10s %10s %10s %10s\n", "q", "B(q)", "δ-(q)", "L(q)", "slack")
	for q := int64(1); q <= a.Latency.K; q++ {
		d := b.Activation.DeltaMin(q)
		//twcalint:ignore soundflow diagnostic echo of the Thm. 2 slack table; the window is exact model arithmetic and AddSat only guards int64 overflow
		slack := curves.AddSat(d, b.Deadline) - a.L[q-1]
		fmt.Fprintf(w, "  %3d %10d %10d %10d %10d\n",
			q, a.Latency.BusyTimes[q-1], d, a.L[q-1], slack)
	}
	fmt.Fprintf(w, "  minimum slack: %d (combinations costlier than this can cause misses)\n", a.MinSlack)

	// Combination verdicts.
	fmt.Fprintf(w, "\ncombinations (Def. 9): %d total, %d unschedulable\n",
		len(a.Combinations), len(a.Unschedulable))
	for _, c := range a.Combinations {
		verdict := "schedulable"
		if a.isUnschedulable(c) {
			verdict = "UNSCHEDULABLE"
		}
		fmt.Fprintf(w, "  %-50s cost %-4d %s\n", c, c.Cost, verdict)
	}

	// DMM at k.
	r, err := a.DMM(k)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ndmm(%d) = %d", k, r.Value)
	if r.Trivial != "" {
		fmt.Fprintf(w, "  (%s)", r.Trivial)
	}
	fmt.Fprintln(w)
	for _, c := range a.overload {
		fmt.Fprintf(w, "  Ω^%s = %d activations can impact the %d-sequence\n", c.Name, a.Omega(c, k), k)
	}
	if r.Value > 0 && r.Trivial == "" {
		fmt.Fprintf(w, "  interpretation: at most %d of any %d consecutive %s instances miss D=%d\n",
			r.Value, k, b.Name, b.Deadline)
	}
	return nil
}

// isUnschedulable reports whether c is in the computed set U.
func (a *Analysis) isUnschedulable(c Combination) bool {
	for _, u := range a.Unschedulable {
		if sameCombination(u, c) {
			return true
		}
	}
	return false
}

// sameCombination compares two combinations of the same Analysis by
// their active-segment bitmasks.
func sameCombination(x, y Combination) bool { return x.Mask.Equal(y.Mask) }

// Blame ranks the overload chains by how much removing each one alone
// improves the DMM at k — the "which interrupt do I need to tame"
// question. It returns one entry per overload chain with the DMM that
// would result if that chain never fired.
func (a *Analysis) Blame(k int64) (map[string]int64, error) {
	out := make(map[string]int64, len(a.overload))
	for _, excl := range a.overload {
		// Remove the chain entirely from a clone of the system.
		reduced := a.Sys.Clone()
		for i, c := range reduced.Chains {
			if c.Name == excl.Name {
				reduced.Chains = append(reduced.Chains[:i], reduced.Chains[i+1:]...)
				break
			}
		}
		an, err := New(reduced, reduced.ChainByName(a.Target.Name), a.opts)
		if err != nil {
			return nil, fmt.Errorf("twca: blame %s: %w", excl.Name, err)
		}
		r, err := an.DMM(k)
		if err != nil {
			return nil, err
		}
		out[excl.Name] = r.Value
	}
	return out, nil
}
