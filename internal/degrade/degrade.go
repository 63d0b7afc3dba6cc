// Package degrade defines the result-quality lattice of the graceful
// degradation ladder: every DMM or latency figure the pipeline emits is
// tagged with a Quality telling the consumer how the number was
// obtained and — crucially — that it is still a sound bound.
//
// The lattice has three rungs, ordered best to worst:
//
//	Exact          — the full analysis ran to completion: Theorem 3's
//	                 knapsack solved to optimality (or a provably exact
//	                 shortcut such as "the chain is schedulable").
//	SafeUpperBound — a resource budget tripped (combination space,
//	                 ILP node cap, request deadline) and the value is a
//	                 sound over-approximation: either the ILP's root
//	                 relaxation bound or the closed-form Lemma-4 Ω^a_b
//	                 impact sum, which skips combination enumeration
//	                 entirely.
//	Trivial        — even the busy-window analysis could not complete;
//	                 the value falls back to the weakest sound answer
//	                 (all k activations may miss; WCL unbounded),
//	                 justified by Lemma 3's per-window miss count being
//	                 at most the window's activation count.
//
// Descending the ladder never crosses to the wrong side of the bound:
// dmm_degraded(k) ≥ dmm_exact(k) for every k (property-tested against
// the exact analysis and the simulator), so a degraded verification
// verdict of "holds" is still a guarantee — only "cannot prove" answers
// become more frequent.
package degrade

import "fmt"

// Quality is a rung of the result-quality lattice. The zero value is
// Exact, so untagged results from older code read as exact — which is
// correct, because code that predates the ladder only ever returned
// after a completed analysis.
type Quality int

const (
	// Exact marks a result from a completed analysis.
	Exact Quality = iota
	// SafeUpperBound marks a sound over-approximation produced after a
	// resource budget tripped.
	SafeUpperBound
	// Trivial marks the weakest sound fallback (all misses / unbounded
	// latency).
	Trivial
)

// qualityNames are the wire spellings, stable across releases: clients
// switch on these strings.
var qualityNames = [...]string{"exact", "safe-upper-bound", "trivial"}

func (q Quality) String() string {
	if q < Exact || int(q) >= len(qualityNames) {
		return fmt.Sprintf("quality(%d)", int(q))
	}
	return qualityNames[q]
}

// MarshalText implements encoding.TextMarshaler so Quality serializes
// as its stable wire string in JSON documents.
func (q Quality) MarshalText() ([]byte, error) {
	if q < Exact || int(q) >= len(qualityNames) {
		return nil, fmt.Errorf("degrade: cannot marshal quality %d", int(q))
	}
	return []byte(qualityNames[q]), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (q *Quality) UnmarshalText(b []byte) error {
	for i, name := range qualityNames {
		if string(b) == name {
			*q = Quality(i)
			return nil
		}
	}
	return fmt.Errorf("degrade: unknown quality %q", b)
}

// Budget identifiers: which resource ran out and forced the ladder
// descent. They appear verbatim in wire responses and metrics labels.
const (
	// BudgetCombinations: the combination space exceeded
	// Options.MaxCombinations (or a per-parent group exceeded the
	// 62-segment bitset guard).
	BudgetCombinations = "combinations"
	// BudgetILPNodes: the branch-and-bound search hit Problem.MaxNodes.
	BudgetILPNodes = "ilp-nodes"
	// BudgetDeadline: a per-request deadline expired mid-analysis.
	BudgetDeadline = "deadline"
	// BudgetFixedPoint: a busy-window fixed point diverged or exceeded
	// its iteration/MaxQ budget.
	BudgetFixedPoint = "fixed-point"
	// BudgetInjected: a fault-injection rule forced the descent (test
	// harness only; never emitted by production configurations).
	BudgetInjected = "injected"
)

// Rung identifiers: which bound actually produced the value.
const (
	// RungTheorem3 is the full combination analysis — the ILP of
	// Theorem 3, or its root-relaxation bound when the node cap hit.
	RungTheorem3 = "theorem-3"
	// RungOmegaSum is the closed-form Lemma-4 impact sum
	// N_b · Σ_rows min(Ω^a_b(k), k): no combination enumeration, no
	// knapsack. It upper-bounds the Theorem-3 optimum because every
	// unschedulable combination occupies at least one capacity row.
	RungOmegaSum = "omega-sum"
	// RungLemma3 is the weakest rung: Lemma 3 caps the misses per busy
	// window by the window's activations, so min(k, ·) — in the trivial
	// limit simply k — always bounds dmm(k).
	RungLemma3 = "lemma-3"
)

// Info describes how a particular result was obtained: its lattice
// rung, the budget that forced the descent (empty for Exact) and the
// bound that produced the value.
type Info struct {
	Quality Quality `json:"quality"`
	Budget  string  `json:"budget,omitempty"`
	Rung    string  `json:"rung,omitempty"`
}

// ExactInfo is the tag of a fully completed analysis.
func ExactInfo() Info { return Info{Quality: Exact, Rung: RungTheorem3} }

// Degraded reports whether the result sits below Exact on the lattice.
func (i Info) Degraded() bool { return i.Quality != Exact }

// Reproducible reports whether a result tagged i comes out the same on
// every run: exact, or degraded by a budget that is a function of the
// system and options alone (a diverging busy window, the combination
// cap). A deadline, an injected fault or the ILP node cap (which an
// injected budget fault also trips) degrades one run and may spare the
// next, so caches keep only reproducible results: a retry of a
// transient degradation runs the analysis again.
func (i Info) Reproducible() bool {
	switch i.Budget {
	case "", BudgetFixedPoint, BudgetCombinations:
		return true
	}
	return false
}

// Worse returns the lower-quality of a and b — the tag a result derived
// from both must carry. Ties keep a's budget/rung (the earlier cause).
func Worse(a, b Info) Info {
	if b.Quality > a.Quality {
		return b
	}
	return a
}

// Policy tells an analysis how to behave when a budget trips.
type Policy struct {
	// Allow enables the ladder: instead of failing with
	// ErrTooManyCombinations / ErrDiverged / a deadline error, the
	// analysis descends to the next sound rung and tags the result.
	// False (the default) preserves the historical fail-hard contract.
	Allow bool
}

// Sound is the machine-checkable safety invariant of the ladder: a
// degraded bound must never undercut the exact one.
func Sound(degraded, exact int64) bool { return degraded >= exact }
