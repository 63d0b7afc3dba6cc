package twca

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/curves"
	"repro/internal/degrade"
	"repro/internal/faultinject"
	"repro/internal/ilp"
	"repro/internal/latency"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/policy"
	"repro/internal/segments"
)

// ErrTooManyCombinations is returned when the combination space exceeds
// Options.MaxCombinations. The paper notes U can be too large to
// construct statically; for such systems raise the limit or reduce the
// number of overload chains.
var ErrTooManyCombinations = errors.New("twca: combination space exceeds limit")

// ErrNoDeadline is returned when the target chain has no end-to-end
// deadline, so "deadline miss" is undefined for it.
var ErrNoDeadline = errors.New("twca: target chain has no deadline")

// cancelCheckEvery is how many combinations the classification loop
// processes between cooperative cancellation checks; the combination
// space can run to Options.MaxCombinations entries.
const cancelCheckEvery = 1024

// OmegaUnbounded is the Ω^a_b value reported when the target's δ+ is
// unbounded (sporadic activation): arbitrarily many overload
// activations can fall into the k-sequence span, and only the k-clamp
// in DMM keeps the capacities finite.
const OmegaUnbounded = math.MaxInt64

// Options tunes the TWCA computation.
type Options struct {
	// Latency configures the underlying busy-window analysis. Its
	// ExcludeOverload field is managed internally and ignored here.
	Latency latency.Options
	// MaxCombinations bounds the enumerated combination space
	// (default 1 << 16).
	MaxCombinations int
	// Flat switches to the structure-blind abstraction of classic
	// independent-task TWCA (ECRTS 2015), the paper's §VI baseline:
	// every other chain is treated as arbitrarily interfering with the
	// target — its whole execution time is charged per activation — and
	// combinations degrade to sets of whole overload chains
	// (segments.AnalyzeFlat). Chain-aware TWCA is never looser, and is
	// tighter whenever the priority assignment defers part of a chain
	// below the target; on the case study, Flat cannot establish the
	// schedulability of σd.
	Flat bool
	// ExactCriterion uses the per-combination busy-window fixed point
	// of Equation (3) to classify combinations instead of the cheaper
	// sufficient slack criterion of Equation (5). The exact criterion
	// never classifies more combinations as unschedulable, so the
	// resulting DMMs are at most as large. See criterion.go.
	ExactCriterion bool
	// NoCarryIn drops the "+1" carry-in activation from Ω^a_b
	// (Lemma 4). The published lemma charges one extra activation of
	// every overload chain that may have arrived before the k-sequence;
	// the paper's reported Figure 5 numbers are only consistent with
	// this term omitted (our dmm mass sits exactly one above theirs
	// otherwise — see EXPERIMENTS.md). Defaults to false, i.e. the
	// lemma as published.
	NoCarryIn bool
	// NoCache disables the memoized DMM sweep cache, forcing every
	// DMM call to assemble and solve its knapsack from scratch. The
	// results are identical either way (the cache equivalence tests and
	// BenchmarkBreakpointsSweep pin this); the switch exists for those
	// tests and for before/after measurements.
	NoCache bool
	// Degrade controls the graceful-degradation ladder. With Allow set,
	// budget exhaustion (combination blow-up, an expired deadline, a
	// diverging classification fixed point) descends to the closed-form
	// Lemma-4 omega-sum rung — and, when even the busy-window analysis
	// cannot complete, to the trivial all-k rung — instead of failing.
	// The nested Latency.Degrade field is managed internally from this
	// policy and ignored if set by the caller.
	Degrade degrade.Policy
	// Policy names the scheduling policy the analysis assumes; see
	// internal/policy. The empty string selects "spp", the paper's
	// preemptive static-priority model — every pre-policy call site
	// behaves byte-identically. Analyzable alternatives ("np-spp",
	// "edf") run on the flat whole-busy-period structure; simulation-
	// only policies ("jcl") are rejected with an error wrapping
	// policy.ErrUnsupported. Forwarded into Latency.Policy when that
	// field is empty; setting both to conflicting names fails Validate.
	Policy string
}

func (o Options) withDefaults() Options {
	if o.MaxCombinations <= 0 {
		o.MaxCombinations = 1 << 16
	}
	if o.Latency.Policy == "" {
		o.Latency.Policy = o.Policy
	}
	o.Latency.ExcludeOverload = false
	o.Latency.Degrade = o.Degrade
	return o
}

// PolicyName returns the canonical scheduling-policy name the options
// select, resolving the Policy/Latency.Policy forwarding: the nested
// field wins when set, and the empty surface canonicalizes to "spp".
func (o Options) PolicyName() string {
	if o.Latency.Policy != "" {
		return policy.Canonical(o.Latency.Policy)
	}
	return policy.Canonical(o.Policy)
}

// Validate rejects nonsensical option values with a descriptive error.
// Zero values are fine (they select the documented defaults); the
// nested latency options are validated too.
func (o Options) Validate() error {
	if o.MaxCombinations < 0 {
		return fmt.Errorf("twca: options: MaxCombinations %d is negative (0 selects the default 1<<16)", o.MaxCombinations)
	}
	if _, err := policy.ByName(o.Policy); err != nil {
		return fmt.Errorf("twca: options: %w", err)
	}
	if o.Policy != "" && o.Latency.Policy != "" &&
		policy.Canonical(o.Policy) != policy.Canonical(o.Latency.Policy) {
		return fmt.Errorf("twca: options: Policy %q conflicts with Latency.Policy %q (set one; the other is forwarded)",
			o.Policy, o.Latency.Policy)
	}
	return o.Latency.Validate()
}

// Analysis holds everything TWCA derives about one target chain. Build
// it once with New, then query DMM for any k — concurrent queries are
// safe, and repeated sweeps (Curve, Breakpoints) reuse memoized
// knapsack solutions.
type Analysis struct {
	Sys    *model.System
	Target *model.Chain
	// Latency is the §IV analysis with full overload interference.
	Latency *latency.Result
	// L holds L_b(q) of Eq. (4) for q in [1, K]: the busy time excluding
	// overload contributions, evaluated in the window δ-_b(q) + D_b.
	L []curves.Time
	// MinSlack is min_q (δ-_b(q) + D_b − L_b(q)): the largest overload
	// cost any busy window tolerates without missing a deadline. A
	// combination is unschedulable iff its cost exceeds MinSlack
	// (Eq. (5)).
	MinSlack curves.Time
	// TypicalSchedulable reports whether the system meets all deadlines
	// when no overload chain is activated (MinSlack ≥ 0).
	TypicalSchedulable bool
	// Combinations is the full combination space (Def. 9) and
	// Unschedulable its subset U used by the ILP. Both are empty when
	// the construction degraded past the Theorem-3 rung (see Degraded).
	Combinations  []Combination
	Unschedulable []Combination
	// Degraded tags construction-time ladder descent: Exact quality
	// means the full §V analysis is available; SafeUpperBound means
	// combination enumeration was skipped or abandoned and every DMM is
	// answered by the Lemma-4 omega sum; Trivial means even the
	// busy-window analysis fell back, and every DMM answers k. When
	// Degraded is past Exact, MinSlack and TypicalSchedulable are
	// pessimistic placeholders (-1 / false), not computed quantities.
	Degraded degrade.Info

	info     *segments.Info
	overload []*model.Chain
	// omegaOrder is overload sorted by name in byte order, the order
	// AppendOmegas reports Ω in.
	omegaOrder []*model.Chain
	opts       Options
	pol        policy.Analyzer

	// rows is the Theorem-3 constraint matrix, built once: one row per
	// active segment of each overload chain (in that order), with 0/1
	// coefficients over Unschedulable and no bounds. tmpl is the same
	// knapsack compiled for the ILP (objective N_b per variable). Only
	// the capacity vector varies with k, so every solve runs tmpl
	// directly, and rows serves the per-row usage of cached optima.
	// Both are immutable after construction; nil when the ILP path is
	// unreachable (see buildProblemTemplate).
	rows     []ilp.Row
	rowChain []*model.Chain // rows[i] belongs to this overload chain
	tmpl     *ilp.Template

	mu      sync.RWMutex
	cache   []dmmCacheEntry
	spans   []kSpan // answered k's by optimum; see solveCached. Guarded by mu
	inexact bool    // cache holds a node-capped solve (see solveCached), guarded by mu
	bounds  []int64 // scratch capacity vector, guarded by mu
	// scratch holds the ILP work buffers of memoized solves, guarded by
	// mu. It belongs to this Analysis alone — never to tmpl — and the
	// unlocked Options.NoCache path does not touch it.
	scratch ilp.Scratch
}

// kSpan is a range [lo, hi] of k whose knapsacks share the optimum bound.
type kSpan struct{ lo, hi, bound int64 }

// dmmCacheEntry memoizes one knapsack solve: the capacity vector it was
// solved under, the solution, and the per-row capacity usage of the
// optimal assignment (for the saturation shortcut, see solveCached).
type dmmCacheEntry struct {
	bounds []int64
	sol    ilp.Solution
	usage  []int64
}

// New runs the §IV busy-window analysis and the §V combination analysis
// for target chain b of sys, which must have a deadline. b itself must
// not be an overload chain.
func New(sys *model.System, b *model.Chain, opts Options) (*Analysis, error) {
	return NewCtx(context.Background(), sys, b, opts)
}

// NewCtx is New with cooperative cancellation: the busy-window
// analysis, the combination classification loop (which may run a
// per-combination fixed point under Options.ExactCriterion) and the
// constraint-template build all check ctx, and the returned error wraps
// ctx.Err() when the context ended the analysis early.
func NewCtx(ctx context.Context, sys *model.System, b *model.Chain, opts Options) (*Analysis, error) {
	opts = opts.withDefaults()
	if b.Deadline <= 0 {
		return nil, fmt.Errorf("twca: chain %q: %w", b.Name, ErrNoDeadline)
	}
	if b.Overload {
		return nil, fmt.Errorf("twca: chain %q is an overload chain; DMMs target regular chains", b.Name)
	}
	// The forwarded Latency.Policy is the single effective policy after
	// withDefaults; AnalyzerFor rejects simulation-only policies here,
	// before any work is spent.
	pol, err := policy.AnalyzerFor(opts.Latency.Policy)
	if err != nil {
		return nil, fmt.Errorf("twca: chain %q: %w", b.Name, err)
	}
	info := pol.Structure(sys, b, opts.Flat)
	lat, err := latency.AnalyzeInfoCtx(ctx, info, opts.Latency)
	if err != nil {
		return nil, err
	}
	overload, omegaOrder := overloadChains(sys)
	a := &Analysis{
		Sys:        sys,
		Target:     b,
		Latency:    lat,
		info:       info,
		overload:   overload,
		omegaOrder: omegaOrder,
		opts:       opts,
		pol:        pol,
		MinSlack:   curves.Infinity,
	}
	if lat.Quality.Degraded() {
		// The busy-window analysis already fell to its Lemma-3 floor: no
		// trustworthy K, L(q) or MinSlack exists, so nothing built on
		// them may be used. The whole construction is trivial — every
		// DMM answers k via the typical-unschedulable path.
		a.Degraded = degrade.Info{Quality: degrade.Trivial, Budget: lat.Quality.Budget, Rung: degrade.RungLemma3}
		a.MinSlack = -1
		return a, nil
	}
	for q := int64(1); q <= lat.K; q++ {
		window := curves.AddSat(b.Activation.DeltaMin(q), b.Deadline)
		lq := pol.Demand(info, q, window, true)
		a.L = append(a.L, lq)
		//twcalint:ignore soundflow window is exact model arithmetic (delta-min plus deadline); AddSat only guards int64 overflow and saturates exactly when the window is genuinely unbounded, where slack cannot undercut MinSlack
		if slack := window - lq; slack < a.MinSlack {
			a.MinSlack = slack
		}
	}
	a.TypicalSchedulable = a.MinSlack >= 0
	combos, ok := enumerateCombinations(info, a.overload, opts.MaxCombinations)
	if !ok {
		if opts.Degrade.Allow {
			a.degradeConstruction(degrade.BudgetCombinations)
			return a, nil
		}
		return nil, fmt.Errorf("twca: chain %q: %w (limit %d)", b.Name, ErrTooManyCombinations, opts.MaxCombinations)
	}
	a.Combinations = combos
	for i, c := range combos {
		if i%cancelCheckEvery == cancelCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				if budget, ok := a.degradableBudget(err); ok {
					a.degradeConstruction(budget)
					return a, nil
				}
				return nil, fmt.Errorf("twca: chain %q: combination classification canceled: %w", b.Name, err)
			}
		}
		if c.Cost <= a.MinSlack {
			continue // Eq. (5): provably schedulable
		}
		if opts.ExactCriterion && a.TypicalSchedulable {
			unsched, err := a.exactUnschedulable(ctx, c)
			if err != nil {
				if budget, ok := a.degradableBudget(err); ok {
					a.degradeConstruction(budget)
					return a, nil
				}
				return nil, err
			}
			if !unsched {
				continue // Eq. (3): the fixed point stays within the deadline
			}
		}
		a.Unschedulable = append(a.Unschedulable, c)
	}
	if err := a.buildProblemTemplate(); err != nil {
		return nil, fmt.Errorf("twca: chain %q: %w", b.Name, err)
	}
	return a, nil
}

// overloadChains returns the overload chains of sys twice, carved from
// one allocation: in system order, and sorted by name in byte order, the
// key order of encoding/json's map encoder. The sort is stable, so even
// an unvalidated system that repeats a chain name gets one order.
func overloadChains(sys *model.System) (inOrder, byName []*model.Chain) {
	n := 0
	for _, c := range sys.Chains {
		if c.Overload {
			n++
		}
	}
	buf := make([]*model.Chain, 0, 2*n)
	for _, c := range sys.Chains {
		if c.Overload {
			buf = append(buf, c)
		}
	}
	byName = append(buf[n:n], buf...)
	slices.SortStableFunc(byName, func(x, y *model.Chain) int { return strings.Compare(x.Name, y.Name) })
	return buf[:n:n], byName
}

// degradeConstruction abandons the Theorem-3 combination analysis and
// pins the construction to the omega-sum rung: partial classification
// state is discarded (a half-classified Unschedulable set must never
// feed an ILP) and every DMM query is answered by the closed-form
// Lemma-4 impact sum.
func (a *Analysis) degradeConstruction(budget string) {
	a.Degraded = degrade.Info{Quality: degrade.SafeUpperBound, Budget: budget, Rung: degrade.RungOmegaSum}
	a.Unschedulable = nil
	a.rows, a.rowChain, a.tmpl = nil, nil, nil
}

// degradableBudget classifies errors the ladder may absorb under
// Options.Degrade.Allow: resource exhaustion (a deadline, a diverging
// classification fixed point, an injected fault) degrades; plain
// cancellation — the caller is gone — always propagates.
func (a *Analysis) degradableBudget(err error) (string, bool) {
	if !a.opts.Degrade.Allow {
		return "", false
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return degrade.BudgetDeadline, true
	case errors.Is(err, latency.ErrDiverged), errors.Is(err, latency.ErrKExceeded):
		return degrade.BudgetFixedPoint, true
	case errors.Is(err, faultinject.ErrInjected):
		return degrade.BudgetInjected, true
	}
	return "", false
}

// buildProblemTemplate assembles and compiles the k-independent part of
// Theorem 3's knapsack: one variable per unschedulable combination, one
// capacity row per active segment of each overload chain, with the 0/1
// coefficient matrix answered by the combinations' bitmasks. Only the
// row bounds (the clamped Ω capacities) change with k, so every DMM
// solve runs the one compiled template. It builds nothing when DMM can
// never reach the ILP: without unschedulable combinations, without
// misses per window, or on a typically unschedulable system (whose U
// also holds the empty combination, a column no row caps).
func (a *Analysis) buildProblemTemplate() error {
	if len(a.Unschedulable) == 0 || !a.TypicalSchedulable || a.Latency.MissesPerWindow == 0 {
		return nil
	}
	objective := make([]int64, len(a.Unschedulable))
	for j := range objective {
		objective[j] = a.Latency.MissesPerWindow
	}
	for _, over := range a.overload {
		for _, s := range a.info.ActiveSegments(over) {
			coeffs := make([]int64, len(a.Unschedulable))
			for j, c := range a.Unschedulable {
				if c.Contains(s.Index) {
					coeffs[j] = 1
				}
			}
			a.rows = append(a.rows, ilp.Row{Coeffs: coeffs})
			a.rowChain = append(a.rowChain, over)
		}
	}
	tmpl, err := ilp.Compile(ilp.Problem{Objective: objective, Rows: a.rows})
	if err != nil {
		return fmt.Errorf("theorem-3 template: %w", err)
	}
	a.tmpl = tmpl
	return nil
}

// Omega returns Ω^a_b of Lemma 4 for overload chain a and a k-sequence
// of the target: η+_a(δ+_b(k) + WCL_b) + 1. When the target's δ+ is
// unbounded (sporadic activation) the result is OmegaUnbounded and
// callers should rely on the k-clamp. The carry-in "+1" saturates
// rather than overflowing when η+ itself is at the integer ceiling.
func (a *Analysis) Omega(over *model.Chain, k int64) int64 {
	span := curves.AddSat(a.Target.Activation.DeltaMax(k), a.Latency.WCL)
	if span.IsInf() {
		return OmegaUnbounded
	}
	omega := over.Activation.EtaPlus(span)
	if !a.opts.NoCarryIn && omega < math.MaxInt64 {
		omega++
	}
	return omega
}

// OmegaEntry is Ω^a_b of one overload chain a at one k.
type OmegaEntry struct {
	Name  string // the overload chain's name
	Value int64
}

// AppendOmegas appends Ω^a_b(k) of every overload chain a to dst, sorted
// by chain name in byte order (the key order of encoding/json's map
// encoder), and returns the extended slice. It is the one producer of
// DMMResult.Omega; NumOmegas is how many entries it appends.
func (a *Analysis) AppendOmegas(dst []OmegaEntry, k int64) []OmegaEntry {
	for _, over := range a.omegaOrder {
		dst = append(dst, OmegaEntry{Name: over.Name, Value: a.Omega(over, k)})
	}
	return dst
}

// NumOmegas is the number of overload chains, the entries AppendOmegas
// appends per k.
func (a *Analysis) NumOmegas() int { return len(a.omegaOrder) }

// fillOmegas sets the Omega of every result in rs, carving all of them
// from one slab. Each is capped, so appending to one cannot overwrite
// the next.
func (a *Analysis) fillOmegas(rs []DMMResult) {
	if len(a.omegaOrder) == 0 {
		return
	}
	slab := make([]OmegaEntry, 0, len(rs)*len(a.omegaOrder))
	for i := range rs {
		n := len(slab)
		slab = a.AppendOmegas(slab, rs[i].K)
		rs[i].Omega = slab[n:len(slab):len(slab)]
	}
}

// DMMResult carries dmm_b(k) along with the quantities that produced
// it, for reporting and debugging.
type DMMResult struct {
	K     int64
	Value int64
	// Omega holds Ω^a_b(k) of each overload chain, in AppendOmegas's
	// order; nil from DMMValueCtx, and when there is no overload chain.
	Omega []OmegaEntry
	// ILPNodes is the number of branch-and-bound nodes explored (0 when
	// the ILP was skipped because the answer was trivial, or when a
	// memoized solution answered the query).
	ILPNodes int64
	// Exact reports whether the knapsack was solved to optimality. When
	// false (node cap hit on a huge combination space), Value is the
	// sound relaxation bound instead of the exact optimum — still a
	// valid DMM, just possibly pessimistic.
	Exact bool
	// Trivial explains a shortcut: "schedulable" (no busy window can
	// miss), "no-unschedulable-combination", "typical-unschedulable"
	// (even without overload some deadline is missed, so all k may
	// miss), or "no-activations" (a DMMWindow interval too short to
	// contain any activation). Empty when the ILP ran.
	Trivial string
	// Quality tags how the value was obtained on the degradation
	// lattice: Exact for a completed Theorem-3 analysis (including the
	// provably exact shortcuts above), SafeUpperBound when a budget
	// tripped (the value is the ILP relaxation bound or the Lemma-4
	// omega sum), Trivial when even the busy-window analysis fell back
	// and the value is k itself.
	Quality degrade.Info
}

// DMM computes dmm_b(k), the maximum number of deadline misses in any
// window of k consecutive activations of the target chain (Theorem 3).
// It is safe for concurrent use.
func (a *Analysis) DMM(k int64) (DMMResult, error) {
	return a.DMMCtx(context.Background(), k)
}

// DMMCtx is DMM with cooperative cancellation: the underlying knapsack
// solve polls ctx and the returned error wraps ctx.Err() when the query
// was abandoned. Canceled solves are never cached, so a later query for
// the same k is answered fresh.
func (a *Analysis) DMMCtx(ctx context.Context, k int64) (DMMResult, error) {
	res, err := a.DMMValueCtx(ctx, k)
	if err != nil {
		return DMMResult{}, err
	}
	if len(a.omegaOrder) > 0 {
		res.Omega = a.AppendOmegas(make([]OmegaEntry, 0, len(a.omegaOrder)), k)
	}
	return res, nil
}

// DMMValueCtx is DMMCtx without Omega: the same K, Value,
// ILPNodes, Exact, Trivial and Quality, for callers that only compare
// the value against a bound m (weakly-hard verification, sensitivity
// probes). A memoized query allocates nothing. It is the one dmm(k)
// core: DMMCtx, Curve and Breakpoints add Omega to what it returns.
func (a *Analysis) DMMValueCtx(ctx context.Context, k int64) (DMMResult, error) {
	if k <= 0 {
		return DMMResult{}, fmt.Errorf("twca: dmm(%d): k must be positive", k)
	}
	res := DMMResult{K: k, Exact: true, Quality: degrade.ExactInfo()}
	switch {
	case !a.TypicalSchedulable:
		// The deadline can be missed without any overload: the analysis
		// can promise nothing better than "all k". When the construction
		// itself is degraded (trivial latency fallback), "all k" is the
		// ladder floor rather than a computed verdict — tag it so.
		res.Value, res.Trivial = k, "typical-unschedulable"
		if a.Degraded.Degraded() {
			res.Quality, res.Exact = a.Degraded, false
		}
		return res, nil
	case a.Latency.MissesPerWindow == 0:
		// Exact even under a degraded construction: Lemma 3 with
		// N_b = 0 means no busy window can miss at all, regardless of
		// how the combination space would have looked.
		res.Trivial = "schedulable"
		return res, nil
	case a.Degraded.Degraded():
		// Omega-sum rung: the combination analysis was skipped or
		// abandoned, so answer with the closed-form Lemma-4 impact sum.
		res.Value, res.Quality, res.Exact = a.omegaSum(k), a.Degraded, false
		return res, nil
	case len(a.Unschedulable) == 0:
		res.Trivial = "no-unschedulable-combination"
		return res, nil
	}
	bound, exact, nodes, err := a.solveCached(ctx, k)
	if err != nil {
		if budget, ok := a.degradableBudget(err); ok {
			// Query-time descent: only this result degrades — the
			// analysis artifact stays exact and a later, less pressed
			// query can still be answered at full quality.
			res.Value, res.Exact = a.omegaSum(k), false
			res.Quality = degrade.Info{Quality: degrade.SafeUpperBound, Budget: budget, Rung: degrade.RungOmegaSum}
			return res, nil
		}
		return DMMResult{}, fmt.Errorf("twca: dmm(%d): %w", k, err)
	}
	res.ILPNodes, res.Exact = nodes, exact
	// Bound, not Value: when the search was truncated the relaxation
	// bound is the sound choice (Value would under-count misses).
	res.Value = min(bound, k)
	if !exact {
		// Node-cap truncation: still the Theorem-3 program, answered by
		// its root relaxation instead of the optimum.
		res.Quality = degrade.Info{Quality: degrade.SafeUpperBound, Budget: degrade.BudgetILPNodes, Rung: degrade.RungTheorem3}
	}
	return res, nil
}

// boundsAt appends Theorem 3's capacity vector for k to dst: Ω per row,
// clamped to k because a combination cannot hit more busy windows than
// there are activations in the k-sequence. This vector is the only
// part of the knapsack that differs between k's.
func (a *Analysis) boundsAt(dst []int64, k int64) []int64 {
	var over *model.Chain
	var omega int64
	for _, c := range a.rowChain {
		if c != over {
			over, omega = c, min(a.Omega(c, k), k)
		}
		dst = append(dst, omega)
	}
	return dst
}

// omegaSum is the closed-form Lemma-4 rung of the degradation ladder:
//
//	dmm(k) ≤ min(k, N_b · Σ_{a ∈ overload} |active(a)| · min(Ω^a_b(k), k))
//
// Soundness: every deadline miss of the k-sequence happens in an
// unschedulable busy window (the system is typically schedulable on
// this path), each such window misses at most N_b deadlines (Lemma 3),
// and each contains at least one active overload segment — so the
// number of unschedulable windows is bounded by the summed capacities
// of the Theorem-3 rows, min(Ω^a_b(k), k) per active segment (Lemma 4
// plus the k-clamp). The same row-budget argument shows the sum is
// ≥ the Theorem-3 ILP optimum, so descending the ladder never shrinks
// the bound (TestDegradedDMMDominatesExact pins this).
func (a *Analysis) omegaSum(k int64) int64 {
	var windows curves.Time
	for _, over := range a.overload {
		omega := min(a.Omega(over, k), k)
		segs := int64(len(a.info.ActiveSegments(over)))
		windows = curves.AddSat(windows, curves.MulSat(curves.Time(omega), segs))
	}
	v := curves.MulSat(windows, a.Latency.MissesPerWindow)
	if v.IsInf() || v > curves.Time(k) {
		return k
	}
	return int64(v)
}

// solveCached returns the sound bound on the optimum of k's knapsack,
// whether it is exact, and the branch-and-bound nodes spent (0 when the
// per-Analysis memo answered). Capacities are monotone in k, and Ω
// changes only at activation-curve steps, so sweeps produce long runs
// of identical vectors. Saturation dominance: if a cached exact solve
// under capacities b' ≥ b (elementwise) has an optimal assignment whose
// per-row usage fits under b, it is optimal for b too (feasible, and
// value(b) ≤ value(b')). The optimum is monotone in k as well, so two
// answered k's with one optimum pin every k between them: spans, sorted
// disjoint k-ranges of one optimum each, answers a repeated k by a
// binary search under the read lock, with no vector built. A
// node-capped entry answers only its own vector; once the memo holds
// one, spans is unused and lookup's order decides. NoCache solves run
// fresh, without the lock; the equivalence tests pin them.
func (a *Analysis) solveCached(ctx context.Context, k int64) (bound int64, exact bool, nodes int64, err error) {
	if a.opts.NoCache {
		sol, err := a.tmpl.Solve(ctx, nil, a.boundsAt(make([]int64, 0, len(a.rows)), k))
		return sol.Bound, sol.Exact, sol.Nodes, err
	}
	a.mu.RLock()
	if p, ok := a.spanAt(k); ok {
		bound = a.spans[p-1].bound
		a.mu.RUnlock()
		return bound, true, 0, nil
	}
	a.mu.RUnlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.bounds = a.boundsAt(a.bounds[:0], k)
	if i := a.lookup(a.bounds); i >= 0 {
		a.answered(k, a.cache[i].sol.Bound)
		return a.cache[i].sol.Bound, a.cache[i].sol.Exact, 0, nil
	}
	sol, err := a.tmpl.Solve(ctx, &a.scratch, a.bounds)
	if err != nil {
		return 0, false, 0, err
	}
	// One allocation per entry: usage is capped so that no append can
	// reach the copy of a.bounds, the reused scratch vector, behind it.
	n := len(a.rows)
	buf := make([]int64, 2*n)
	usage, bounds := buf[:n:n], buf[n:]
	copy(bounds, a.bounds)
	for i, r := range a.rows {
		for j, x := range sol.X {
			usage[i] += r.Coeffs[j] * x
		}
	}
	a.cache = append(a.cache, dmmCacheEntry{bounds: bounds, sol: sol, usage: usage})
	a.inexact = a.inexact || !sol.Exact
	a.answered(k, sol.Bound)
	return sol.Bound, sol.Exact, sol.Nodes, nil
}

// spanAt returns the index p of the first span starting above k, and
// whether spans[p-1] holds k (never once the memo is inexact); hold mu.
func (a *Analysis) spanAt(k int64) (p int, ok bool) {
	p = sort.Search(len(a.spans), func(i int) bool { return a.spans[i].lo > k })
	return p, !a.inexact && p > 0 && k <= a.spans[p-1].hi
}

// answered records that the exact memo answered k with optimum bound:
// k widens a neighboring span of the same optimum across the gap
// between them (no span lies in the gap, and by monotonicity every k in
// it has that optimum), or else gets a span of its own. Callers hold mu.
func (a *Analysis) answered(k, bound int64) {
	switch p, ok := a.spanAt(k); {
	case ok || a.inexact:
	case p > 0 && a.spans[p-1].bound == bound:
		a.spans[p-1].hi = k
	case p < len(a.spans) && a.spans[p].bound == bound:
		a.spans[p].lo = k
	default:
		a.spans = slices.Insert(a.spans, p, kSpan{lo: k, hi: k, bound: bound})
	}
}

// lookup returns the index of the memo entry answering capacity vector
// bounds, or -1: the entry solved under bounds, else the first exact
// entry dominating it. While every entry is exact, any dominating one
// answers the same optimum, so the newest (a sweep's likeliest) is
// returned at once. Callers hold mu.
func (a *Analysis) lookup(bounds []int64) int {
	first := -1
	for i := len(a.cache) - 1; i >= 0; i-- {
		e := &a.cache[i]
		if slices.Equal(e.bounds, bounds) {
			return i
		}
		fits := e.sol.Exact && fitsUnder(bounds, e.bounds) && fitsUnder(e.usage, bounds)
		if fits && !a.inexact {
			return i
		} else if fits {
			first = i
		}
	}
	return first
}

// fitsUnder reports x ≤ y elementwise (len(x) ≤ len(y)).
func fitsUnder(x, y []int64) bool {
	for i := range x {
		if x[i] > y[i] {
			return false
		}
	}
	return true
}

// DMMWindow bounds the number of deadline misses of the target chain
// in any time interval of length dt: at most η+_b(dt) activations fall
// into such an interval, so dmm(η+_b(dt)) bounds their misses. This is
// the form requirements are often stated in ("at most one miss per
// second") before being translated to activation counts. An interval
// too short to contain any activation trivially bounds the misses by
// zero (Exact, Trivial "no-activations").
func (a *Analysis) DMMWindow(dt curves.Time) (DMMResult, error) {
	k := a.Target.Activation.EtaPlus(dt)
	if k <= 0 {
		return DMMResult{K: 0, Exact: true, Trivial: "no-activations", Quality: degrade.ExactInfo()}, nil
	}
	return a.DMM(k)
}

// Curve evaluates the DMM at each k in ks.
func (a *Analysis) Curve(ks []int64) ([]DMMResult, error) {
	return a.CurveCtx(context.Background(), ks)
}

// CurveCtx is Curve with cooperative cancellation.
func (a *Analysis) CurveCtx(ctx context.Context, ks []int64) ([]DMMResult, error) {
	out := make([]DMMResult, 0, len(ks))
	for _, k := range ks {
		r, err := a.DMMValueCtx(ctx, k)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	a.fillOmegas(out)
	return out, nil
}

// Breakpoints scans k in [1, maxK] and returns the first k at which the
// DMM attains each new value — the representation the paper's Table II
// uses (dmm_c(3)=3, dmm_c(76)=4, …). The scan warms the memo cache
// with the maxK solve first: its capacities dominate every smaller k's,
// so the ascending sweep degenerates to a handful of ILP solves (the
// k-regimes whose optimum is still capacity-limited) plus cache hits.
func (a *Analysis) Breakpoints(maxK int64) ([]DMMResult, error) {
	return a.BreakpointsCtx(context.Background(), maxK)
}

// BreakpointsCtx is Breakpoints with cooperative cancellation: the
// sweep checks ctx between k's (and the underlying solves poll it too),
// so even a sweep over millions of k's stops promptly.
func (a *Analysis) BreakpointsCtx(ctx context.Context, maxK int64) ([]DMMResult, error) {
	// An upfront check makes a dead context fail even when every k is
	// answered trivially or from the memo cache (the periodic in-loop
	// checks only fire every cancelCheckEvery k's).
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("twca: breakpoints sweep canceled: %w", err)
	}
	if !a.opts.NoCache && maxK > 1 {
		if _, err := a.DMMCtx(ctx, maxK); err != nil {
			return nil, err
		}
	}
	var out []DMMResult
	last := int64(-1)
	for k := int64(1); k <= maxK; k++ {
		if k%cancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("twca: breakpoints sweep canceled at k=%d: %w", k, err)
			}
		}
		r, err := a.DMMValueCtx(ctx, k)
		if err != nil {
			return nil, err
		}
		if r.Value == last {
			continue
		}
		out = append(out, r)
		last = r.Value
	}
	a.fillOmegas(out)
	return out, nil
}

// WeaklyHard reports whether the target chain satisfies the weakly-hard
// (m, k) constraint "at most m misses in any k consecutive executions"
// under this analysis, i.e. dmm(k) ≤ m.
func (a *Analysis) WeaklyHard(m, k int64) (bool, error) {
	r, err := a.DMM(k)
	if err != nil {
		return false, err
	}
	return r.Value <= m, nil
}

// AnalyzeAll runs New for every regular chain of sys that has a
// deadline, on a worker pool of the given width (≤ 0 selects
// runtime.GOMAXPROCS(0)), returning analyses keyed by chain name.
// Chains whose analysis fails yield an entry in errs instead. The
// result is identical to the serial loop for any worker count.
func AnalyzeAll(sys *model.System, opts Options, workers int) (map[string]*Analysis, map[string]error) {
	return AnalyzeAllCtx(context.Background(), sys, opts, workers)
}

// AnalyzeAllCtx is AnalyzeAll with cooperative cancellation; chains cut
// short by ctx yield an errs entry wrapping ctx.Err().
func AnalyzeAllCtx(ctx context.Context, sys *model.System, opts Options, workers int) (map[string]*Analysis, map[string]error) {
	if opts.Latency.Trace != nil {
		workers = 1 // interleaved trace output would be useless
	}
	var targets []*model.Chain
	for _, c := range sys.RegularChains() {
		if c.Deadline > 0 {
			targets = append(targets, c)
		}
	}
	analyses := make([]*Analysis, len(targets))
	failures := make([]error, len(targets))
	parallel.ForEach(workers, len(targets), func(i int) error {
		analyses[i], failures[i] = NewCtx(ctx, sys, targets[i], opts)
		return nil
	})
	results := make(map[string]*Analysis)
	errs := make(map[string]error)
	for i, c := range targets {
		if failures[i] != nil {
			errs[c.Name] = failures[i]
			continue
		}
		results[c.Name] = analyses[i]
	}
	if len(errs) == 0 {
		errs = nil
	}
	return results, errs
}
