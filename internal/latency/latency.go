// Package latency implements the worst-case latency analysis of §IV of
// the paper: the q-event busy time B_b(q) of Theorem 1, the busy-window
// bound K_b and worst-case latency WCL_b of Theorem 2, and the
// per-busy-window deadline miss count N_b of Lemma 3.
//
// The analysis revisits Schlatow & Ernst's task-chain latency analysis
// (RTAS 2016) in the multiple-event busy-window style of Quinton et al.
// (DATE 2012): a fixed point over the demand a window of q chain
// instances can generate, with interference from other chains classified
// by the segment structure of package segments.
package latency

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/curves"
	"repro/internal/degrade"
	"repro/internal/faultinject"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/policy"
	"repro/internal/segments"
)

// ErrDiverged is wrapped by errors returned when a busy-window fixed
// point exceeds the configured horizon, i.e. the priority level is
// overloaded and busy windows need not close.
var ErrDiverged = errors.New("busy window diverged")

// ErrKExceeded is wrapped by errors returned when no q ≤ MaxQ satisfies
// the busy-window termination test of Theorem 2.
var ErrKExceeded = errors.New("busy-window event bound exceeded MaxQ")

// Options tunes the analysis. The zero value picks sensible defaults.
type Options struct {
	// MaxQ bounds the K_b search of Theorem 2 (default 4096). A target
	// whose long-run load provably exceeds 1 never finds K_b and fails
	// at this cap or at Horizon; under Degrade.Allow such a target skips
	// the search (see AnalyzeInfoCtx), so MaxQ then costs nothing.
	MaxQ int64
	// Horizon bounds busy-window lengths; a fixed point exceeding it
	// reports ErrDiverged (default 1<<40).
	Horizon curves.Time
	// MaxIterations bounds fixed-point iterations per q (default 1<<20).
	MaxIterations int
	// ExcludeOverload abstracts all overload chains away, yielding the
	// analysis of the typical system (used in §VI to establish that the
	// case study is schedulable when neither σa nor σb is activated).
	ExcludeOverload bool
	// Trace, when non-nil, receives a line per fixed-point step and per
	// busy-window probe — the diagnostic to read when a bound surprises
	// you or an analysis diverges.
	Trace io.Writer
	// Degrade enables the graceful-degradation ladder: with Allow set,
	// a diverging or budget-exceeded busy-window analysis (ErrDiverged,
	// ErrKExceeded, an expired deadline) returns the sound TrivialResult
	// instead of an error, and a provably overloaded target returns it
	// without searching at all.
	Degrade degrade.Policy
	// Policy names the scheduling policy the demand model assumes; see
	// internal/policy. The empty string selects "spp", the paper's
	// preemptive static-priority model, keeping every existing call site
	// byte-identical. Analysis entry points reject simulation-only
	// policies ("jcl") with an error wrapping policy.ErrUnsupported.
	Policy string
}

// WithDefaults returns o with unset fields replaced by the documented
// defaults. Exported for sibling analysis packages that reuse the
// fixed-point parameters.
func (o Options) WithDefaults() Options { return o.withDefaults() }

// Validate rejects nonsensical option values with a descriptive error.
// Zero values are fine (they select the documented defaults); negative
// values are the contradictions this catches.
func (o Options) Validate() error {
	if o.MaxQ < 0 {
		return fmt.Errorf("latency: options: MaxQ %d is negative (0 selects the default 4096)", o.MaxQ)
	}
	if o.Horizon < 0 {
		return fmt.Errorf("latency: options: Horizon %d is negative (0 selects the default 1<<40)", o.Horizon)
	}
	if o.MaxIterations < 0 {
		return fmt.Errorf("latency: options: MaxIterations %d is negative (0 selects the default 1<<20)", o.MaxIterations)
	}
	if _, err := policy.ByName(o.Policy); err != nil {
		return fmt.Errorf("latency: options: %w", err)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.MaxQ <= 0 {
		o.MaxQ = 4096
	}
	if o.Horizon <= 0 {
		o.Horizon = 1 << 40
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 1 << 20
	}
	return o
}

// Result is the outcome of analyzing one target chain.
type Result struct {
	Chain *model.Chain
	// K is the maximum number of activations in a σb-busy-window
	// (Theorem 2).
	K int64
	// BusyTimes[q-1] = B_b(q) for q in [1, K].
	BusyTimes []curves.Time
	// WCL is the worst-case latency max_q B(q) - δ-(q) (Theorem 2).
	WCL curves.Time
	// CriticalQ is the q attaining WCL.
	CriticalQ int64
	// MissesPerWindow is N_b of Lemma 3: how many of the K instances in
	// one busy window can miss the deadline. It is 0 when the chain has
	// no deadline.
	MissesPerWindow int64
	// Schedulable reports WCL ≤ Deadline; it is true for chains without
	// a deadline.
	Schedulable bool
	// BCL is the best-case latency: the chain runs its BCETs without
	// any interference. Together with WCL it bounds the chain's output
	// jitter (WCL − BCL), the quantity downstream consumers of the
	// chain's results need for their own event models.
	BCL curves.Time
	// Quality tags how the result was obtained. The zero value is
	// Exact; TrivialResult carries the Trivial tag with the budget that
	// tripped.
	Quality degrade.Info
	// Iterations counts fixed-point iterations summed over all q. It
	// is diagnostic only and not part of any wire schema:
	// two results that differ only in Iterations are the same analysis.
	Iterations int64
	// Policy is the canonical name of the scheduling policy the result
	// was computed under ("spp" for every pre-policy call site).
	Policy string
}

// OutputJitter returns the latency spread WCL − BCL.
func (r *Result) OutputJitter() curves.Time { return r.WCL - r.BCL }

// Demand returns the right-hand side of Theorem 1's Equation (1)
// evaluated at window length w under the default (SPP) policy: the
// maximum processor demand that competes with q instances of the target
// chain inside a window of length w. The busy time B_b(q) is the least
// fixed point w = Demand(w). The Theorem-1 arithmetic itself lives in
// internal/policy (each policy contributes its own demand shape); this
// wrapper remains the stable name analysis packages and tests built on.
//
// With excludeOverload, overload chains are dropped from the
// arbitrarily-interfering and deferred-synchronous terms — which, since
// overload chains are normalized to synchronous, removes them entirely.
// This is exactly the L_b(q) shape of Equation (4) when w is fixed to
// δ-_b(q) + D_b.
func Demand(info *segments.Info, q int64, w curves.Time, excludeOverload bool) curves.Time {
	return policy.Default().Demand(info, q, w, excludeOverload)
}

// analyzerFor resolves the options' scheduling policy to its analysis
// face; simulation-only policies yield an error wrapping
// policy.ErrUnsupported.
func analyzerFor(opts Options) (policy.Analyzer, error) {
	pol, err := policy.AnalyzerFor(opts.Policy)
	if err != nil {
		return nil, fmt.Errorf("latency: %w", err)
	}
	return pol, nil
}

// BusyTime computes B_b(q) of Theorem 1 as the least fixed point of
// Demand, or an ErrDiverged error.
func BusyTime(info *segments.Info, q int64, opts Options) (curves.Time, error) {
	w, _, err := busyTimeFrom(context.Background(), info, q, 0, opts)
	return w, err
}

// cancelCheckEvery is how many fixed-point iterations run between
// cooperative cancellation checks. Realistic systems converge in a
// handful of iterations; the check exists for near-divergent fixed
// points that crawl toward the horizon in small steps.
const cancelCheckEvery = 1024

// busyTimeFrom is BusyTime with a warm start: Kleene iteration may
// begin at any point known to be ≤ the least fixed point, and B(q−1)
// always qualifies because Demand is monotone in q. Starting from the
// previous busy time turns the per-q quadratic restart cost into a
// single pass — essential for high-utilization systems whose fixed
// points advance in small steps. The second return value counts the
// Demand evaluations spent.
func busyTimeFrom(ctx context.Context, info *segments.Info, q int64, start curves.Time, opts Options) (curves.Time, int64, error) {
	opts = opts.withDefaults()
	pol, err := analyzerFor(opts)
	if err != nil {
		return 0, 0, err
	}
	// Fault-injection seam: once per fixed-point evaluation, before the
	// iteration starts. A budget fault reports divergence — the trigger
	// the degradation ladder turns into TrivialResult.
	if f := faultinject.At(faultinject.PointBusyWindow); f != nil {
		if err := f.Apply(); err != nil {
			return 0, 0, fmt.Errorf("latency: %s: B(%d): %w", info.B.Name, q, err)
		}
		if f.Budget() {
			return 0, 0, fmt.Errorf("latency: %s: B(%d) budget exhausted (injected): %w",
				info.B.Name, q, ErrDiverged)
		}
	}
	w := start
	for i := 0; i < opts.MaxIterations; i++ {
		if i%cancelCheckEvery == cancelCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return 0, int64(i), fmt.Errorf("latency: %s: B(%d) canceled: %w", info.B.Name, q, err)
			}
		}
		next := pol.Demand(info, q, w, opts.ExcludeOverload)
		if opts.Trace != nil {
			fmt.Fprintf(opts.Trace, "latency: %s B(%d) iteration %d: %d → %d\n",
				info.B.Name, q, i, w, next)
		}
		if next == w {
			return w, int64(i) + 1, nil
		}
		if next > opts.Horizon || next.IsInf() {
			return 0, int64(i) + 1, fmt.Errorf("latency: %s: B(%d) exceeds horizon %d: %w",
				info.B.Name, q, opts.Horizon, ErrDiverged)
		}
		w = next
	}
	return 0, int64(opts.MaxIterations), fmt.Errorf("latency: %s: B(%d) did not converge in %d iterations: %w",
		info.B.Name, q, opts.MaxIterations, ErrDiverged)
}

// Analyze runs the full §IV analysis for target chain b of sys, on the
// interference structure of the options' scheduling policy.
func Analyze(sys *model.System, b *model.Chain, opts Options) (*Result, error) {
	return AnalyzeCtx(context.Background(), sys, b, opts)
}

// AnalyzeCtx is Analyze with cooperative cancellation: the busy-window
// search checks ctx between activations q and inside long fixed-point
// iterations, returning an error wrapping ctx.Err() when the context is
// done.
func AnalyzeCtx(ctx context.Context, sys *model.System, b *model.Chain, opts Options) (*Result, error) {
	pol, err := analyzerFor(opts)
	if err != nil {
		return nil, err
	}
	return AnalyzeInfoCtx(ctx, pol.Structure(sys, b, false), opts)
}

// AnalyzeInfo is Analyze on a precomputed segment structure, which may
// also be the structure-blind segments.AnalyzeFlat baseline.
func AnalyzeInfo(info *segments.Info, opts Options) (*Result, error) {
	return AnalyzeInfoCtx(context.Background(), info, opts)
}

// TrivialResult is the Lemma-3 floor of the degradation ladder: when
// the busy-window analysis cannot complete, the weakest sound statement
// is "the worst-case latency is unbounded and every window may miss" —
// K = 1 with one miss per window, which makes any downstream DMM fall
// back to its own trivial bound min(k, ·) = k. BCL is still exact (the
// chain's summed best-case execution times need no fixed point). budget
// names the resource that tripped (a degrade.Budget* constant).
func TrivialResult(info *segments.Info, budget string) *Result {
	b := info.B
	res := &Result{
		Chain:     b,
		K:         1,
		BusyTimes: []curves.Time{curves.Infinity},
		WCL:       curves.Infinity,
		CriticalQ: 1,
		Quality:   degrade.Info{Quality: degrade.Trivial, Budget: budget, Rung: degrade.RungLemma3},
	}
	for _, t := range b.Tasks {
		res.BCL = curves.AddSat(res.BCL, t.BCET)
	}
	if b.Deadline > 0 {
		res.MissesPerWindow = 1
	} else {
		res.Schedulable = true // no deadline to miss, even with WCL unbounded
	}
	return res
}

// degradableBudget classifies errors the ladder may absorb: resource
// exhaustion degrades, everything else (cancellation by a departed
// caller, malformed input) propagates.
func degradableBudget(err error) (string, bool) {
	switch {
	case errors.Is(err, ErrDiverged), errors.Is(err, ErrKExceeded):
		return degrade.BudgetFixedPoint, true
	case errors.Is(err, context.DeadlineExceeded):
		return degrade.BudgetDeadline, true
	case errors.Is(err, faultinject.ErrInjected):
		return degrade.BudgetInjected, true
	}
	return "", false
}

// AnalyzeInfoCtx is AnalyzeInfo with cooperative cancellation. Under
// Options.Degrade.Allow, budget-exhaustion failures (divergence, MaxQ,
// an expired deadline) return TrivialResult instead of an error; plain
// cancellation always propagates.
//
// Under Degrade.Allow the busy-window search is preceded by the
// long-run-load certificate of policy.Overloaded: when the target and
// its arbitrarily interfering chains provably load the processor above
// 1, no q can satisfy Theorem 2's termination test, so the search could
// only fail with ErrKExceeded or ErrDiverged, which the ladder maps to
// the fixed-point budget. The certificate returns that TrivialResult at
// once, identical to the one the search would have ended in, instead of
// walking up to MaxQ busy windows to learn it. Fail-hard callers keep
// the search, whose error tells the two failures apart.
func AnalyzeInfoCtx(ctx context.Context, info *segments.Info, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	pol, perr := analyzerFor(opts)
	if perr != nil {
		return nil, perr
	}
	if opts.Degrade.Allow && ctx.Err() == nil && neverCloses(info, opts) {
		return policyTrivial(info, degrade.BudgetFixedPoint, pol), nil
	}
	res, err := analyzeExact(ctx, info, opts)
	if err != nil && opts.Degrade.Allow {
		if budget, ok := degradableBudget(err); ok {
			return policyTrivial(info, budget, pol), nil
		}
	}
	if res != nil {
		res.Policy = pol.Name()
	}
	return res, err
}

// policyTrivial is TrivialResult tagged with the analysis policy, the
// ladder's Lemma-3 floor as AnalyzeInfoCtx returns it.
func policyTrivial(info *segments.Info, budget string, pol policy.Analyzer) *Result {
	triv := TrivialResult(info, budget)
	triv.Policy = pol.Name()
	return triv
}

// neverCloses is the long-run-load certificate of the ladder: it reports
// whether policy.Overloaded proves that no busy window of info.B closes,
// so the Theorem-2 search could only end in ErrKExceeded or ErrDiverged —
// both the fixed-point budget. The check is O(chains) and allocation-free
// where the search it replaces walks up to MaxQ fixed points.
func neverCloses(info *segments.Info, opts Options) bool {
	load, over := policy.Overloaded(info, opts.ExcludeOverload)
	if over && opts.Trace != nil {
		fmt.Fprintf(opts.Trace, "latency: %s: long-run load ≥ %.6f > 1: busy window never closes\n",
			info.B.Name, float64(load)/policy.LoadOne)
	}
	return over
}

// analyzeExact is the historical fail-hard analysis: the Theorem 1/2
// busy-window search, returning an error when any budget is exceeded.
func analyzeExact(ctx context.Context, info *segments.Info, opts Options) (*Result, error) {
	b := info.B
	res := &Result{Chain: b, WCL: -1}
	for _, t := range b.Tasks {
		res.BCL = curves.AddSat(res.BCL, t.BCET)
	}
	var prev curves.Time
	for q := int64(1); ; q++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("latency: %s: canceled at q=%d: %w", b.Name, q, err)
		}
		if q > opts.MaxQ {
			return nil, fmt.Errorf("latency: %s: no busy-window end below q=%d: %w",
				b.Name, opts.MaxQ, ErrKExceeded)
		}
		bq, iters, err := busyTimeFrom(ctx, info, q, prev, opts)
		res.Iterations += iters
		if err != nil {
			return nil, err
		}
		prev = bq
		res.BusyTimes = append(res.BusyTimes, bq)
		if opts.Trace != nil {
			fmt.Fprintf(opts.Trace, "latency: %s q=%d: B=%d δ-=%d latency=%d (next δ-=%d)\n",
				b.Name, q, bq, b.Activation.DeltaMin(q), bq-b.Activation.DeltaMin(q),
				b.Activation.DeltaMin(q+1))
		}
		if lat := bq - b.Activation.DeltaMin(q); lat > res.WCL {
			res.WCL = lat
			res.CriticalQ = q
		}
		// Theorem 2: the busy window surely ends before the (q+1)-th
		// activation can arrive.
		if next := b.Activation.DeltaMin(q + 1); bq <= next {
			res.K = q
			break
		}
	}
	if b.Deadline > 0 {
		for q := int64(1); q <= res.K; q++ {
			if res.BusyTimes[q-1]-b.Activation.DeltaMin(q) > b.Deadline {
				res.MissesPerWindow++
			}
		}
		res.Schedulable = res.WCL <= b.Deadline
	} else {
		res.Schedulable = true
	}
	return res, nil
}

// AnalyzeAll analyzes every chain of the system that has a deadline on
// a worker pool of the given width (≤ 0 selects runtime.GOMAXPROCS(0)),
// returning results keyed by chain name. Chains whose analysis diverges
// yield an entry in errs instead. The per-chain analyses are
// independent, so the outcome is identical to the serial loop for any
// worker count.
func AnalyzeAll(sys *model.System, opts Options, workers int) (map[string]*Result, map[string]error) {
	return AnalyzeAllCtx(context.Background(), sys, opts, workers)
}

// AnalyzeAllCtx is AnalyzeAll with cooperative cancellation; chains
// whose analysis is cut short by ctx yield an errs entry wrapping
// ctx.Err().
func AnalyzeAllCtx(ctx context.Context, sys *model.System, opts Options, workers int) (map[string]*Result, map[string]error) {
	if opts.Trace != nil {
		// Interleaved trace lines from concurrent chains would be
		// useless; tracing implies the serial order.
		workers = 1
	}
	var targets []*model.Chain
	for _, c := range sys.Chains {
		if c.Deadline != 0 {
			targets = append(targets, c)
		}
	}
	perChain := make([]*Result, len(targets))
	failures := make([]error, len(targets))
	parallel.ForEach(workers, len(targets), func(i int) error {
		perChain[i], failures[i] = AnalyzeCtx(ctx, sys, targets[i], opts)
		return nil
	})
	results := make(map[string]*Result)
	errs := make(map[string]error)
	for i, c := range targets {
		if failures[i] != nil {
			errs[c.Name] = failures[i]
			continue
		}
		results[c.Name] = perChain[i]
	}
	if len(errs) == 0 {
		errs = nil
	}
	return results, errs
}
