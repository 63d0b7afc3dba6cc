package twca

import (
	"context"

	"repro/internal/curves"
	"repro/internal/model"
	"repro/internal/policy"
)

// WarmStart carries incremental-analysis hints into NewWarmCtx. All
// hints are advisory: an unusable hint is silently ignored, and a
// usable one changes only the work spent, never any result value.
type WarmStart struct {
	// From is a completed analysis of a demand-dominated neighbor: the
	// same target chain under the same options, in a system whose
	// busy-window demand function is pointwise ≤ the analyzed system's
	// at every window length (smaller WCETs, less release jitter,
	// larger inter-arrival distances — exactly the "sound side" of each
	// sensitivity perturbation axis). Demand dominance forces the
	// neighbor's busy-window fixed points at or below the analyzed
	// system's, so its BusyTimes are valid Kleene starting points; a
	// neighbor that is NOT demand-dominated would be unsound and must
	// not be passed. The sensitivity warm store enforces this by
	// construction (nearest solved neighbor on the dominated side of
	// each perturbation coordinate).
	From *Analysis
}

// usable reports whether the hint may seed the analysis of chain b
// under opts: same target, same abstraction, the same scheduling
// policy (two policies' demand functions are not comparable, so a
// cross-policy seed could start Kleene iteration above this policy's
// least fixed point — unsound), and a neighbor that completed its
// busy-window analysis exactly (a degraded neighbor's Infinity
// sentinel carries no information).
func (w *WarmStart) usable(b *model.Chain, opts Options) bool {
	if w == nil || w.From == nil {
		return false
	}
	from := w.From
	return from.Target.Name == b.Name &&
		from.opts.Flat == opts.Flat &&
		from.opts.NoCarryIn == opts.NoCarryIn &&
		policy.Canonical(from.opts.Latency.Policy) == policy.Canonical(opts.Latency.Policy) &&
		!from.Degraded.Degraded() &&
		!from.Latency.Quality.Degraded()
}

// latencySeeds returns the neighbor's busy times as warm seeds for the
// latency fixed-point iteration, or nil when the hint is unusable.
func (w *WarmStart) latencySeeds(b *model.Chain, opts Options) []curves.Time {
	if !w.usable(b, opts) {
		return nil
	}
	return w.From.Latency.BusyTimes
}

// NewWarmCtx is NewCtx with warm-start hints: the busy-window fixed
// points are seeded from the neighbor's, the Theorem-3 constraint
// template is adopted from the neighbor when the classified combination
// space coincides, and the neighbor's solved knapsack assignments prime
// the ILP's branch-and-bound incumbent. Every returned value — busy
// times, L(q), MinSlack, the unschedulable set, every DMM — is
// identical to NewCtx's; warm starts only reduce the work spent
// (TestWarmAnalysisMatchesCold pins this).
func NewWarmCtx(ctx context.Context, sys *model.System, b *model.Chain, opts Options, warm *WarmStart) (*Analysis, error) {
	return newCtx(ctx, sys, b, opts, warm)
}

// adoptTemplate shares the neighbor's Theorem-3 constraint template
// when it provably matches this analysis's: the same unschedulable
// combinations (elementwise-equal masks over the same dense
// active-segment ordinals per overload chain) and the same
// MissesPerWindow objective weight. The coefficient matrix and the
// compiled ilp.Template are immutable after construction, so sharing
// them is safe (each Analysis solves in its own scratch); the neighbor
// is remembered in warmFrom so its solved knapsacks can seed this
// analysis's ILP incumbents (values are comparable exactly because
// objective and matrix are shared).
func (a *Analysis) adoptTemplate(from *Analysis) bool {
	if from == nil || from.Degraded.Degraded() || from.tmpl == nil {
		return false
	}
	if from.Latency.MissesPerWindow != a.Latency.MissesPerWindow {
		return false
	}
	if len(from.Unschedulable) != len(a.Unschedulable) {
		return false
	}
	for i := range a.Unschedulable {
		if !a.Unschedulable[i].Mask.Equal(from.Unschedulable[i].Mask) {
			return false
		}
	}
	// The row layout is one row per active segment of each overload
	// chain, in order; the coefficient columns are answered by the
	// masks. Masks being equal is only meaningful if the dense segment
	// ordinals line up too.
	if len(a.overload) != len(from.overload) {
		return false
	}
	for i := range a.overload {
		if a.overload[i].Name != from.overload[i].Name {
			return false
		}
		as, fs := a.info.ActiveSegments(a.overload[i]), from.info.ActiveSegments(from.overload[i])
		if len(as) != len(fs) {
			return false
		}
		for j := range as {
			if as[j].Index != fs[j].Index {
				return false
			}
		}
	}
	a.rows = from.rows
	a.tmpl = from.tmpl
	a.rowChain = make([]*model.Chain, 0, len(from.rowChain))
	for _, over := range a.overload {
		for range a.info.ActiveSegments(over) {
			a.rowChain = append(a.rowChain, over)
		}
	}
	a.warmFrom = from
	return true
}

// buildOrAdoptTemplate assembles the Theorem-3 template, preferring to
// adopt the warm-start neighbor's when it matches. It builds nothing
// when DMM can never reach the ILP: without unschedulable combinations,
// without misses per window, or on a typically unschedulable system
// (whose U also holds the empty combination, a column no row caps).
func (a *Analysis) buildOrAdoptTemplate(warm *WarmStart) error {
	if len(a.Unschedulable) == 0 || !a.TypicalSchedulable || a.Latency.MissesPerWindow == 0 {
		return nil
	}
	if warm != nil && a.adoptTemplate(warm.From) {
		return nil
	}
	return a.buildProblemTemplate()
}

// incumbentFor scans the warm-start neighbor's solved knapsacks for the
// best assignment feasible under bounds, to seed the branch-and-bound
// incumbent. The neighbor shares this analysis's coefficient matrix and
// objective (adoptTemplate's invariant), so any cached assignment whose
// per-row usage fits under bounds is feasible here with the same
// objective value — a valid lower bound that prunes without changing
// the optimum. Only warmFrom.mu is taken; callers may hold a.mu, and
// the order a.mu → warmFrom.mu is acyclic because warmFrom is strictly
// older (it completed before this Analysis existed).
func (a *Analysis) incumbentFor(bounds []int64) []int64 {
	from := a.warmFrom
	if from == nil {
		return nil
	}
	from.mu.RLock()
	defer from.mu.RUnlock()
	var best []int64
	bestVal := int64(-1)
	for _, e := range from.cache {
		if len(e.usage) == len(bounds) && fitsUnder(e.usage, bounds) && e.sol.Value > bestVal {
			best, bestVal = e.sol.X, e.sol.Value
		}
	}
	return best
}
