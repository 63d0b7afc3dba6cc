package policy

import (
	"math"
	"math/bits"

	"repro/internal/curves"
	"repro/internal/model"
	"repro/internal/segments"
)

// effectiveKind returns the chain kind used by the analysis: overload
// chains are treated as synchronous, which the paper argues is without
// loss of generality because at most one activation of an overload
// chain falls into any busy window (§V).
func effectiveKind(c *model.Chain) model.Kind {
	if c.Overload {
		return model.Synchronous
	}
	return c.Kind
}

// sppDemand is the right-hand side of Theorem 1's Equation (1)
// evaluated at window length w: the maximum processor demand that
// competes with q instances of the target chain inside a window of
// length w under preemptive SPP. The busy time B_b(q) is the least
// fixed point w = sppDemand(w). On a flat Info (segments.AnalyzeFlat)
// the Deferred terms vanish and this degenerates to the
// whole-busy-period demand Σ_a η⁺_a(w)·C_a — the policy-agnostic bound
// the non-SPP analyzable policies build on.
//
// With excludeOverload, overload chains are dropped from the
// arbitrarily-interfering and deferred-synchronous terms — which, since
// overload chains are normalized to synchronous, removes them entirely.
// This is exactly the L_b(q) shape of Equation (4) when w is fixed to
// δ-_b(q) + D_b.
func sppDemand(info *segments.Info, q int64, w curves.Time, excludeOverload bool) curves.Time {
	b := info.B
	// Line 1: the q computations themselves.
	d := curves.MulSat(b.TotalWCET(), q)
	// Line 2: self-interference of additional activations, asynchronous
	// target chains only.
	if effectiveKind(b) == model.Asynchronous {
		if extra := b.Activation.EtaPlus(w) - q; extra > 0 {
			d = curves.AddSat(d, curves.MulSat(info.SelfHeader().Cost(), extra))
		}
	}
	// Line 3: arbitrarily interfering chains.
	for _, a := range info.Interfering {
		if excludeOverload && a.Overload {
			continue
		}
		d = curves.AddSat(d, curves.MulSat(a.TotalWCET(), a.Activation.EtaPlus(w)))
	}
	for _, a := range info.Deferred {
		if effectiveKind(a) == model.Asynchronous {
			// Line 4: deferred asynchronous chains — arbitrarily many
			// backlogged instances may execute the header segment, plus
			// one instance per further segment.
			d = curves.AddSat(d, curves.MulSat(info.HeaderSegment(a).Cost(), a.Activation.EtaPlus(w)))
			for _, s := range info.Segments(a) {
				d = curves.AddSat(d, s.Cost())
			}
		} else {
			// Line 5: deferred synchronous chains — one instance, one
			// (critical) segment.
			if excludeOverload && a.Overload {
				continue
			}
			d = curves.AddSat(d, info.CriticalSegment(a).Cost())
		}
	}
	return d
}

// LoadOne is the fixed-point unit of Overloaded's load bound: a bound of
// LoadOne is a long-run load of exactly 1.
const LoadOne = 1 << 32

// Overloaded reports whether the long-run load of target chain info.B
// plus its arbitrarily interfering chains provably exceeds 1, so that no
// busy window of B ever closes under any analyzable policy: the Theorem-2
// search for K_b can only diverge or run into its MaxQ cap. load is the
// lower bound on that long-run load it compared, in units of 1/LoadOne.
//
// With C = TotalWCET and s = curves.Slope (δ-(n) ≤ (n−1)·s, η+(w) ≥ w/s),
// lines 1 and 3 of sppDemand bound every analyzable policy's Demand from
// below (edf is sppDemand on the flat structure, np-spp adds a blocking
// term ≥ 0):
//
//	Demand(q, w) ≥ q·C_b + Σ_{i∈IC(b)} C_i·η+_i(w) ≥ q·C_b + U_I·w,
//
// where U_I = Σ_{i∈IC(b)} C_i/s_i, skipping overload chains under
// excludeOverload (an interferer of unknown slope adds 0, still a lower
// bound). A window closes at q only at a fixed point w = Demand(q, w)
// with w ≤ δ-_b(q+1) ≤ q·s_b. A finite Demand saturated nowhere, so the
// inequality holds exactly there and gives w·(1 − U_I) ≥ q·C_b > 0, hence
// q·s_b ≥ w ≥ q·C_b/(1 − U_I), i.e. C_b/s_b + U_I ≤ 1. Contrapositively,
// C_b > 0 and C_b/s_b + U_I > 1 leave no q at which a window closes.
//
// The sum is exact integer arithmetic: each term is ⌊C·LoadOne/s⌋ and
// every saturation rounds down, so load never exceeds the true load
// times LoadOne and a load of at most 1 is never reported overloaded.
// An unknown target slope, or C_b ≤ 0 (which Validate rules out), never
// reports overload. Overloaded allocates nothing.
func Overloaded(info *segments.Info, excludeOverload bool) (load uint64, overloaded bool) {
	b := info.B
	sb, ok := curves.Slope(b.Activation)
	cb := b.TotalWCET()
	if !ok || cb <= 0 {
		return 0, false
	}
	load = loadTerm(cb, sb)
	for _, a := range info.Interfering {
		if excludeOverload && a.Overload {
			continue
		}
		c := a.TotalWCET()
		if c < 0 {
			return 0, false // malformed: C·η+ would lower the demand
		}
		if s, ok := curves.Slope(a.Activation); ok {
			sum, carry := bits.Add64(load, loadTerm(c, s), 0)
			if carry != 0 {
				sum = math.MaxUint64
			}
			load = sum
		}
	}
	return load, load > LoadOne
}

// loadTerm returns ⌊c·LoadOne/s⌋ for c ≥ 0 and s > 0, saturating at
// math.MaxUint64 (a load of about 2³²) instead of overflowing.
func loadTerm(c, s curves.Time) uint64 {
	hi, lo := bits.Mul64(uint64(c), LoadOne)
	if hi >= uint64(s) {
		return math.MaxUint64
	}
	q, _ := bits.Div64(hi, lo, uint64(s))
	return q
}

// blockingTerm is the non-preemptive safety margin: the largest single
// WCET among tasks of chains other than the target. The whole-busy-
// period demand is already sound for any work-conserving policy (the
// window opens at an idle instant), so this term is deliberate extra
// headroom matching the classical NP-SPP blocking shape — a committed
// job of any other chain may delay the window-opening instant by at
// most one WCET. With excludeOverload, overload chains cannot activate
// and so cannot block.
func blockingTerm(info *segments.Info, excludeOverload bool) curves.Time {
	var block curves.Time
	scan := func(a *model.Chain) {
		if excludeOverload && a.Overload {
			return
		}
		for _, t := range a.Tasks {
			if t.WCET > block {
				block = t.WCET
			}
		}
	}
	for _, a := range info.Interfering {
		scan(a)
	}
	for _, a := range info.Deferred {
		scan(a)
	}
	return block
}
