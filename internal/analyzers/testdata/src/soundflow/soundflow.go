// Package soundflow seeds violations of the bound-direction contract:
// values derived from the Infinity sentinel (directly, or through a
// producer the call-graph summary marks) are upper bounds, and the
// rule must flag every operation that can only tighten them — min
// against an unproven operand, subtraction with the bound as minuend,
// and the clamp-down if-pattern — while accepting the guard idiom,
// min/max over proven bounds, and the allowlisted dominance-tested
// clamp.
package soundflow

type Time int64

// Infinity is the configured upper source (fixture stand-in for
// curves.Infinity).
const Infinity Time = 1<<63 - 1

// loosen returns an Ω-style capacity: it may return Infinity, so the
// interprocedural summary makes every call site a source.
func loosen(d Time) Time {
	if d <= 0 {
		return Infinity
	}
	return d + 1
}

// BadMin reduces the bound with min against an arbitrary guess.
func BadMin(d, guess Time) Time {
	bound := loosen(d)
	return min(bound, guess) // want "min of an upper-bound-tainted value"
}

// BadSub uses the bound as minuend outside any comparison.
func BadSub(d, used Time) Time {
	bound := loosen(d)
	return bound - used // want "subtraction with upper-bound-tainted minuend"
}

// BadClamp clamps the bound down to an unproven limit.
func BadClamp(d, k Time) Time {
	bound := loosen(d)
	if bound > k { // want "clamp-down of upper-bound-tainted"
		bound = k
	}
	return bound
}

// AllowedClamp is the same clamp, exempt via Config.SoundflowAllow:
// the fixture stand-in for the dmm(k) ≤ k clamp whose dominance is
// property-tested.
func AllowedClamp(d, k Time) Time {
	bound := loosen(d)
	if bound > k {
		bound = k
	}
	return bound
}

// GuardOK computes headroom inside a comparison — the canonical
// overflow pre-check, not a tightened bound.
func GuardOK(d, step Time) bool {
	bound := loosen(d)
	return step > Infinity-bound
}

// MinOfBoundsOK takes the min of two upper bounds, which is itself an
// upper bound.
func MinOfBoundsOK(a, b Time) Time {
	x := loosen(a)
	y := loosen(b)
	return min(x, y)
}

// MaxOK loosens further; max never tightens.
func MaxOK(d, floor Time) Time {
	bound := loosen(d)
	return max(bound, floor)
}

// Waived documents a reduction that is conservative in context.
func Waived(d, k Time) Time {
	bound := loosen(d)
	//twcalint:ignore soundflow slack headroom shrinks the safe side here; smaller output degrades earlier
	return bound - k
}

// wrap forwards loosen's bound; the call-graph summary carries the
// taint through it, so its call sites are sources as well.
func wrap(d Time) Time {
	return loosen(d)
}

// BadTransitive reduces a bound two call levels from its source.
func BadTransitive(d, guess Time) Time {
	return min(wrap(d), guess) // want "min of an upper-bound-tainted value"
}
