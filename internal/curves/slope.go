package curves

// Slope returns a long-run slope s of m: a distance such that
//
//	δ-(n) ≤ (n-1)·s  and  η+(w) ≥ w/s   for every n ≥ 1 and w ≥ 0,
//
// so 1/s is a rate m never falls below in the long run and s bounds its
// minimum distance function from above. The busy-window overload
// certificate (policy.Overloaded) is built on it. ok is false for models
// whose slope is not known here (Burst, Trace, Sum and any foreign
// model) and for literals outside the documented parameter ranges.
//
//   - Periodic: s = max(Period, DMin). (n-1)·P − J and (n-1)·DMin are
//     both at most (n-1)·s, and η+ = min(⌈(w+J)/P⌉, ⌈w/DMin⌉) is at least
//     w/s. A programmatic literal may carry DMin > Period (NewPeriodicJitter
//     and Spec.Model clamp or reject that), which the max covers.
//   - Sporadic: s = MinDistance, exactly its δ- step.
//   - Jittered: the slope of its inner model; jitter only lowers δ- and
//     raises η+.
func Slope(m EventModel) (s Time, ok bool) {
	switch m := m.(type) {
	case Periodic:
		if m.Period <= 0 || m.Jitter < 0 {
			return 0, false
		}
		return MaxTime(m.Period, m.DMin), true
	case Sporadic:
		if m.MinDistance <= 0 {
			return 0, false
		}
		return m.MinDistance, true
	case Jittered:
		if m.Jitter < 0 {
			return 0, false
		}
		return Slope(m.Inner)
	}
	return 0, false
}
