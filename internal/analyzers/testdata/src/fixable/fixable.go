// Package fixable seeds exactly one violation per suggested-fix
// generator so the `twca-lint -fix` round-trip can be exercised end to
// end on a throwaway copy: apply, re-analyze, converge. The package
// defines its own AddSat/MulSat so the saturating rewrites resolve
// without an import.
package fixable

import (
	"strconv"
)

// Time mirrors curves.Time: the maximum value means "unbounded".
type Time int64

// Infinity is the absorbing sentinel.
const Infinity Time = 1<<63 - 1

// AddSat is the guarded additive helper the fix rewrites to.
func AddSat(a, b Time) Time {
	if a == Infinity || b == Infinity || a > Infinity-b {
		return Infinity
	}
	//twcalint:ignore saturation guarded by the Infinity/overflow check above
	return a + b
}

// MulSat is the guarded multiplicative helper.
func MulSat(a, b Time) Time {
	if a == 0 || b == 0 {
		return 0
	}
	if a == Infinity || b == Infinity || a > Infinity/b {
		return Infinity
	}
	//twcalint:ignore saturation guarded by the Infinity/overflow check above
	return a * b
}

// Label renders a Time. It keeps the import block above, which the
// collect-then-sort fix extends with "slices".
func Label(t Time) string {
	return strconv.FormatInt(int64(t), 10)
}

// Sum should become AddSat(a, b).
func Sum(a, b Time) Time {
	return a + b // want "raw \+ on saturating type"
}

// Scale should become total = MulSat(total, k).
func Scale(total, k Time) Time {
	total *= k // want "raw \*= on saturating type"
	return total
}

// Order should become the collect-then-sort idiom.
func Order(m map[string]Time) []string {
	var out []string
	for k, v := range m { // want "iteration over map m observes randomized order"
		if v > 0 {
			out = append(out, k)
		}
	}
	return out
}
