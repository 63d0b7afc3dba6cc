// Package determinism is a twca-lint fixture. The expectation
// comments pin one finding per annotated line; everything else must
// stay clean.
package determinism

import (
	"math/rand"
	"sort"
	"time"
)

// leakOrder feeds map iteration order straight into the returned
// slice: the classic nondeterminism bug this rule exists for.
func leakOrder(m map[string]int) []int {
	var out []int
	for _, v := range m { // want "iteration over map m observes randomized order"
		out = append(out, v)
	}
	return out
}

// sortedKeys is the canonical fix: collect, sort, then iterate. The
// collecting range is recognized and exempt.
func sortedKeys(m map[string]int) []int {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]int, 0, len(m))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// invert only stores into another map: writes commute, so iteration
// order is unobservable and the range is exempt.
func invert(m map[string]int) map[int]string {
	inv := make(map[int]string, len(m))
	for k, v := range m {
		inv[v] = k
	}
	return inv
}

// count never binds the key or value, so order is unobservable.
func count(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// stamped smuggles the wall clock into an analysis result.
func stamped() int64 {
	return time.Now().Unix() // want "reads the wall clock"
}

// jittered draws from the shared global source.
func jittered(n int) int {
	return rand.Intn(n) // want "shared random source"
}

// seeded owns an explicitly seeded source: deterministic, exempt.
func seeded(n int) int {
	rng := rand.New(rand.NewSource(42))
	return rng.Intn(n)
}

// drawFrom takes a source as a parameter: naming the *rand.Rand type
// is not a use of the shared source, so it is clean.
func drawFrom(r *rand.Rand, n int) int {
	return r.Intn(n)
}

// suppressed documents why this particular order leak is acceptable.
func suppressed(m map[string]int) int {
	best := 0
	//twcalint:ignore determinism max over values is order-independent
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}

// bare has a suppression without a reason: the directive silences the
// map finding but is reported itself (asserted programmatically in
// analyzers_test.go, since the directive comment owns the whole line).
func bare(m map[string]int) int {
	best := 0
	//twcalint:ignore determinism
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}
