package policy_test

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/curves"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/policy"
	"repro/internal/segments"
)

// randomLoadSystem draws a gen.Random system and then rewrites some
// activations into the other forms curves.Slope knows: a Jittered
// wrapper, and a Periodic literal whose DMin exceeds its Period.
func randomLoadSystem(t *testing.T, rng *rand.Rand) *model.System {
	t.Helper()
	sys, err := gen.Random(rng, gen.Params{
		Chains:         1 + rng.Intn(4),
		OverloadChains: []int{-1, 1, 2}[rng.Intn(3)],
		Utilization:    0.5 + 0.9*rng.Float64(),
		AsyncFraction:  0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range sys.Chains {
		switch rng.Intn(4) {
		case 1:
			c.Activation = curves.NewJittered(c.Activation, curves.Time(rng.Int63n(300)))
		case 2:
			if p, ok := c.Activation.(curves.Periodic); ok {
				c.Activation = curves.Periodic{Period: p.Period, Jitter: curves.Time(rng.Int63n(50)), DMin: p.Period + curves.Time(1+rng.Int63n(int64(p.Period)))}
			}
		}
	}
	return sys
}

// exactLoad is C_b/s_b + Σ_{i∈IC(b)} C_i/s_i as an exact rational, over
// the chains whose slope is known; ok is false for an unknown target.
func exactLoad(info *segments.Info, excludeOverload bool) (u *big.Rat, ok bool) {
	sb, ok := curves.Slope(info.B.Activation)
	if !ok {
		return nil, false
	}
	u = big.NewRat(int64(info.B.TotalWCET()), int64(sb))
	for _, a := range info.Interfering {
		if excludeOverload && a.Overload {
			continue
		}
		if s, ok := curves.Slope(a.Activation); ok {
			u.Add(u, big.NewRat(int64(a.TotalWCET()), int64(s)))
		}
	}
	return u, true
}

// TestDemandDominatesLongRunLoad pins the inequality policy.Overloaded
// rests on: for every analyzable policy in the registry,
//
//	Demand(info, q, w, excl) ≥ q·C_b + Σ_{i∈IC(b)} C_i·w/s_i.
//
// A future policy whose demand undercuts it fails here, before the
// certificate can skip a busy-window search that would have closed. The
// test also pins Overloaded's rounding: its load never exceeds the exact
// one, and a load clearly above 1 is always reported.
func TestDemandDominatesLongRunLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var points, fired int
	for trial := 0; trial < 40; trial++ {
		sys := randomLoadSystem(t, rng)
		for _, name := range policy.Names() {
			pol, err := policy.AnalyzerFor(name)
			if err != nil {
				continue // simulation-only
			}
			for _, c := range sys.Chains {
				for _, flat := range []bool{false, true} {
					for _, excl := range []bool{false, true} {
						info := pol.Structure(sys, c, flat)
						for i := 0; i < 16; i++ {
							q := 1 + rng.Int63n(64)
							w := curves.Time(rng.Int63n(50_000))
							d := pol.Demand(info, q, w, excl)
							if d.IsInf() {
								continue
							}
							lower := new(big.Rat).SetInt64(q * int64(info.B.TotalWCET()))
							for _, a := range info.Interfering {
								if excl && a.Overload {
									continue
								}
								if s, ok := curves.Slope(a.Activation); ok {
									lower.Add(lower, big.NewRat(int64(a.TotalWCET())*int64(w), int64(s)))
								}
							}
							if new(big.Rat).SetInt64(int64(d)).Cmp(lower) < 0 {
								t.Fatalf("%s %s flat=%v excl=%v: Demand(q=%d, w=%d) = %d < long-run lower bound %s",
									name, c.Name, flat, excl, q, w, d, lower.FloatString(3))
							}
							points++
						}
						u, known := exactLoad(info, excl)
						load, over := policy.Overloaded(info, excl)
						if !known {
							if over {
								t.Fatalf("%s %s: overload reported for a target of unknown slope", name, c.Name)
							}
							continue
						}
						got := big.NewRat(int64(load), policy.LoadOne)
						if got.Cmp(u) > 0 {
							t.Fatalf("%s %s: load bound %s above the exact load %s", name, c.Name, got.FloatString(9), u.FloatString(9))
						}
						if over != (got.Cmp(big.NewRat(1, 1)) > 0) {
							t.Fatalf("%s %s: overloaded = %v for a load bound of %s", name, c.Name, over, got.FloatString(9))
						}
						if !over && u.Cmp(big.NewRat(1<<20+1, 1<<20)) > 0 {
							t.Fatalf("%s %s: exact load %s not reported overloaded", name, c.Name, u.FloatString(9))
						}
						if over {
							fired++
						}
					}
				}
			}
		}
	}
	if points < 5000 || fired < 50 {
		t.Fatalf("only %d demand points and %d overloaded infos checked", points, fired)
	}
	t.Logf("%d demand points, %d overloaded infos", points, fired)
}

// TestOverloadedAllocatesNothing keeps the certificate free on the
// analysis path it guards.
func TestOverloadedAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sys := randomLoadSystem(t, rng)
	info := segments.AnalyzeFlat(sys, sys.Chains[0])
	if n := testing.AllocsPerRun(100, func() { policy.Overloaded(info, false) }); n != 0 {
		t.Errorf("Overloaded allocates %.1f times per call", n)
	}
}
