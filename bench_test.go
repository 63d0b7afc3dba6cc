// Benchmarks regenerating every table and figure of the paper's
// evaluation (§VI), plus micro-benchmarks for each analysis stage and
// the ablations called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"context"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/casestudy"
	"repro/internal/dsl"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/latency"
	"repro/internal/segments"
	"repro/internal/sim"
	"repro/internal/twca"
)

// BenchmarkTableI regenerates Table I: worst-case latencies of σc and
// σd on the Thales case study.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.TableI(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII regenerates Table II: the full DMM breakpoint scan
// of σc up to k = 260 (literal and rare-overload models).
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.TableII(260); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5 regenerates a 100-assignment slice of Figure 5
// (the paper's full experiment is 1000 assignments × 30 repetitions;
// scale by 300 for the total cost).
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5(100, int64(i+1), twca.Options{}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5NoCarryIn is Figure 5 under the Ω variant matching
// the paper's reported histogram.
func BenchmarkFigure5NoCarryIn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5(100, int64(i+1), twca.Options{NoCarryIn: true}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBaseline regenerates the chain-aware vs.
// structure-blind comparison table (DESIGN.md X-ABL).
func BenchmarkAblationBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablation(10, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimCaseStudyDense regenerates the simulation validation
// (DESIGN.md X-SIM): dense adversarial arrivals over 100k time units.
func BenchmarkSimCaseStudyDense(b *testing.B) {
	sys := repro.CaseStudy()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sys, sim.Config{Horizon: 100_000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimCaseStudyRandom is the randomized-policy variant.
func BenchmarkSimCaseStudyRandom(b *testing.B) {
	sys := repro.CaseStudy()
	for i := 0; i < b.N; i++ {
		_, err := sim.Run(sys, sim.Config{
			Horizon:   100_000,
			Seed:      int64(i),
			Arrivals:  sim.RandomSpacing,
			Execution: sim.RandomExec,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- per-stage micro-benchmarks ---

// BenchmarkSegments measures the Def. 2-8 segment machinery.
func BenchmarkSegments(b *testing.B) {
	sys := repro.CaseStudy()
	c := sys.ChainByName("sigma_c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		segments.Analyze(sys, c)
	}
}

// BenchmarkBusyTime measures one Theorem 1 fixed point (B_c(2)).
func BenchmarkBusyTime(b *testing.B) {
	sys := repro.CaseStudy()
	info := segments.Analyze(sys, sys.ChainByName("sigma_c"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := latency.BusyTime(info, 2, latency.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLatencyAnalysis measures the full §IV analysis of σc.
func BenchmarkLatencyAnalysis(b *testing.B) {
	sys := repro.CaseStudy()
	c := sys.ChainByName("sigma_c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := latency.Analyze(sys, c, latency.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTWCAConstruction measures twca.New: latency analysis,
// criterion, combination enumeration.
func BenchmarkTWCAConstruction(b *testing.B) {
	sys := repro.CaseStudy()
	c := sys.ChainByName("sigma_c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := twca.New(sys, c, twca.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDMMQuery measures one dmm(k) ILP solve on a prepared
// analysis.
func BenchmarkDMMQuery(b *testing.B) {
	sys := repro.CaseStudy()
	an, err := twca.New(sys, sys.ChainByName("sigma_c"), twca.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := an.DMM(250); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBreakpointsSweep measures the full dmm breakpoint scan of
// σc up to k = 260, with and without the capacity-vector memo cache —
// the cache collapses the sweep's ~260 ILP solves into a handful.
func BenchmarkBreakpointsSweep(b *testing.B) {
	sys := repro.CaseStudy()
	c := sys.ChainByName("sigma_c")
	for name, opts := range map[string]twca.Options{
		"cached":  {},
		"nocache": {NoCache: true},
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				an, err := twca.New(sys, c, opts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := an.Breakpoints(260); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCombinationContains measures combination membership tests —
// the innermost loop of the Theorem 3 constraint-matrix construction,
// now a single-word bit test.
func BenchmarkCombinationContains(b *testing.B) {
	sys := repro.CaseStudy()
	an, err := twca.New(sys, sys.ChainByName("sigma_c"), twca.Options{})
	if err != nil {
		b.Fatal(err)
	}
	info := segments.Analyze(sys, sys.ChainByName("sigma_c"))
	var active []segments.Segment
	for _, o := range sys.OverloadChains() {
		active = append(active, info.ActiveSegments(o)...)
	}
	if len(an.Combinations) == 0 || len(active) == 0 {
		b.Fatal("no combinations or active segments")
	}
	b.ReportAllocs()
	var hits int
	for i := 0; i < b.N; i++ {
		c := an.Combinations[i%len(an.Combinations)]
		s := active[i%len(active)]
		if c.Contains(s.Index) {
			hits++
		}
	}
	_ = hits
}

// BenchmarkSyntheticAnalysis measures generation + full scoring of a
// random synthetic system (the "derived synthetic test cases" loop).
func BenchmarkSyntheticAnalysis(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		sys, err := gen.Random(rng, gen.Params{Chains: 3, OverloadChains: 2})
		if err != nil {
			b.Fatal(err)
		}
		gen.Score(sys, 10)
	}
}

// BenchmarkPrioritySearch measures a 50-trial random-restart priority
// search on the case study.
func BenchmarkPrioritySearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		if _, err := gen.SearchPriorities(rng, 13, 10, 50, casestudy.WithPriorities); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDSL measures parsing and printing of the case study in the
// textual system format.
func BenchmarkDSL(b *testing.B) {
	text, err := dsl.Format(repro.CaseStudy())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := dsl.Parse(text)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dsl.Format(sys); err != nil {
			b.Fatal(err)
		}
	}
}

// threeWayMapping spreads the tasks of sys round-robin over three
// resources.
func threeWayMapping(sys *repro.System) map[string]string {
	mapping := map[string]string{}
	i := 0
	for _, c := range sys.Chains {
		for _, t := range c.Tasks {
			mapping[t.Name] = []string{"cpu0", "cpu1", "cpu2"}[i%3]
			i++
		}
	}
	return mapping
}

// BenchmarkSimMapped measures a mapped simulation: the case study's
// tasks spread round-robin over three resources.
func BenchmarkSimMapped(b *testing.B) {
	sys := repro.CaseStudy()
	mapping := threeWayMapping(sys)
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sys, sim.Config{Horizon: 100_000, Mapping: mapping}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhasingSweep measures a coarse exhaustive phasing search on
// the case study.
func BenchmarkPhasingSweep(b *testing.B) {
	sys := repro.CaseStudy()
	for i := 0; i < b.N; i++ {
		if _, err := sim.ExhaustivePhasings(sys, 200, 100, 2000, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCriterionExactVsSufficient measures the cost of the exact
// Eq. (3) combination criterion relative to the default Eq. (5) slack
// criterion (ablation on the analysis-precision/run-time trade-off).
func BenchmarkCriterionExactVsSufficient(b *testing.B) {
	sys := repro.CaseStudy()
	c := sys.ChainByName("sigma_c")
	b.Run("sufficient", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := twca.New(sys, c, twca.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := twca.New(sys, c, twca.Options{ExactCriterion: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationHolistic measures the holistic per-task baseline
// (the decomposition the paper's §IV chain analysis supersedes).
func BenchmarkAblationHolistic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.HolisticAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTightness measures the bound-vs-observation tightness
// experiment (DESIGN.md X-TIGHT).
func BenchmarkTightness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Tightness(100, 3000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyntheticCampaign measures one small synthetic evaluation
// cell sweep.
func BenchmarkSyntheticCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Campaign(experiments.CampaignParams{
			SystemsPerCell: 10,
			Utilizations:   []float64{0.6},
			ChainCounts:    []int{3},
			Seed:           int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSensitivityWarmWalk measures the warm sensitivity query path
// the sensitivity-sweep service workload exercises: a walk over eight
// neighbouring case-study systems (each one WCET unit lighter on one
// regular task), one slack-plus-frontier query per step under a fresh
// (m,k) with k in [10, 100], all against one shared warm store that a
// warm-up query per system primed. Each query runs on the store's
// retained nominal system with its hash, as the service does, so a
// probe costs the warm store's lookups and dmm(k) on stored analyses.
func BenchmarkSensitivityWarmWalk(b *testing.B) {
	ctx := context.Background()
	store := repro.NewSensitivityWarmStore()
	base := repro.CaseStudy()
	var regular []*repro.Task
	for _, c := range base.Chains {
		if !c.Overload {
			for i := range c.Tasks {
				regular = append(regular, &c.Tasks[i])
			}
		}
	}
	sopts := func(m, k int64) repro.SensitivityOptions {
		return repro.SensitivityOptions{
			Constraint:   repro.Constraint{M: m, K: k},
			FrontierMaxK: 20,
			ScaleDenom:   20,
			MaxScale:     40,
			Tasks:        []string{"tau1d", "tau3d", "tau5d", "tau3c"},
			Workers:      2,
		}
	}
	var hashes []string
	for i := 0; i < 8; i++ {
		t := regular[(5*i)%len(regular)]
		t.WCET--
		sys := base.Clone()
		t.WCET++
		hash, err := repro.CanonicalHash(sys)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := (repro.AnalysisRequest{System: sys, Chain: "sigma_c"}).SensitivityWarm(ctx, sopts(24, 50), nil, store); err != nil {
			b.Fatal(err)
		}
		hashes = append(hashes, hash)
	}
	rng := rand.New(rand.NewSource(1))
	pos := 0
	step := func() {
		pos = (pos + len(hashes) + 2*rng.Intn(2) - 1) % len(hashes)
		k := 10 + rng.Int63n(91)
		m := min(k-1, 2*k/5+4+rng.Int63n(7))
		req := repro.AnalysisRequest{System: store.Nominal(hashes[pos]), Chain: "sigma_c", SystemHash: hashes[pos]}
		if req.System == nil {
			b.Fatal("warm store lost a primed nominal system")
		}
		if _, err := req.SensitivityWarm(ctx, sopts(m, k), nil, store); err != nil {
			b.Fatal(err)
		}
	}
	// A walk this long has probed nearly every coordinate the measured
	// steps visit, so a step's cost does not depend on b.N.
	for range 2000 {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		step()
	}
}
