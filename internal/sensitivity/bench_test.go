package sensitivity

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/casestudy"
	"repro/internal/degrade"
	"repro/internal/model"
	"repro/internal/twca"
)

// BenchmarkSensitivityQuery measures one full Thales sensitivity sweep
// (uniform + per-task slack, both overload breakdowns, frontier to
// k = 20) against a fresh private warm store. make bench records the companion
// cold/warm numbers via cmd/twca-sensitivity -bench-out.
func BenchmarkSensitivityQuery(b *testing.B) {
	sys := casestudy.New()
	opts := thalesOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Engine{}.Query(context.Background(), sys, "sigma_c", twca.Options{}, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Probes), "probes/query")
		b.ReportMetric(float64(res.Analyses), "analyses/query")
	}
}

// BenchmarkSensitivitySweepCold is the incremental engine's baseline:
// every iteration solves the full Thales sweep from scratch, with warm
// starting disabled and no artifact reuse across iterations.
func BenchmarkSensitivitySweepCold(b *testing.B) {
	sys := casestudy.New()
	opts := thalesOptions()
	opts.NoWarmStart = true
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (Engine{}).Query(context.Background(), sys, "sigma_c", twca.Options{}, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSensitivitySweepColdDegrade is the cold sweep under the
// analysis service's default options: the degradation ladder is on, so
// an overloaded probe ends on its Lemma-3 floor instead of failing. The
// busy-window overload certificate answers such probes without a search
// (all 7 per query on this sweep). It reports the degraded probe
// analyses per query.
func BenchmarkSensitivitySweepColdDegrade(b *testing.B) {
	sys := casestudy.New()
	opts := thalesOptions()
	opts.NoWarmStart = true
	aopts := twca.Options{Degrade: degrade.Policy{Allow: true}}
	var degraded atomic.Int64
	eng := Engine{Analyze: func(ctx context.Context, sys *model.System, _ string, chain string, o twca.Options) (*twca.Analysis, error) {
		a, err := twca.NewCtx(ctx, sys, sys.ChainByName(chain), o)
		if err == nil && a.Degraded.Degraded() {
			degraded.Add(1)
		}
		return a, err
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(context.Background(), sys, "sigma_c", aopts, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(degraded.Load())/float64(b.N), "degraded/query")
}

// BenchmarkSensitivitySweepWarm measures the hot-store sweep: the
// shared WarmStore has already served the query once, so every probe is
// an exact-coordinate hit that skips materializing, hashing and solving
// the perturbed system. The results are byte-identical to the cold
// sweep (TestWarmSweepByteIdentical); only the effort moves. make bench
// records the companion wall-clock numbers via cmd/twca-sensitivity
// -bench-out, and the CI bench smoke job guards the speedup with
// -bench-check.
func BenchmarkSensitivitySweepWarm(b *testing.B) {
	sys := casestudy.New()
	opts := thalesOptions()
	eng := Engine{Warm: NewWarmStore()}
	if _, err := eng.Query(context.Background(), sys, "sigma_c", twca.Options{}, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(context.Background(), sys, "sigma_c", twca.Options{}, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSensitivityGenSweep is a sweep over generated systems: each
// iteration answers the queries of a fixed-seed population of 24
// internal/gen systems (see genPopulation), each on a fresh Engine{} and
// so a private warm store, as a cold query would. It reports the probes
// and distinct analyses per iteration, which do not depend on the host.
func BenchmarkSensitivityGenSweep(b *testing.B) {
	pop := genPopulation(b, 11, 24)
	ctx := context.Background()
	var probes, analyses int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probes, analyses = 0, 0
		for _, q := range pop {
			res, err := Engine{}.Query(ctx, q.sys, q.chain, twca.Options{}, q.opts)
			if err != nil {
				b.Fatal(err)
			}
			probes += res.Probes
			analyses += res.Analyses
		}
	}
	b.ReportMetric(float64(probes), "probes/op")
	b.ReportMetric(float64(analyses), "analyses/op")
}
