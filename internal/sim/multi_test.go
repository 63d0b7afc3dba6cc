package sim_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/casestudy"
	"repro/internal/holistic"
	"repro/internal/latency"
	"repro/internal/model"
	"repro/internal/policy"
	"repro/internal/sim"
)

// oneResource maps every task of sys to the same resource: a mapped run
// on a uniprocessor.
func oneResource(sys *model.System) map[string]string {
	mapping := map[string]string{}
	for _, c := range sys.Chains {
		for _, task := range c.Tasks {
			mapping[task.Name] = "cpu"
		}
	}
	return mapping
}

// TestRunMappedMatchesRun: with everything on one named resource, a
// mapped run must reproduce the unmapped run exactly — chain stats,
// trace and task responses — under every preemptive policy.
func TestRunMappedMatchesRun(t *testing.T) {
	sys := casestudy.New()
	for _, name := range policy.Names() {
		pol, err := policy.SimulatorFor(name)
		if err != nil {
			t.Fatal(err)
		}
		if !pol.NewScheduler(sys, rand.New(rand.NewSource(0))).Preemptive() {
			continue
		}
		for _, cfg := range []sim.Config{
			{Horizon: 100_000},
			{Horizon: 100_000, Seed: 3, Arrivals: sim.RandomSpacing, Execution: sim.RandomExec},
		} {
			cfg.Policy, cfg.RecordTrace, cfg.RecordResponses = name, true, true
			uni, err := sim.Run(sys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Mapping = oneResource(sys)
			mapped, err := sim.Run(sys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(uni, mapped) {
				t.Errorf("policy %s seed %d: one-resource mapped run differs from the unmapped run", name, cfg.Seed)
			}
		}
	}
}

// threeResources spreads the case study's tasks round-robin over three
// resources.
func threeResources(sys *model.System) map[string]string {
	mapping := map[string]string{}
	i := 0
	for _, c := range sys.Chains {
		for _, task := range c.Tasks {
			mapping[task.Name] = []string{"cpu0", "cpu1", "cpu2"}[i%3]
			i++
		}
	}
	return mapping
}

// TestMappedDeterministic: a mapped run is a function of its
// configuration. Resources are handled in sorted name order, so
// repeated same-seed runs agree on everything, trace included.
func TestMappedDeterministic(t *testing.T) {
	sys := casestudy.New()
	cfg := sim.Config{Horizon: 50_000, Seed: 7, Arrivals: sim.RandomSpacing, Execution: sim.RandomExec,
		RecordTrace: true, Mapping: threeResources(sys)}
	first, err := sim.Run(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 20; i++ {
		res, err := sim.Run(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, res) {
			t.Fatalf("run %d differs from run 0 (%d vs %d trace slices)", i, len(res.Trace.Slices), len(first.Trace.Slices))
		}
	}
}

// TestMappedCancel: a mapped run polls its context like an unmapped one.
func TestMappedCancel(t *testing.T) {
	sys := casestudy.New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sim.RunCtx(ctx, sys, sim.Config{Horizon: 2_000_000, Mapping: threeResources(sys)})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("canceled mapped run: err = %v, want context.Canceled", err)
	}
}

func TestRunMappedUnknownTask(t *testing.T) {
	sys := casestudy.New()
	if _, err := sim.Run(sys, sim.Config{Mapping: map[string]string{"nope": "r1"}}); err == nil {
		t.Error("unknown task in mapping accepted")
	}
}

// TestParallelResources: two single-task chains on different resources
// do not interfere at all, whatever their priorities.
func TestParallelResources(t *testing.T) {
	b := model.NewBuilder("par")
	b.Chain("a").Periodic(100).Deadline(100).Task("ta", 1, 40)
	b.Chain("b").Periodic(100).Deadline(100).Task("tb", 2, 40)
	sys := b.MustBuild()

	// Shared resource: the low-priority chain waits for the high one.
	shared, err := sim.Run(sys, sim.Config{Horizon: 1000, Mapping: oneResource(sys)})
	if err != nil {
		t.Fatal(err)
	}
	if got := shared.Chains["a"].MaxLatency; got != 80 {
		t.Errorf("shared: latency(a) = %d, want 80", got)
	}
	// Separate resources: both finish in their own WCET.
	split, err := sim.Run(sys, sim.Config{Horizon: 1000, Mapping: map[string]string{"ta": "r1", "tb": "r2"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := split.Chains["a"].MaxLatency; got != 40 {
		t.Errorf("split: latency(a) = %d, want 40", got)
	}
	if got := split.Chains["b"].MaxLatency; got != 40 {
		t.Errorf("split: latency(b) = %d, want 40", got)
	}
}

// TestPipelineAcrossResources: a chain whose stages alternate between
// two resources pipelines correctly, and the mapped holistic analysis
// bounds the simulation.
func TestPipelineAcrossResources(t *testing.T) {
	b := model.NewBuilder("pipe2")
	b.Chain("flow").Asynchronous().Periodic(100).Deadline(200).
		Task("ingest", 2, 40).
		Task("process", 1, 40)
	b.Chain("noise").Asynchronous().Periodic(100).Deadline(100).
		Task("n1", 3, 30)
	sys := b.MustBuild()
	mapping := map[string]string{"ingest": "cpu0", "process": "cpu1", "n1": "cpu0"}

	hol, err := holistic.AnalyzeMapped(sys, sys.ChainByName("flow"), holistic.Mapping(mapping), latency.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// cpu0: ingest (40) behind n1 (30) → R = 70. cpu1: process runs
	// alone, but its activation carries jitter 70 from ingest, so two
	// activations can land 30 apart and queue: B(2) = 80, δ-(2) = 30 →
	// R = 50. Bound = 70 + 50 = 120.
	if hol.WCL != 120 {
		t.Errorf("mapped holistic WCL = %d, want 120", hol.WCL)
	}

	res, err := sim.Run(sys, sim.Config{Horizon: 10_000, RecordTrace: true, Mapping: mapping})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Chains["flow"]
	if st.MaxLatency > hol.WCL {
		t.Errorf("observed %d exceeds mapped holistic bound %d", st.MaxLatency, hol.WCL)
	}
	// Dense release: n1 runs 0-30 (prio 3), ingest 30-70 on cpu0,
	// process 70-110 on cpu1 → latency 110 (the bound is tight here).
	if st.MaxLatency != 110 {
		t.Errorf("latency = %d, want 110", st.MaxLatency)
	}
	// Work conservation across both resources.
	var want int64
	for _, c := range sys.Chains {
		want += int64(c.TotalWCET()) * res.Chains[c.Name].Completions
	}
	if got := int64(res.Trace.Busy()); got != want {
		t.Errorf("busy = %d, want %d", got, want)
	}
}

// TestMappedHolisticUnknownTask checks mapping validation.
func TestMappedHolisticUnknownTask(t *testing.T) {
	sys := casestudy.New().Clone()
	for _, c := range sys.Chains {
		c.Kind = model.Asynchronous
	}
	_, err := holistic.AnalyzeMapped(sys, sys.ChainByName("sigma_c"),
		holistic.Mapping{"ghost": "r1"}, latency.Options{})
	if err == nil {
		t.Error("unknown task in mapping accepted")
	}
}

// TestDistributedSoundness: random mappings of the async case study
// onto 2-3 resources — the mapped holistic bound must cover simulated
// latencies under dense and randomized policies.
func TestDistributedSoundness(t *testing.T) {
	base := casestudy.New().Clone()
	for _, c := range base.Chains {
		if !c.Overload {
			c.Kind = model.Asynchronous
		}
	}
	resources := []string{"cpu0", "cpu1", "cpu2"}
	for trial := 0; trial < 6; trial++ {
		mapping := map[string]string{}
		i := trial
		for _, c := range base.Chains {
			for _, task := range c.Tasks {
				mapping[task.Name] = resources[i%len(resources)]
				i++
			}
		}
		bounds := map[string]int64{}
		ok := true
		for _, name := range []string{"sigma_c", "sigma_d"} {
			h, err := holistic.AnalyzeMapped(base, base.ChainByName(name), mapping, latency.Options{})
			if err != nil {
				ok = false // some mappings legitimately diverge
				break
			}
			bounds[name] = int64(h.WCL)
		}
		if !ok {
			continue
		}
		for seed := int64(0); seed < 2; seed++ {
			cfg := sim.Config{Horizon: 50_000, Seed: seed, Mapping: mapping}
			if seed > 0 {
				cfg.Arrivals = sim.RandomSpacing
				cfg.Execution = sim.RandomExec
			}
			res, err := sim.Run(base, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for name, bound := range bounds {
				if got := int64(res.Chains[name].MaxLatency); got > bound {
					t.Errorf("trial %d seed %d: %s observed %d > bound %d (mapping %v)",
						trial, seed, name, got, bound, mapping)
				}
			}
		}
	}
}
