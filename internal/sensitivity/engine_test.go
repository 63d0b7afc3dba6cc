package sensitivity

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/casestudy"
	"repro/internal/latency"
	"repro/internal/model"
	"repro/internal/twca"
	"repro/internal/weaklyhard"
)

func thalesOptions() Options {
	return Options{
		Constraint:   weaklyhard.Constraint{M: 5, K: 10},
		FrontierMaxK: 20,
	}
}

func TestQueryThales(t *testing.T) {
	sys := casestudy.New()
	res, err := Engine{}.Query(context.Background(), sys, "sigma_c", twca.Options{}, thalesOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.NominalDMM != 5 {
		t.Errorf("NominalDMM = %d, want 5 (paper's dmm_c(10))", res.NominalDMM)
	}
	if res.ScaleDenom != 1000 {
		t.Errorf("ScaleDenom = %d, want default 1000", res.ScaleDenom)
	}
	// dmm(10) = 5 = m: the constraint is exactly at the boundary, so the
	// uniform slack is exactly 1.0 and not at the search limit.
	if res.Uniform.Scale != 1000 || res.Uniform.AtLimit {
		t.Errorf("Uniform = %+v, want scale 1000 (factor 1.0), not at limit", res.Uniform)
	}
	if len(res.Tasks) != len(casestudy.TaskOrder) {
		t.Fatalf("got %d task slacks, want %d", len(res.Tasks), len(casestudy.TaskOrder))
	}
	for i, name := range casestudy.TaskOrder {
		if res.Tasks[i].Task != name {
			t.Errorf("Tasks[%d] = %q, want %q (system order)", i, res.Tasks[i].Task, name)
		}
		if res.Tasks[i].Scale < 1000 {
			t.Errorf("task %s slack %d < 1000: nominal system should hold", name, res.Tasks[i].Scale)
		}
	}
	if len(res.Breakdown) != 2 {
		t.Fatalf("got %d breakdown entries, want 2 (sigma_b, sigma_a)", len(res.Breakdown))
	}
	for _, b := range res.Breakdown {
		if b.MaxExtraJitter <= 0 || b.JitterAtLimit {
			t.Errorf("chain %s: MaxExtraJitter = %d (atLimit %v), want finite positive headroom",
				b.Chain, b.MaxExtraJitter, b.JitterAtLimit)
		}
		if b.MinDistance <= 0 || b.MinDistance > b.NominalDistance {
			t.Errorf("chain %s: MinDistance = %d outside (0, %d]", b.Chain, b.MinDistance, b.NominalDistance)
		}
	}
	if len(res.Frontier) != 20 {
		t.Fatalf("got %d frontier points, want 20", len(res.Frontier))
	}
	if res.Probes <= 0 || res.Analyses <= 0 {
		t.Errorf("Probes = %d, Analyses = %d, want both positive", res.Probes, res.Analyses)
	}
	if res.Analyses >= res.Probes {
		t.Errorf("Analyses = %d not below Probes = %d: per-query memo should absorb repeat probes",
			res.Analyses, res.Probes)
	}
}

func TestQueryDeterministicAcrossWorkers(t *testing.T) {
	sys := casestudy.New()
	results := make([]*Result, 2)
	for i, workers := range []int{1, 8} {
		opts := thalesOptions()
		opts.Workers = workers
		res, err := Engine{}.Query(context.Background(), sys, "sigma_c", twca.Options{}, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		results[i] = res
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("results differ across worker counts:\n1 worker: %+v\n8 workers: %+v", results[0], results[1])
	}
}

func TestQueryInfeasibleConstraint(t *testing.T) {
	sys := casestudy.New()
	_, err := Engine{}.Query(context.Background(), sys, "sigma_c", twca.Options{}, Options{
		Constraint: weaklyhard.Constraint{M: 2, K: 10}, // dmm(10) = 5 > 2
	})
	if !errors.Is(err, ErrInfeasibleConstraint) {
		t.Fatalf("err = %v, want ErrInfeasibleConstraint", err)
	}
}

func TestQueryUnknownChainAndTask(t *testing.T) {
	sys := casestudy.New()
	if _, err := (Engine{}).Query(context.Background(), sys, "sigma_x", twca.Options{}, thalesOptions()); err == nil {
		t.Error("unknown chain accepted, want error")
	}
	opts := thalesOptions()
	opts.Tasks = []string{"tau_nope"}
	if _, err := (Engine{}).Query(context.Background(), sys, "sigma_c", twca.Options{}, opts); err == nil {
		t.Error("unknown task accepted, want error")
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{}, // zero constraint is invalid (k = 0)
		{Constraint: weaklyhard.Constraint{M: 5, K: 3}},                                // m ≥ k
		{Constraint: weaklyhard.Constraint{M: 1, K: 5}, ScaleDenom: -1},                // negative denom
		{Constraint: weaklyhard.Constraint{M: 1, K: 5}, MaxScale: -2},                  // negative cap
		{Constraint: weaklyhard.Constraint{M: 1, K: 5}, MaxJitter: -1},                 // negative jitter cap
		{Constraint: weaklyhard.Constraint{M: 1, K: 5}, FrontierMaxK: -3},              // negative frontier
		{Constraint: weaklyhard.Constraint{M: 1, K: 5}, FrontierMaxK: 1 << 30},         // frontier above cap
		{Constraint: weaklyhard.Constraint{M: 1, K: 5}, ScaleDenom: 100, MaxScale: 50}, // cap below 1.0
	}
	for _, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("Options %+v validated, want error", o)
		}
	}
	good := Options{Constraint: weaklyhard.Constraint{M: 1, K: 5}}
	if err := good.Validate(); err != nil {
		t.Errorf("minimal options rejected: %v", err)
	}
}

func TestQueryCancellation(t *testing.T) {
	sys := casestudy.New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Engine{}.Query(ctx, sys, "sigma_c", twca.Options{}, thalesOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestQueryCountsDistinctAnalyses(t *testing.T) {
	sys := casestudy.New()
	var calls atomic.Int64
	eng := Engine{Analyze: func(ctx context.Context, sys *model.System, _ string, chain string, opts twca.Options) (*twca.Analysis, error) {
		calls.Add(1)
		return twca.NewCtx(ctx, sys, sys.ChainByName(chain), opts)
	}}
	opts := thalesOptions()
	opts.Tasks = []string{"tau1c"} // keep the query small
	res, err := eng.Query(context.Background(), sys, "sigma_c", twca.Options{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != res.Analyses {
		t.Errorf("AnalyzeFunc called %d times, result reports %d analyses", got, res.Analyses)
	}
}

// TestWarmStoreSharesAcrossQueries: a shared WarmStore answers every
// probe of a repeated query, so the repeat makes no analysis call.
func TestWarmStoreSharesAcrossQueries(t *testing.T) {
	sys := casestudy.New()
	var calls atomic.Int64
	eng := Engine{Warm: NewWarmStore(), Analyze: func(ctx context.Context, sys *model.System, _ string, chain string, opts twca.Options) (*twca.Analysis, error) {
		calls.Add(1)
		return twca.NewCtx(ctx, sys, sys.ChainByName(chain), opts)
	}}
	opts := thalesOptions()
	opts.Tasks = []string{"tau1c"}
	first, err := eng.Query(context.Background(), sys, "sigma_c", twca.Options{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	cold := calls.Load()
	if _, err := eng.Query(context.Background(), sys, "sigma_c", twca.Options{}, opts); err != nil {
		t.Fatal(err)
	}
	if warm := calls.Load() - cold; warm != 0 {
		t.Errorf("repeat query recomputed %d analyses, want 0 (shared warm store)", warm)
	}

	// The scope is keyed on the effective policy: the other spellings of
	// the default policy, each byte-identical on a cold store of its own,
	// are answered from the scope the zero options filled.
	want, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	for _, aopts := range []twca.Options{{Policy: "spp"}, {Latency: latency.Options{Policy: "spp"}}} {
		res, err := Engine{}.Query(context.Background(), sys, "sigma_c", aopts, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := json.Marshal(res); !bytes.Equal(got, want) {
			t.Fatalf("%+v: cold result differs from the zero options':\n%s\n%s", aopts, got, want)
		}
		before := eng.Warm.Stats()
		if _, err := eng.Query(context.Background(), sys, "sigma_c", aopts, opts); err != nil {
			t.Fatal(err)
		}
		after := eng.Warm.Stats()
		if after.Misses != before.Misses || after.Hits == before.Hits || calls.Load() != cold {
			t.Errorf("%+v after {}: %d warm hits, %d misses, %d analyses; want every probe a warm hit",
				aopts, after.Hits-before.Hits, after.Misses-before.Misses, calls.Load()-cold)
		}
	}
}

func TestQueryAnalyzeErrorPropagates(t *testing.T) {
	sys := casestudy.New()
	boom := errors.New("boom")
	eng := Engine{Analyze: func(ctx context.Context, sys *model.System, _ string, chain string, opts twca.Options) (*twca.Analysis, error) {
		return nil, boom
	}}
	_, err := eng.Query(context.Background(), sys, "sigma_c", twca.Options{}, thalesOptions())
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestBisectionDrivers(t *testing.T) {
	ctx := context.Background()
	boundary := func(b int64) probeFunc {
		return func(_ context.Context, c *candidate) (bool, error) { return c.x <= b, nil }
	}
	above := func(b int64) probeFunc {
		return func(_ context.Context, c *candidate) (bool, error) { return c.x >= b, nil }
	}
	// Every batch width must find the same boundary: the speculative
	// batches change only how many candidates are probed per round.
	for _, width := range []int{1, 2, batchWidth, 7} {
		bp := batcher{width: width, workers: 2}
		for _, tc := range []struct {
			lo, hi, b   int64
			wantX       int64
			wantAtLimit bool
		}{
			{0, 100, 37, 37, false},
			{0, 100, 100, 100, true},
			{0, 100, 250, 100, true},
			{10, 10, 99, 10, true}, // degenerate bracket
			{1000, 64000, 1000, 1000, false},
			{0, 1 << 40, 123456, 123456, false},
		} {
			x, atLimit, err := bp.maxTrue(ctx, familyKey{}, tc.lo, tc.hi, boundary(tc.b))
			if err != nil || x != tc.wantX || atLimit != tc.wantAtLimit {
				t.Errorf("width %d: maxTrue(%d,%d,≤%d) = (%d,%v,%v), want (%d,%v)",
					width, tc.lo, tc.hi, tc.b, x, atLimit, err, tc.wantX, tc.wantAtLimit)
			}
		}
		for _, tc := range []struct {
			lo, hi, b   int64
			wantX       int64
			wantAtLimit bool
		}{
			{1, 600, 382, 382, false},
			{1, 600, 1, 1, true},
			{1, 600, 0, 1, true},
			{5, 5, 2, 5, true},
			{1, 1 << 40, 98765, 98765, false},
		} {
			x, atLimit, err := bp.minTrue(ctx, familyKey{}, tc.lo, tc.hi, above(tc.b))
			if err != nil || x != tc.wantX || atLimit != tc.wantAtLimit {
				t.Errorf("width %d: minTrue(%d,%d,≥%d) = (%d,%v,%v), want (%d,%v)",
					width, tc.lo, tc.hi, tc.b, x, atLimit, err, tc.wantX, tc.wantAtLimit)
			}
		}
	}
}

// TestBisectionProbeCountIndependent pins that the probe sequence — and
// therefore the Probes counter — depends only on the batch width
// constant and the predicate, never on the worker bound.
func TestBisectionProbeCountIndependent(t *testing.T) {
	ctx := context.Background()
	counts := make([]int64, 0, 3)
	for _, workers := range []int{1, 4, 16} {
		var probes atomic.Int64
		bp := batcher{width: batchWidth, workers: workers}
		x, _, err := bp.maxTrue(ctx, familyKey{}, 0, 100000, func(_ context.Context, c *candidate) (bool, error) {
			probes.Add(1)
			return c.x <= 7777, nil
		})
		if err != nil || x != 7777 {
			t.Fatalf("workers %d: maxTrue = (%d, %v)", workers, x, err)
		}
		counts = append(counts, probes.Load())
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Errorf("probe counts vary with workers: %v", counts)
	}
}
