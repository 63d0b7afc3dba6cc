package sensitivity

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/casestudy"
	"repro/internal/degrade"
	"repro/internal/faultinject"
	"repro/internal/model"
	"repro/internal/twca"
)

// Tests in this file arm the process-global fault-injection harness or
// cancel shared contexts, so none of them use t.Parallel().

// TestCanceledProbeNotCached: a probe analysis that fails (here via a
// canceled context) must be evicted from the per-query memo so a later
// probe of the same system retries instead of replaying the stale
// error.
func TestCanceledProbeNotCached(t *testing.T) {
	sys := casestudy.New()
	q := &query{
		analyze: func(ctx context.Context, sys *model.System, _ string, chain string, opts twca.Options) (*twca.Analysis, error) {
			return twca.NewCtx(ctx, sys, sys.ChainByName(chain), opts)
		},
		sys:    sys,
		chain:  "sigma_c",
		denom:  1000,
		byHash: make(map[string]*memoEntry),
	}
	nominal := coord{kind: coordScale, subject: "", value: 1000}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := q.resolve(canceled, nominal); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	q.mu.Lock()
	left := len(q.byHash)
	q.mu.Unlock()
	if left != 0 {
		t.Fatalf("memo retains %d entries after a canceled analysis", left)
	}
	an, err := q.resolve(context.Background(), nominal)
	if err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	if an == nil {
		t.Fatal("retry returned nil analysis")
	}
}

// TestMidBisectionCancellationLeavesMemoConsistent cancels a query in
// the middle of its bisections and then re-runs it against the same
// shared warm store: the cancellation must surface as context.Canceled
// and the retry must produce the exact undisturbed result, effort
// counters included. Run under -race (make verify), this also exercises
// the memo's eviction path concurrently with waiting followers.
func TestMidBisectionCancellationLeavesMemoConsistent(t *testing.T) {
	sys := casestudy.New()
	opts := thalesOptions()
	opts.Tasks = []string{"tau1c", "tau2c"}
	opts.Workers = 4

	// Reference result from an undisturbed engine.
	want, err := Engine{}.Query(context.Background(), sys, "sigma_c", twca.Options{}, opts)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var analyses atomic.Int64
	eng := Engine{Warm: NewWarmStore(), Analyze: func(ctx context.Context, sys *model.System, _ string, chain string, aopts twca.Options) (*twca.Analysis, error) {
		// Pull the rug after a few distinct analyses: every probe still
		// in flight sees the canceled context mid-bisection.
		if analyses.Add(1) == 3 {
			cancel()
		}
		return twca.NewCtx(ctx, sys, sys.ChainByName(chain), aopts)
	}}
	if _, err := eng.Query(ctx, sys, "sigma_c", twca.Options{}, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query: err = %v, want context.Canceled", err)
	}

	// The shared store must not have kept any canceled outcome: the same
	// engine answers a fresh query completely and identically.
	got, err := eng.Query(context.Background(), sys, "sigma_c", twca.Options{}, opts)
	if err != nil {
		t.Fatalf("retry after mid-bisection cancellation: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("retry differs from undisturbed result:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestProbeSeamInjection drives the sensitivity probe seam: an injected
// error fails the query loudly (wrapping ErrInjected), while an
// injected budget exhaustion is a conservative definite "no" that
// collapses slack to the bracket floor without failing the query.
func TestProbeSeamInjection(t *testing.T) {
	defer faultinject.Disarm()
	sys := casestudy.New()
	opts := thalesOptions()
	opts.Tasks = []string{"tau1c"}
	opts.FrontierMaxK = 0

	if err := faultinject.Configure([]faultinject.Rule{
		{Point: faultinject.PointSensitivityProbe, Action: faultinject.ActionError},
	}); err != nil {
		t.Fatal(err)
	}
	_, err := Engine{}.Query(context.Background(), sys, "sigma_c", twca.Options{}, opts)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}

	if err := faultinject.Configure([]faultinject.Rule{
		{Point: faultinject.PointSensitivityProbe, Action: faultinject.ActionBudget},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := Engine{}.Query(context.Background(), sys, "sigma_c", twca.Options{}, opts)
	if err != nil {
		t.Fatalf("budget-exhausted probes failed the query: %v", err)
	}
	if res.Uniform.Scale != opts.ScaleDenom && res.Uniform.Scale != 1000 {
		t.Errorf("Uniform.Scale = %d, want the bracket floor", res.Uniform.Scale)
	}
	if res.Uniform.AtLimit {
		t.Error("budget-exhausted probes reported AtLimit")
	}
}

// TestDegradedProbesAggregateQuality: when the probe analyses run on a
// degraded rung, the result carries the worst probe quality and the
// aggregate is deterministic across worker counts. Slack from degraded
// probes is conservative: degraded dmm ≥ exact dmm can only shrink the
// region where the constraint holds.
func TestDegradedProbesAggregateQuality(t *testing.T) {
	faultinject.Disarm()
	sys := casestudy.New()
	nomHash, err := model.CanonicalHash(sys)
	if err != nil {
		t.Fatal(err)
	}
	// Nominal analysis stays exact (so the feasibility gate uses the true
	// dmm); every perturbed probe descends to the omega-sum rung under a
	// combination cap of 1.
	analyze := func(ctx context.Context, s *model.System, hash string, chain string, aopts twca.Options) (*twca.Analysis, error) {
		if hash != nomHash {
			aopts.MaxCombinations, aopts.Degrade = 1, degrade.Policy{Allow: true}
		}
		return twca.NewCtx(ctx, s, s.ChainByName(chain), aopts)
	}

	exact, err := Engine{}.Query(context.Background(), sys, "sigma_c", twca.Options{}, thalesOptions())
	if err != nil {
		t.Fatal(err)
	}
	if exact.Quality.Degraded() {
		t.Fatalf("undisturbed query tagged degraded: %+v", exact.Quality)
	}

	results := make([]*Result, 2)
	for i, workers := range []int{1, 8} {
		opts := thalesOptions()
		opts.Workers = workers
		res, err := Engine{Analyze: analyze}.Query(context.Background(), sys, "sigma_c", twca.Options{}, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		results[i] = res
	}
	res := results[0]
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("degraded results differ across worker counts:\n1 worker: %+v\n8 workers: %+v", results[0], results[1])
	}
	if res.Quality.Quality != degrade.SafeUpperBound {
		t.Fatalf("Quality = %+v, want safe-upper-bound", res.Quality)
	}
	if res.Quality.Budget != degrade.BudgetCombinations {
		t.Errorf("Budget = %q, want %q (all probes degraded the same way)", res.Quality.Budget, degrade.BudgetCombinations)
	}
	if res.Uniform.Scale > exact.Uniform.Scale {
		t.Errorf("degraded uniform slack %d exceeds exact %d — degraded probes over-promised headroom",
			res.Uniform.Scale, exact.Uniform.Scale)
	}
	for i := range res.Tasks {
		if res.Tasks[i].Scale > exact.Tasks[i].Scale {
			t.Errorf("task %s: degraded slack %d exceeds exact %d",
				res.Tasks[i].Task, res.Tasks[i].Scale, exact.Tasks[i].Scale)
		}
	}
}

// TestDegradedNominalCertifiesNothing: when the nominal analysis trips
// its budget, its degraded dmm(k) may exceed m although the exact one
// does not. That bound proves neither slack nor infeasibility, so the
// query answers with a result that certifies nothing — tagged with the
// nominal's quality, every scale 0, no breakdown, the degraded frontier
// — and never with ErrInfeasibleConstraint. Without degradation the
// budget fails the query, as before. Once the budget lifts, the same
// query through the same warm store gets the full answer: the store
// keeps no degraded analysis.
func TestDegradedNominalCertifiesNothing(t *testing.T) {
	defer faultinject.Disarm()
	faultinject.Disarm()
	sys := casestudy.New()
	opts := thalesOptions() // (5, 10): the exact dmm(10) is 5
	opts.Tasks = []string{"tau1c", "tau3c"}
	aopts := twca.Options{Degrade: degrade.Policy{Allow: true}}
	exact, err := Engine{}.Query(context.Background(), sys, "sigma_c", aopts, opts)
	if err != nil {
		t.Fatal(err)
	}

	if err := faultinject.Configure([]faultinject.Rule{
		{Point: faultinject.PointBusyWindow, Action: faultinject.ActionBudget},
	}); err != nil {
		t.Fatal(err)
	}
	warm := NewWarmStore()
	res, err := Engine{Warm: warm}.Query(context.Background(), sys, "sigma_c", aopts, opts)
	if err != nil {
		t.Fatalf("degraded nominal failed the query: %v", err)
	}
	if !res.Quality.Degraded() {
		t.Fatalf("Quality = %+v, want the degraded nominal's", res.Quality)
	}
	if res.NominalDMM <= opts.Constraint.M {
		t.Fatalf("NominalDMM = %d, want the degraded bound above m = %d", res.NominalDMM, opts.Constraint.M)
	}
	if res.Uniform != (Slack{}) {
		t.Errorf("Uniform = %+v, want scale 0", res.Uniform)
	}
	if len(res.Tasks) != len(opts.Tasks) {
		t.Fatalf("Tasks = %+v, want one zero entry per requested task", res.Tasks)
	}
	for i, ts := range res.Tasks {
		if ts.Task != opts.Tasks[i] || ts.Slack != (Slack{}) {
			t.Errorf("Tasks[%d] = %+v, want %s at scale 0", i, ts, opts.Tasks[i])
		}
	}
	if len(res.Breakdown) != 0 {
		t.Errorf("Breakdown = %+v, want none", res.Breakdown)
	}
	if len(res.Frontier) != len(exact.Frontier) {
		t.Fatalf("frontier has %d points, want %d", len(res.Frontier), len(exact.Frontier))
	}
	for i, p := range res.Frontier {
		if p.K != exact.Frontier[i].K || p.MinM < exact.Frontier[i].MinM {
			t.Errorf("frontier point %+v undercuts the exact %+v", p, exact.Frontier[i])
		}
	}
	if res.Probes != 0 {
		t.Errorf("Probes = %d, want 0: nothing is bisected", res.Probes)
	}

	_, err = Engine{}.Query(context.Background(), sys, "sigma_c", twca.Options{}, opts)
	if err == nil || errors.Is(err, ErrInfeasibleConstraint) {
		t.Errorf("strict query under an exhausted budget: err = %v, want a budget failure", err)
	}

	// The warm store kept nothing of the degraded query, so once the
	// budget is lifted the same query through the same store answers as
	// one that never met the budget.
	faultinject.Disarm()
	again, err := Engine{Warm: warm}.Query(context.Background(), sys, "sigma_c", aopts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, exact) {
		t.Errorf("query after the budget lifted = %+v, want the unbudgeted %+v", again, exact)
	}
}
