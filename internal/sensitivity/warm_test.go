package sensitivity

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/casestudy"
	"repro/internal/degrade"
	"repro/internal/faultinject"
	"repro/internal/latency"
	"repro/internal/model"
	"repro/internal/twca"
	"repro/internal/weaklyhard"
)

// marshalResult renders a query result for byte-comparison: two results
// are "the same answer" iff their serializations are identical,
// including the effort counters (Probes, Analyses) the wire format
// exposes.
func marshalResult(t *testing.T, res *Result) []byte {
	t.Helper()
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWarmSweepByteIdentical is the central safety property of the
// incremental engine: the exact same query answered cold (NoWarmStart),
// against an empty warm store, and against a hot one must serialize to
// the same bytes — the store moves effort, never answers. Run with
// Workers > 1 so the batched bisection and store writes race under
// -race.
func TestWarmSweepByteIdentical(t *testing.T) {
	sys := casestudy.New()
	opts := Options{
		Constraint:   weaklyhard.Constraint{M: 5, K: 10},
		FrontierMaxK: 20,
		Tasks:        []string{"tau1c", "tau3c"},
		Workers:      4,
	}
	ctx := context.Background()

	coldOpts := opts
	coldOpts.NoWarmStart = true
	cold, err := Engine{}.Query(ctx, sys, "sigma_c", twca.Options{}, coldOpts)
	if err != nil {
		t.Fatal(err)
	}
	coldJSON := marshalResult(t, cold)

	store := NewWarmStore()
	eng := Engine{Warm: store}
	first, err := eng.Query(ctx, sys, "sigma_c", twca.Options{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := marshalResult(t, first); !bytes.Equal(got, coldJSON) {
		t.Errorf("warm query against empty store differs from cold:\nwarm: %s\ncold: %s", got, coldJSON)
	}

	repeat, err := eng.Query(ctx, sys, "sigma_c", twca.Options{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := marshalResult(t, repeat); !bytes.Equal(got, coldJSON) {
		t.Errorf("warm query against hot store differs from cold:\nwarm: %s\ncold: %s", got, coldJSON)
	}
	if st := store.Stats(); st.Hits == 0 {
		t.Errorf("hot-store repeat recorded no warm hits (stats %+v)", st)
	}
}

// TestWarmByteIdenticalAcrossChains repeats the byte-identity check on
// the other analyzable chains, with the store shared across all of them
// (scoping must keep their entries apart).
func TestWarmByteIdenticalAcrossChains(t *testing.T) {
	sys := casestudy.New()
	ctx := context.Background()
	store := NewWarmStore()
	eng := Engine{Warm: store}
	for _, chain := range []string{"sigma_c", "sigma_d"} {
		an, err := twca.New(sys, sys.ChainByName(chain), twca.Options{})
		if err != nil {
			t.Fatalf("%s: %v", chain, err)
		}
		dmm, err := an.DMM(10)
		if err != nil {
			t.Fatalf("%s: %v", chain, err)
		}
		if dmm.Value >= 10 {
			continue
		}
		opts := Options{Constraint: weaklyhard.Constraint{M: dmm.Value, K: 10}, Workers: 2}
		coldOpts := opts
		coldOpts.NoWarmStart = true
		cold, err := Engine{}.Query(ctx, sys, chain, twca.Options{}, coldOpts)
		if err != nil {
			t.Fatalf("%s cold: %v", chain, err)
		}
		for round := 0; round < 2; round++ {
			warm, err := eng.Query(ctx, sys, chain, twca.Options{}, opts)
			if err != nil {
				t.Fatalf("%s warm round %d: %v", chain, round, err)
			}
			if got, want := marshalResult(t, warm), marshalResult(t, cold); !bytes.Equal(got, want) {
				t.Errorf("%s: warm round %d differs from cold:\nwarm: %s\ncold: %s", chain, round, got, want)
			}
		}
	}
}

// TestWarmStoreDegradedExcluded: degraded analyses are kept for
// exact-coordinate reuse only when a later query would reproduce them:
// a diverging busy window is kept, an injected fault (or a deadline) is
// not, and a degraded nominal is not, so a query that certified nothing
// can be retried. Only an exact nominal becomes the scope's nominal.
func TestWarmStoreDegradedExcluded(t *testing.T) {
	defer faultinject.Disarm()
	faultinject.Disarm()
	sys := casestudy.New()
	exact, err := twca.New(sys, sys.ChainByName("sigma_c"), twca.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Configure([]faultinject.Rule{
		{Point: faultinject.PointBusyWindow, Action: faultinject.ActionError},
	}); err != nil {
		t.Fatal(err)
	}
	injected, err := twca.New(sys, sys.ChainByName("sigma_c"),
		twca.Options{Degrade: degrade.Policy{Allow: true}})
	faultinject.Disarm()
	if err != nil {
		t.Fatal(err)
	}
	if injected.Degraded.Budget != degrade.BudgetInjected {
		t.Fatalf("fault-injected analysis tagged %+v, want budget injected; test setup broken", injected.Degraded)
	}
	if err := faultinject.Configure([]faultinject.Rule{
		{Point: faultinject.PointBusyWindow, Action: faultinject.ActionBudget},
	}); err != nil {
		t.Fatal(err)
	}
	diverged, err := twca.New(sys, sys.ChainByName("sigma_c"),
		twca.Options{Degrade: degrade.Policy{Allow: true}})
	faultinject.Disarm()
	if err != nil {
		t.Fatal(err)
	}
	if diverged.Latency.Quality.Budget != degrade.BudgetFixedPoint {
		t.Fatalf("diverged analysis tagged %+v, want budget fixed-point; test setup broken", diverged.Latency.Quality)
	}

	s := NewWarmStore().scope("base", "sigma_c", twca.Options{}, 1000)
	s.put(coord{kind: coordScale, subject: "", value: 1000}, "h-exact", exact, nil, 1000)
	s.put(coord{kind: coordScale, subject: "", value: 1040}, "h-diverged", diverged, nil, 1000)
	s.put(coord{kind: coordScale, subject: "", value: 1050}, "h-injected", injected, nil, 1000)

	hit := []candidate{{x: 1040}, {x: 1050}}
	if s.fetch(familyKey{kind: coordScale}, hit) != 1 || hit[0].stored == nil || hit[0].stored.an != diverged {
		t.Error("diverged entry not reusable at its exact coordinate")
	}
	if hit[1].stored != nil {
		t.Error("fault-injected entry served at its exact coordinate")
	}
	if s.nominal == nil || s.nominal.an != exact {
		t.Error("exact nominal not retained as the scope's nominal")
	}

	nom := NewWarmStore().scope("base", "sigma_c", twca.Options{}, 1000)
	nom.put(coord{kind: coordScale, subject: "", value: 1000}, "h-diverged", diverged, nil, 1000)
	if nom.fetch(familyKey{kind: coordScale}, []candidate{{x: 1000}}) != 0 || nom.nominal != nil {
		t.Error("degraded nominal retained")
	}
}

// TestWarmStoreCaps: past the entry cap new entries are dropped, not
// evicted — dropping costs warm hits but can never change an answer.
func TestWarmStoreCaps(t *testing.T) {
	sys := casestudy.New()
	an, err := twca.New(sys, sys.ChainByName("sigma_c"), twca.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewWarmStore().scope("base", "sigma_c", twca.Options{}, 1000)
	for v := int64(0); v < maxScopeEntries+8; v++ {
		s.put(coord{kind: coordJitter, subject: "sigma_b", value: v}, "h", an, nil, 1000)
	}
	first := []candidate{{x: 0}}
	last := []candidate{{x: maxScopeEntries}}
	if s.fetch(familyKey{kind: coordJitter, subject: "sigma_b"}, first) != 1 {
		t.Error("an entry stored before the cap was evicted")
	}
	if s.fetch(familyKey{kind: coordJitter, subject: "sigma_b"}, last) != 0 {
		t.Error("an entry past the cap was retained")
	}
	s.mu.Lock()
	total := len(s.byCoord)
	s.mu.Unlock()
	if total != maxScopeEntries {
		t.Errorf("byCoord holds %d entries, cap is %d", total, maxScopeEntries)
	}
}

// TestWarmStoreFaultFallback arms the sensitivity.warmstore seam and
// checks the chaos contract: an unavailable warm store silently
// degrades every probe to a cold solve — same bytes, no error, and the
// outage is visible in the store's Injected counter.
func TestWarmStoreFaultFallback(t *testing.T) {
	defer faultinject.Disarm()
	faultinject.Disarm()

	sys := casestudy.New()
	opts := Options{
		Constraint:   weaklyhard.Constraint{M: 5, K: 10},
		FrontierMaxK: 20,
		Tasks:        []string{"tau3c"},
		Workers:      2,
	}
	ctx := context.Background()

	coldOpts := opts
	coldOpts.NoWarmStart = true
	cold, err := Engine{}.Query(ctx, sys, "sigma_c", twca.Options{}, coldOpts)
	if err != nil {
		t.Fatal(err)
	}
	coldJSON := marshalResult(t, cold)

	// Prime a store, then make every consultation fail.
	store := NewWarmStore()
	eng := Engine{Warm: store}
	if _, err := eng.Query(ctx, sys, "sigma_c", twca.Options{}, opts); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Configure([]faultinject.Rule{
		{Point: faultinject.PointSensitivityWarmStore, Action: faultinject.ActionError},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(ctx, sys, "sigma_c", twca.Options{}, opts)
	if err != nil {
		t.Fatalf("query with injected warm-store outage failed: %v", err)
	}
	if got := marshalResult(t, res); !bytes.Equal(got, coldJSON) {
		t.Errorf("injected warm-store outage changed the answer:\ngot: %s\ncold: %s", got, coldJSON)
	}
	if st := store.Stats(); st.Injected == 0 {
		t.Errorf("seam armed but Injected counter is 0 (stats %+v)", st)
	}

	// An intermittent outage (every 3rd consultation) must also be
	// answer-invariant: partial warmth is still just warmth.
	if err := faultinject.Configure([]faultinject.Rule{
		{Point: faultinject.PointSensitivityWarmStore, Action: faultinject.ActionBudget, Every: 3, Seed: 21},
	}); err != nil {
		t.Fatal(err)
	}
	res, err = eng.Query(ctx, sys, "sigma_c", twca.Options{}, opts)
	if err != nil {
		t.Fatalf("query with intermittent warm-store outage failed: %v", err)
	}
	if got := marshalResult(t, res); !bytes.Equal(got, coldJSON) {
		t.Errorf("intermittent warm-store outage changed the answer:\ngot: %s\ncold: %s", got, coldJSON)
	}
}

// TestStoredFailureChargedOnce pins the Analyses charging rule on a
// system reached from two coordinates. With ScaleDenom 20, tau1c's
// scales 21 and 23 both round its WCET up to 5, so they materialize the
// same system; the hook makes that system diverge, and the warm store
// already holds the failure verdict at scale 23. The warm query must
// charge the shared system once, exactly like the cold query, for any
// worker count.
func TestStoredFailureChargedOnce(t *testing.T) {
	sys := casestudy.New()
	shared, err := model.CanonicalHash(ScaleWCET(sys, "tau1c", 23, 20))
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := model.CanonicalHash(ScaleWCET(sys, "tau1c", 21, 20)); h != shared {
		t.Fatal("scales 21 and 23 of tau1c materialize different systems; test setup broken")
	}
	analyze := func(ctx context.Context, sys *model.System, hash string, chain string, opts twca.Options) (*twca.Analysis, error) {
		if hash == shared {
			return nil, latency.ErrDiverged
		}
		return twca.NewCtx(ctx, sys, sys.ChainByName(chain), opts)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := Options{Constraint: weaklyhard.Constraint{M: 5, K: 10}, ScaleDenom: 20, Tasks: []string{"tau1c"}, Workers: workers}
			coldOpts := opts
			coldOpts.NoWarmStart = true
			cold, err := Engine{Analyze: analyze}.Query(context.Background(), sys, "sigma_c", twca.Options{}, coldOpts)
			if err != nil {
				t.Fatal(err)
			}

			store := NewWarmStore()
			base, _ := model.CanonicalHash(sys)
			store.scope(base, "sigma_c", twca.Options{}, 20).
				put(coord{kind: coordScale, subject: "tau1c", value: 23}, shared, nil, latency.ErrDiverged, 20)
			warm, err := Engine{Analyze: analyze, Warm: store}.Query(context.Background(), sys, "sigma_c", twca.Options{}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if st := store.Stats(); st.Hits == 0 {
				t.Fatalf("stored failure verdict never hit (stats %+v)", st)
			}
			if warm.Analyses != cold.Analyses {
				t.Errorf("warm query charged %d analyses, cold %d", warm.Analyses, cold.Analyses)
			}
			if got, want := marshalResult(t, warm), marshalResult(t, cold); !bytes.Equal(got, want) {
				t.Errorf("warm result differs from cold:\nwarm: %s\ncold: %s", got, want)
			}
		})
	}
}

// TestWarmStoreScopesBounded: a store shared by more than maxScopes
// distinct base systems keeps at most maxScopes scopes, a recently
// queried system still gets warm hits, and answers stay byte-identical
// to cold whether its scope survived or was dropped.
func TestWarmStoreScopesBounded(t *testing.T) {
	sys := casestudy.New()
	opts := Options{Constraint: weaklyhard.Constraint{M: 5, K: 10}, Tasks: []string{"tau3c"}, Workers: 2}
	ctx := context.Background()
	coldOpts := opts
	coldOpts.NoWarmStart = true
	cold, err := Engine{}.Query(ctx, sys, "sigma_c", twca.Options{}, coldOpts)
	if err != nil {
		t.Fatal(err)
	}
	coldJSON := marshalResult(t, cold)

	store := NewWarmStore()
	eng := Engine{Warm: store}
	others := 0
	touch := func(n int) {
		for i := 0; i < n; i++ {
			store.scope(fmt.Sprintf("other-%d", others), "sigma_c", twca.Options{}, 1000)
			others++
		}
	}
	scopes := func() int {
		store.mu.Lock()
		defer store.mu.Unlock()
		return len(store.cur) + len(store.old)
	}
	// query runs the Thales query and reports how many of its probes
	// the store answered.
	query := func(round string) int64 {
		before := store.Stats().Hits
		res, err := eng.Query(ctx, sys, "sigma_c", twca.Options{}, opts)
		if err != nil {
			t.Fatalf("%s: %v", round, err)
		}
		if got := marshalResult(t, res); !bytes.Equal(got, coldJSON) {
			t.Errorf("%s: warm answer differs from cold:\nwarm: %s\ncold: %s", round, got, coldJSON)
		}
		return store.Stats().Hits - before
	}

	query("first")
	touch(2 * maxScopes)
	if n := scopes(); n > maxScopes {
		t.Fatalf("store holds %d scopes after %d distinct systems, cap is %d", n, others+1, maxScopes)
	}
	query("re-prime")
	touch(maxScopes/2 - 1)
	if hits := query("recently used"); hits == 0 {
		t.Errorf("system queried %d systems ago got no warm hits", maxScopes/2-1)
	}
	touch(maxScopes)
	if hits := query("long unused"); hits != 0 {
		t.Errorf("system unused for %d systems still got %d warm hits; its scope should be dropped", maxScopes, hits)
	}
	if n := scopes(); n > maxScopes {
		t.Errorf("store holds %d scopes, cap is %d", n, maxScopes)
	}
}

// TestWarmNominal: after a query the store hands out its retained
// nominal system by base hash; a query on that system with BaseHash set
// answers exactly as a cold one, while a BaseHash on any other system is
// ignored rather than trusted, so it cannot borrow a foreign scope.
func TestWarmNominal(t *testing.T) {
	sys := casestudy.New()
	opts := Options{Constraint: weaklyhard.Constraint{M: 9, K: 20}, ScaleDenom: 20, Tasks: []string{"tau3c"}, Workers: 2}
	ctx := context.Background()
	cold := func(sys *model.System) []byte {
		coldOpts := opts
		coldOpts.NoWarmStart = true
		res, err := Engine{}.Query(ctx, sys, "sigma_c", twca.Options{}, coldOpts)
		if err != nil {
			t.Fatal(err)
		}
		return marshalResult(t, res)
	}

	store := NewWarmStore()
	if _, err := (Engine{Warm: store}).Query(ctx, sys, "sigma_c", twca.Options{}, opts); err != nil {
		t.Fatal(err)
	}
	hash, _ := model.CanonicalHash(sys)
	nominal := store.Nominal(hash)
	if nominal == nil {
		t.Fatal("no nominal system retained after a query")
	}
	if h, _ := model.CanonicalHash(nominal); h != hash {
		t.Fatalf("retained nominal hashes to %s, want %s", h, hash)
	}
	if store.Nominal("unknown") != nil || store.Nominal("") != nil {
		t.Error("Nominal answered an unknown hash")
	}

	hits := store.Stats().Hits
	res, err := Engine{Warm: store, BaseHash: hash}.Query(ctx, nominal, "sigma_c", twca.Options{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := marshalResult(t, res), cold(sys); !bytes.Equal(got, want) {
		t.Errorf("query on the retained nominal differs from cold:\ngot: %s\ncold: %s", got, want)
	}
	if store.Stats().Hits == hits {
		t.Error("query on the retained nominal missed its scope")
	}

	other := ScaleWCET(sys, "", 19, 20)
	res, err = Engine{Warm: store, BaseHash: hash}.Query(ctx, other, "sigma_c", twca.Options{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := marshalResult(t, res), cold(other); !bytes.Equal(got, want) {
		t.Errorf("a foreign BaseHash changed the answer:\ngot: %s\ncold: %s", got, want)
	}
}

// TestWarmFetchPerBatch: one fetch answers a whole probe batch. It
// hands each candidate its stored outcome (nil where none is stored),
// counts the batch's hits and misses, and runs the fault seam once; an
// armed seam turns the whole batch into misses and counts one injected
// consultation, not one per candidate.
func TestWarmFetchPerBatch(t *testing.T) {
	defer faultinject.Disarm()
	faultinject.Disarm()
	sys := casestudy.New()
	an, err := twca.New(sys, sys.ChainByName("sigma_c"), twca.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store := NewWarmStore()
	s := store.scope("base", "sigma_c", twca.Options{}, 20)
	fk := familyKey{kind: coordJitter, subject: "sigma_b"}
	for _, v := range []int64{10, 20} {
		s.put(coord{kind: fk.kind, subject: fk.subject, value: v}, fmt.Sprintf("h%d", v), an, nil, 20)
	}
	batch := []candidate{{x: 10}, {x: 30}, {x: 20}, {x: 40}}
	if n := s.fetch(fk, batch); n != 2 {
		t.Fatalf("fetch found %d of the batch, want 2", n)
	}
	for i, want := range []string{"h10", "", "h20", ""} {
		got := ""
		if batch[i].stored != nil {
			got = batch[i].stored.hash
		}
		if got != want {
			t.Errorf("candidate %d (x=%d): stored hash %q, want %q", i, batch[i].x, got, want)
		}
	}
	if st := store.Stats(); st != (WarmStats{Hits: 2, Misses: 2}) {
		t.Errorf("after one batch: %+v, want 2 hits and 2 misses", st)
	}

	if err := faultinject.Configure([]faultinject.Rule{
		{Point: faultinject.PointSensitivityWarmStore, Action: faultinject.ActionError},
	}); err != nil {
		t.Fatal(err)
	}
	fresh := []candidate{{x: 10}, {x: 20}}
	if n := s.fetch(fk, fresh); n != 0 || fresh[0].stored != nil || fresh[1].stored != nil {
		t.Errorf("armed seam: fetch found %d, want every candidate a miss", n)
	}
	if st := store.Stats(); st != (WarmStats{Hits: 2, Misses: 2, Injected: 1}) {
		t.Errorf("armed seam: %+v, want one injected consultation and no new hit or miss", st)
	}
	if n := faultinject.FireCounts()[faultinject.PointSensitivityWarmStore]; n != 1 {
		t.Errorf("one batch ran the fault seam %d times, want 1", n)
	}
}
