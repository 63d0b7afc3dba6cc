package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// Tests in this file drive the degradation ladder, the circuit breaker
// and the drain gate; several arm the process-global fault-injection
// harness, so none of them use t.Parallel().

// postHdr is post plus the response headers, for Retry-After checks.
func postHdr(t testing.TB, url string, req any) (int, map[string]any, http.Header) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("bad response body: %v", err)
	}
	return resp.StatusCode, doc, resp.Header
}

// TestDegradedResponses pins the service's core robustness contract:
// budget exhaustion answers 200 with a sound, tagged over-approximation
// instead of failing the request.
func TestDegradedResponses(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	thales := thalesJSON(t)

	// Combination blow-up on the DMM endpoint: degraded to the omega-sum
	// rung, still k-sound, advertised via quality/budget + Retry-After.
	req := analyzeRequest{System: thales, Chain: "sigma_c", K: []int64{1, 3, 10, 100},
		Options: reqOptions{MaxCombinations: 1}}
	status, doc, hdr := postHdr(t, ts.URL+"/v1/analyze/dmm", req)
	if status != http.StatusOK {
		t.Fatalf("degraded dmm status = %d, body %v", status, doc)
	}
	if doc["quality"] != "safe-upper-bound" || doc["budget"] != "combinations" {
		t.Errorf("quality/budget = %v/%v, want safe-upper-bound/combinations", doc["quality"], doc["budget"])
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("degraded response has no Retry-After")
	}
	// Wrong-side check against the paper's exact Table II values for
	// sigma_c: a degraded dmm must over-approximate, never undercut.
	exact := map[float64]float64{1: 1, 3: 3, 10: 5, 100: 30}
	for _, p := range doc["dmm"].([]any) {
		pt := p.(map[string]any)
		k, v := pt["k"].(float64), pt["dmm"].(float64)
		if v < exact[k] || v > k {
			t.Errorf("degraded dmm(%v) = %v outside [%v, %v]", k, v, exact[k], k)
		}
		if pt["quality"] != "safe-upper-bound" || pt["exact"] != false {
			t.Errorf("dmm(%v) quality/exact = %v/%v, want safe-upper-bound/false", k, pt["quality"], pt["exact"])
		}
	}

	// The same budget trip on /v1/verify: per-constraint tags, and Holds
	// only ever flips true -> false under degradation.
	vreq := analyzeRequest{System: thales, Chain: "sigma_c",
		Constraints: []wireConstraint{{M: 5, K: 10}, {M: 1, K: 100}},
		Options:     reqOptions{MaxCombinations: 1}}
	status, doc, _ = postHdr(t, ts.URL+"/v1/verify", vreq)
	if status != http.StatusOK {
		t.Fatalf("degraded verify status = %d, body %v", status, doc)
	}
	for _, r := range doc["results"].([]any) {
		res := r.(map[string]any)
		if res["quality"] != "safe-upper-bound" {
			t.Errorf("verify (m=%v,k=%v) quality = %v, want safe-upper-bound", res["m"], res["k"], res["quality"])
		}
		if res["holds"] == true && res["dmm"].(float64) > res["m"].(float64) {
			t.Errorf("verify (m=%v,k=%v) holds with dmm %v > m", res["m"], res["k"], res["dmm"])
		}
	}

	// An overloaded chain on the latency endpoint descends to the
	// trivial Lemma-3 floor instead of 422ing.
	lreq := analyzeRequest{SystemDSL: "system bad\nchain c periodic(10) deadline(10) { t prio 1 wcet 20 }\n", Chain: "c"}
	status, doc, hdr = postHdr(t, ts.URL+"/v1/analyze/latency", lreq)
	if status != http.StatusOK {
		t.Fatalf("degraded latency status = %d, body %v", status, doc)
	}
	if doc["quality"] != "trivial" || doc["budget"] != "fixed-point" {
		t.Errorf("latency quality/budget = %v/%v, want trivial/fixed-point", doc["quality"], doc["budget"])
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("trivial latency response has no Retry-After")
	}
}

// TestDegradedNominalSensitivity: a sensitivity query whose nominal
// analysis trips its busy-window budget gets a degraded dmm(10) = 10
// above m = 5, while the exact value is 5. That bound proves nothing
// either way, so the answer is a 200 that certifies nothing (tagged,
// with Retry-After, every scale 0, no breakdown), never a permanent
// 422 infeasible_constraint. With no_degrade the budget still fails the
// request, and not as infeasible.
func TestDegradedNominalSensitivity(t *testing.T) {
	defer faultinject.Disarm()
	faultinject.Disarm()
	_, ts := newTestServer(t, Config{})
	if err := faultinject.Configure([]faultinject.Rule{
		{Point: faultinject.PointBusyWindow, Action: faultinject.ActionBudget, Every: 1},
	}); err != nil {
		t.Fatal(err)
	}
	req := analyzeRequest{System: thalesJSON(t), Chain: "sigma_c",
		Sensitivity: &reqSensitivity{M: 5, K: 10, Tasks: []string{"tau1c"}}}
	status, doc, hdr := postHdr(t, ts.URL+"/v1/analyze/sensitivity", req)
	if status != http.StatusOK {
		t.Fatalf("status = %d (kind %v: %v), want 200", status, doc["kind"], doc["error"])
	}
	if doc["quality"] == "exact" || doc["budget"] == nil {
		t.Errorf("quality/budget = %v/%v, want the degraded nominal's tags", doc["quality"], doc["budget"])
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("degraded sensitivity response has no Retry-After")
	}
	if doc["nominal_dmm"].(float64) <= 5 || doc["uniform_scale"].(float64) != 0 {
		t.Errorf("nominal_dmm/uniform_scale = %v/%v, want a bound above m = 5 and scale 0",
			doc["nominal_dmm"], doc["uniform_scale"])
	}
	tasks, _ := doc["tasks"].([]any)
	if len(tasks) != 1 || tasks[0].(map[string]any)["task"] != "tau1c" || tasks[0].(map[string]any)["scale"].(float64) != 0 {
		t.Errorf("tasks = %v, want tau1c at scale 0", doc["tasks"])
	}
	if _, ok := doc["breakdown"]; ok {
		t.Errorf("breakdown = %v, want none", doc["breakdown"])
	}

	req.Options.NoDegrade = true
	status, doc, _ = postHdr(t, ts.URL+"/v1/analyze/sensitivity", req)
	if status == http.StatusOK || doc["kind"] == "infeasible_constraint" {
		t.Errorf("no_degrade under an exhausted budget = (%d, kind %v), want a budget failure", status, doc["kind"])
	}

	// The retry Retry-After invites earns the full answer once the budget
	// lifts: the degraded nominal was not kept, so the query solves again
	// and matches a server that never met the budget.
	faultinject.Disarm()
	req.Options.NoDegrade = false
	status, doc, _ = postHdr(t, ts.URL+"/v1/analyze/sensitivity", req)
	if status != http.StatusOK {
		t.Fatalf("retry after the budget lifted = %d (kind %v: %v), want 200", status, doc["kind"], doc["error"])
	}
	if doc["nominal_dmm"].(float64) != 5 || doc["uniform_scale"].(float64) == 0 {
		t.Errorf("retry nominal_dmm/uniform_scale = %v/%v, want 5 and a non-zero scale",
			doc["nominal_dmm"], doc["uniform_scale"])
	}
	_, fresh := newTestServer(t, Config{})
	_, want, _ := postHdr(t, fresh.URL+"/v1/analyze/sensitivity", req)
	for _, field := range []string{"nominal_dmm", "uniform_scale", "tasks", "breakdown", "frontier", "quality", "budget"} {
		if !reflect.DeepEqual(doc[field], want[field]) {
			t.Errorf("retry %s = %v, want %v as on a server that never met the budget", field, doc[field], want[field])
		}
	}
}

// TestBreakerOpensAfterConsecutiveTrips: three consecutive
// budget-tripped analyses of one system open its breaker; the next
// request starts directly on the omega-sum rung (budget "breaker")
// without burning an exact-analysis budget.
func TestBreakerOpensAfterConsecutiveTrips(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	thales := thalesJSON(t)
	trip := analyzeRequest{System: thales, Chain: "sigma_c", K: []int64{10},
		Options: reqOptions{MaxCombinations: 1}}

	var hash string
	for i := 0; i < breakerThreshold; i++ {
		status, doc, _ := postHdr(t, ts.URL+"/v1/analyze/dmm", trip)
		if status != http.StatusOK || doc["quality"] != "safe-upper-bound" {
			t.Fatalf("trip %d: status %d quality %v", i, status, doc["quality"])
		}
		hash = doc["system_hash"].(string)
	}
	if !svc.breaker.open(hash) {
		t.Fatalf("breaker not open after %d trips", breakerThreshold)
	}

	// Different options, same system: the open breaker skips the exact
	// analysis outright.
	req := analyzeRequest{System: thales, Chain: "sigma_c", K: []int64{10}}
	status, doc, hdr := postHdr(t, ts.URL+"/v1/analyze/dmm", req)
	if status != http.StatusOK {
		t.Fatalf("breaker-degraded status = %d, body %v", status, doc)
	}
	if doc["quality"] != "safe-upper-bound" || doc["budget"] != "breaker" {
		t.Errorf("quality/budget = %v/%v, want safe-upper-bound/breaker", doc["quality"], doc["budget"])
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("breaker-degraded response has no Retry-After")
	}
}

// TestBreakerPrefersCachedExact: an open breaker must never shadow an
// exact artifact that is already cached — degraded results are a
// fallback, not a downgrade.
func TestBreakerPrefersCachedExact(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	thales := thalesJSON(t)
	exactReq := analyzeRequest{System: thales, Chain: "sigma_c", K: []int64{10}}

	status, doc, _ := postHdr(t, ts.URL+"/v1/analyze/dmm", exactReq)
	if status != http.StatusOK || doc["quality"] != "exact" {
		t.Fatalf("warmup: status %d quality %v", status, doc["quality"])
	}
	hash := doc["system_hash"].(string)

	trip := analyzeRequest{System: thales, Chain: "sigma_c", K: []int64{10},
		Options: reqOptions{MaxCombinations: 1}}
	for i := 0; i < breakerThreshold; i++ {
		postHdr(t, ts.URL+"/v1/analyze/dmm", trip)
	}
	if !svc.breaker.open(hash) {
		t.Fatal("breaker not open")
	}

	status, doc, _ = postHdr(t, ts.URL+"/v1/analyze/dmm", exactReq)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if doc["quality"] != "exact" || doc["cache"] != "hit" {
		t.Errorf("open breaker served quality %v / cache %v, want the cached exact artifact",
			doc["quality"], doc["cache"])
	}
}

// TestBreakerCooldownHalfOpen: after the cooldown the next request
// retries the exact analysis; success closes the breaker and evicts the
// degraded twin artifact.
func TestBreakerCooldownHalfOpen(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	thales := thalesJSON(t)

	// Deterministic clock, advanced by the test. breaker.now is only
	// ever read under breaker.mu, so swapping it under the same lock is
	// race-free.
	now := time.Now()
	svc.breaker.mu.Lock()
	svc.breaker.now = func() time.Time { return now }
	svc.breaker.mu.Unlock()

	trip := analyzeRequest{System: thales, Chain: "sigma_c", K: []int64{10},
		Options: reqOptions{MaxCombinations: 1}}
	var hash string
	for i := 0; i < breakerThreshold; i++ {
		_, doc, _ := postHdr(t, ts.URL+"/v1/analyze/dmm", trip)
		hash = doc["system_hash"].(string)
	}
	if !svc.breaker.open(hash) {
		t.Fatal("breaker not open")
	}

	req := analyzeRequest{System: thales, Chain: "sigma_c", K: []int64{10}}
	_, doc, _ := postHdr(t, ts.URL+"/v1/analyze/dmm", req)
	if doc["budget"] != "breaker" {
		t.Fatalf("open breaker budget = %v, want breaker", doc["budget"])
	}
	degradedKey := artifactKey("dmm", hash, "sigma_c", req.Options.fingerprint()) + "|degraded"
	if _, ok := svc.store.Peek(degradedKey); !ok {
		t.Fatal("degraded twin artifact not cached while breaker open")
	}

	svc.breaker.mu.Lock()
	now = now.Add(breakerCooldown + time.Second)
	svc.breaker.mu.Unlock()

	// Half-open probe: the exact analysis runs (default options do not
	// trip any budget), closes the breaker, and the degraded twin is
	// forgotten so it cannot resurface.
	status, doc, _ := postHdr(t, ts.URL+"/v1/analyze/dmm", req)
	if status != http.StatusOK || doc["quality"] != "exact" {
		t.Fatalf("half-open probe: status %d quality %v, want 200 exact", status, doc["quality"])
	}
	if svc.breaker.open(hash) {
		t.Error("breaker still open after a successful exact analysis")
	}
	if _, ok := svc.store.Peek(degradedKey); ok {
		t.Error("degraded twin artifact lingers after the exact analysis")
	}
}

// TestDrainRefusesNewRequests: once draining, new analysis requests are
// refused with 503 + Retry-After while health and metrics stay up.
func TestDrainRefusesNewRequests(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	svc.StartDrain()

	req := analyzeRequest{System: thalesJSON(t), Chain: "sigma_c", K: []int64{10}}
	status, doc, hdr := postHdr(t, ts.URL+"/v1/analyze/dmm", req)
	if status != http.StatusServiceUnavailable || doc["kind"] != "draining" {
		t.Fatalf("draining dmm = (%d, kind %v), want (503, draining)", status, doc["kind"])
	}
	if hdr.Get("Retry-After") != "30" {
		t.Errorf("Retry-After = %q, want %q (the default drain timeout)", hdr.Get("Retry-After"), "30")
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || health["status"] != "draining" {
		t.Errorf("healthz = (%d, %v), want (200, draining)", resp.StatusCode, health["status"])
	}
	if resp, err := http.Get(ts.URL + "/metrics"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("metrics while draining: %v / %v", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// TestDrainCancelsInflight: an analysis still running when the drain
// deadline forces Close is canceled and its request answers 503 +
// Retry-After — the work was lost to the shutdown, not to the system.
func TestDrainCancelsInflight(t *testing.T) {
	defer faultinject.Disarm()
	svc, ts := newTestServer(t, Config{})

	// Slow every busy-window evaluation so the analysis is reliably
	// still in flight when the drain hammer falls.
	if err := faultinject.Configure([]faultinject.Rule{
		{Point: faultinject.PointBusyWindow, Action: faultinject.ActionDelay, Delay: 100 * time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}

	type result struct {
		status int
		doc    map[string]any
		hdr    http.Header
	}
	done := make(chan result, 1)
	go func() {
		req := analyzeRequest{System: thalesJSON(t), Chain: "sigma_c", K: []int64{10}}
		status, doc, hdr := postHdr(t, ts.URL+"/v1/analyze/dmm", req)
		done <- result{status, doc, hdr}
	}()

	time.Sleep(30 * time.Millisecond)
	svc.StartDrain()
	svc.Close() // the drain deadline expired: hard-cancel stragglers
	r := <-done
	if r.status != http.StatusServiceUnavailable || r.doc["kind"] != "draining" {
		t.Fatalf("in-flight request = (%d, kind %v, err %v), want (503, draining)",
			r.status, r.doc["kind"], r.doc["error"])
	}
	if r.hdr.Get("Retry-After") == "" {
		t.Error("canceled in-flight response has no Retry-After")
	}
}
