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

// Tests in this file drive the degradation ladder, the retention of
// degraded results and the drain gate; several arm the process-global fault-injection
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
// instead of failing the request. Both budgets here are reproducible (a
// function of the system and options), so a retry would get the same
// answer and none of the responses invites one with Retry-After.
func TestDegradedResponses(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	thales := thalesJSON(t)

	// Combination blow-up on the DMM endpoint: degraded to the omega-sum
	// rung, still k-sound, advertised via quality/budget.
	req := analyzeRequest{System: thales, Chain: "sigma_c", K: []int64{1, 3, 10, 100},
		Options: reqOptions{MaxCombinations: 1}}
	status, doc, hdr := postHdr(t, ts.URL+"/v1/analyze/dmm", req)
	if status != http.StatusOK {
		t.Fatalf("degraded dmm status = %d, body %v", status, doc)
	}
	if doc["quality"] != "safe-upper-bound" || doc["budget"] != "combinations" {
		t.Errorf("quality/budget = %v/%v, want safe-upper-bound/combinations", doc["quality"], doc["budget"])
	}
	if ra := hdr.Get("Retry-After"); ra != "" {
		t.Errorf("combinations-degraded dmm response has Retry-After %q; a retry gets the same answer", ra)
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
	if ra := hdr.Get("Retry-After"); ra != "" {
		t.Errorf("fixed-point latency response has Retry-After %q; a retry gets the same answer", ra)
	}
}

// TestDegradedNominalSensitivity: a sensitivity query whose nominal
// analysis trips its busy-window budget gets a degraded dmm(10) = 10
// above m = 5, while the exact value is 5. That bound proves nothing
// either way, so the answer is a 200 that certifies nothing (tagged,
// every scale 0, no breakdown), never a permanent 422
// infeasible_constraint. The injected budget is tagged fixed-point,
// which is reproducible, so the answer carries no Retry-After. With
// no_degrade the budget still fails the request, and not as infeasible.
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
	if doc["budget"] != "fixed-point" {
		t.Errorf("budget = %v, want fixed-point", doc["budget"])
	}
	if ra := hdr.Get("Retry-After"); ra != "" {
		t.Errorf("fixed-point sensitivity response has Retry-After %q, want none", ra)
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

// TestTransientDegradationNotKept: a result degraded by a budget that
// a retry may not meet again (a deadline, an injected fault) is served
// once and not kept, so the retry its Retry-After invites earns the
// exact answer, and the degradation never spills over to other option
// sets of the same system.
func TestTransientDegradationNotKept(t *testing.T) {
	defer faultinject.Disarm()
	faultinject.Disarm()
	thales := thalesJSON(t)
	// docHead is a dmm response up to its per-request envelope.
	docHead := func(data []byte) []byte {
		head, _, ok := bytes.Cut(data, []byte(",\n  \"cache\""))
		if !ok {
			t.Fatalf("response has no cache field: %s", data)
		}
		return head
	}

	// Query-time deadline: the exact artifact builds, then one delay at
	// the first ILP node outlasts the request timeout and dmm(160000)
	// descends to the omega-sum rung.
	_, ts := newTestServer(t, Config{RequestTimeout: time.Second})
	if err := faultinject.Configure([]faultinject.Rule{
		{Point: faultinject.PointILPBranch, Action: faultinject.ActionDelay, Delay: 1300 * time.Millisecond, Times: 1},
	}); err != nil {
		t.Fatal(err)
	}
	req := analyzeRequest{System: thales, Chain: "sigma_c", K: []int64{160000}}
	status, doc, hdr := postHdr(t, ts.URL+"/v1/analyze/dmm", req)
	if status != http.StatusOK {
		t.Fatalf("delayed query = %d, body %v", status, doc)
	}
	if pt := doc["dmm"].([]any)[0].(map[string]any); pt["budget"] != "deadline" || hdr.Get("Retry-After") != "30" {
		t.Fatalf("delayed dmm(160000) = (%v, budget %v, Retry-After %q), want the deadline rung and Retry-After 30",
			pt["dmm"], pt["budget"], hdr.Get("Retry-After"))
	}
	faultinject.Disarm()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	_, fresh := newTestServer(t, Config{})
	_, want := postBytes(t, fresh.URL+"/v1/analyze/dmm", body)
	for i := 0; i < 4; i++ {
		status, got := postBytes(t, ts.URL+"/v1/analyze/dmm", body)
		if status != http.StatusOK || !bytes.Equal(docHead(got), docHead(want)) {
			t.Fatalf("retry %d = %d %s\nwant the fresh server's document %s", i, status, got, want)
		}
	}
	other := analyzeRequest{System: thales, Chain: "sigma_c", K: []int64{10}, Options: reqOptions{NoCarryIn: true}}
	if status, doc, hdr := postHdr(t, ts.URL+"/v1/analyze/dmm", other); status != http.StatusOK ||
		doc["quality"] != "exact" || hdr.Get("Retry-After") != "" {
		t.Errorf("another option set = (%d, quality %v, budget %v, Retry-After %q), want an exact 200",
			status, doc["quality"], doc["budget"], hdr.Get("Retry-After"))
	}

	// A fault injected into the busy-window analysis at construction:
	// the dmm and latency artifacts fall to the trivial rung, and are
	// not kept past the requests that waited for them.
	_, ts = newTestServer(t, Config{})
	if err := faultinject.Configure([]faultinject.Rule{
		{Point: faultinject.PointBusyWindow, Action: faultinject.ActionError},
	}); err != nil {
		t.Fatal(err)
	}
	queries := []struct {
		endpoint string
		req      analyzeRequest
	}{
		{"/v1/analyze/dmm", analyzeRequest{System: thales, Chain: "sigma_c", K: []int64{10}}},
		{"/v1/analyze/latency", analyzeRequest{System: thales, Chain: "sigma_c"}},
	}
	for _, q := range queries {
		if status, doc, _ := postHdr(t, ts.URL+q.endpoint, q.req); status != http.StatusOK ||
			doc["quality"] != "trivial" || doc["budget"] != "injected" {
			t.Fatalf("%s under the fault = (%d, quality %v, budget %v), want (200, trivial, injected)",
				q.endpoint, status, doc["quality"], doc["budget"])
		}
	}
	faultinject.Disarm()
	for i := 0; i < 2; i++ {
		for _, q := range queries {
			if status, doc, hdr := postHdr(t, ts.URL+q.endpoint, q.req); status != http.StatusOK ||
				doc["quality"] != "exact" || hdr.Get("Retry-After") != "" {
				t.Errorf("%s retry %d = (%d, quality %v, cache %v), want an exact 200",
					q.endpoint, i, status, doc["quality"], doc["cache"])
			}
		}
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

// TestPointSolvesHoldAdmissionSlot: the dmm(k) solves of a dmm sweep or
// a verify on a cached artifact hold an admission slot, so -inflight
// bounds them. With MaxInflight 1 and a 400 ms delay at the ILP seam,
// twca_analyses_inflight reads 1, and never more, while two dmm requests
// for new points on a cached σc artifact solve (it read 0 when those
// solves ran outside the gate); a verify on the same artifact then
// answers.
func TestPointSolvesHoldAdmissionSlot(t *testing.T) {
	defer faultinject.Disarm()
	faultinject.Disarm()
	thales := thalesJSON(t)
	_, ts := newTestServer(t, Config{MaxInflight: 1})
	if status, doc := post(t, ts.URL+"/v1/analyze/dmm", analyzeRequest{System: thales, Chain: "sigma_c", K: []int64{1}}); status != http.StatusOK {
		t.Fatalf("warming query = %d: %v", status, doc["error"])
	}
	if err := faultinject.Configure([]faultinject.Rule{
		{Point: faultinject.PointILPBranch, Action: faultinject.ActionDelay, Delay: 400 * time.Millisecond, Times: 2},
	}); err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 2)
	for _, k := range []int64{160000, 150000} {
		go func() {
			body, err := json.Marshal(analyzeRequest{System: thales, Chain: "sigma_c", K: []int64{k}})
			if err != nil {
				done <- 0
				return
			}
			resp, err := http.Post(ts.URL+"/v1/analyze/dmm", "application/json", bytes.NewReader(body))
			if err != nil {
				done <- 0
				return
			}
			resp.Body.Close()
			done <- resp.StatusCode
		}()
	}
	const series = "twca_analyses_inflight"
	seen := 0.0
	for finished := 0; finished < 2; {
		select {
		case status := <-done:
			if status != http.StatusOK {
				t.Errorf("point query = %d, want 200", status)
			}
			finished++
		case <-time.After(20 * time.Millisecond):
			v := scrapeMetrics(t, ts.URL, series)[series]
			if v > 1 {
				t.Errorf("%s = %v with MaxInflight 1", series, v)
			}
			seen = max(seen, v)
		}
	}
	if seen != 1 {
		t.Errorf("%s read at most %v while two point queries solved, want 1", series, seen)
	}
	faultinject.Disarm()
	req := analyzeRequest{System: thales, Chain: "sigma_c", Constraints: []wireConstraint{{M: 5, K: 140000}}}
	if status, doc := post(t, ts.URL+"/v1/verify", req); status != http.StatusOK {
		t.Errorf("verify = %d: %v", status, doc["error"])
	}
}
