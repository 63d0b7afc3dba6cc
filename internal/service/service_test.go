package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/casestudy"
	"repro/internal/schema"
	"repro/internal/store"
)

// thalesJSON returns the paper's case study in the native JSON format,
// the way a client would ship it.
func thalesJSON(t testing.TB) json.RawMessage {
	t.Helper()
	data, err := casestudy.New().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return svc, ts
}

// post sends req as JSON and returns the status plus the decoded body.
func post(t testing.TB, url string, req any) (int, map[string]any) {
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
	return resp.StatusCode, doc
}

func TestDMMEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := analyzeRequest{System: thalesJSON(t), Chain: "sigma_c", K: []int64{1, 3, 10, 100}}

	status, doc := post(t, ts.URL+"/v1/analyze/dmm", req)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %v", status, doc)
	}
	if doc["schema_version"].(float64) != schema.Version {
		t.Errorf("schema_version = %v", doc["schema_version"])
	}
	if doc["cache"] != "miss" {
		t.Errorf("first query cache = %v, want miss", doc["cache"])
	}
	if doc["wcl"].(float64) != 331 || doc["min_slack"].(float64) != 34 {
		t.Errorf("wcl/min_slack = %v/%v, want 331/34", doc["wcl"], doc["min_slack"])
	}
	// The paper's Table II values for σ_c.
	want := map[float64]float64{1: 1, 3: 3, 10: 5, 100: 30}
	for _, p := range doc["dmm"].([]any) {
		pt := p.(map[string]any)
		if w := want[pt["k"].(float64)]; pt["dmm"].(float64) != w {
			t.Errorf("dmm(%v) = %v, want %v", pt["k"], pt["dmm"], w)
		}
	}

	// Repeat query: served from cache, analytically byte-identical.
	status2, doc2 := post(t, ts.URL+"/v1/analyze/dmm", req)
	if status2 != http.StatusOK || doc2["cache"] != "hit" {
		t.Fatalf("repeat = (%d, cache %v), want (200, hit)", status2, doc2["cache"])
	}
	for _, field := range []string{"dmm", "wcl", "min_slack", "combinations", "system_hash"} {
		if !reflect.DeepEqual(doc[field], doc2[field]) {
			t.Errorf("cache warmth leaked into %q: cold %v, warm %v", field, doc[field], doc2[field])
		}
	}
}

// TestPolicyOptionTravels pins the v2 policy plumbing: an absent policy
// answers as "spp", an explicit np-spp both answers with its name and
// gets its own cache entry (same system, different policy must not
// share artifacts).
func TestPolicyOptionTravels(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	thales := thalesJSON(t)

	status, doc := post(t, ts.URL+"/v1/analyze/dmm",
		analyzeRequest{System: thales, Chain: "sigma_c", K: []int64{1}})
	if status != http.StatusOK || doc["policy"] != "spp" {
		t.Fatalf("default = (%d, policy %v), want (200, spp)", status, doc["policy"])
	}
	status, doc = post(t, ts.URL+"/v1/analyze/dmm",
		analyzeRequest{System: thales, Chain: "sigma_c", K: []int64{1},
			Options: reqOptions{Policy: "np-spp"}})
	if status != http.StatusOK || doc["policy"] != "np-spp" {
		t.Fatalf("np-spp = (%d, policy %v), want (200, np-spp)", status, doc["policy"])
	}
	if doc["cache"] != "miss" {
		t.Errorf("np-spp query cache = %v, want miss (policy must partition the cache)", doc["cache"])
	}
}

func TestDMMFromDSL(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	dsl := `system tiny
chain c periodic(100) deadline(100) { t prio 1 wcet 10 }
`
	status, doc := post(t, ts.URL+"/v1/analyze/dmm", analyzeRequest{SystemDSL: dsl, Chain: "c", K: []int64{5}})
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %v", status, doc)
	}
	if doc["schedulable"] != true {
		t.Errorf("tiny system not schedulable: %v", doc)
	}
}

func TestLatencyEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := analyzeRequest{System: thalesJSON(t), Chain: "sigma_d"}
	status, doc := post(t, ts.URL+"/v1/analyze/latency", req)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %v", status, doc)
	}
	if doc["wcl"].(float64) != 175 || doc["schedulable"] != true {
		t.Errorf("sigma_d wcl/schedulable = %v/%v, want 175/true", doc["wcl"], doc["schedulable"])
	}
	if _, again := post(t, ts.URL+"/v1/analyze/latency", req); again["cache"] != "hit" {
		t.Errorf("repeat latency query cache = %v, want hit", again["cache"])
	}
}

func TestVerifyEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Warm the artifact through the DMM endpoint first: verify shares it.
	post(t, ts.URL+"/v1/analyze/dmm", analyzeRequest{System: thalesJSON(t), Chain: "sigma_c", K: []int64{1}})

	req := analyzeRequest{System: thalesJSON(t), Chain: "sigma_c",
		Constraints: []wireConstraint{{M: 5, K: 10}, {M: 4, K: 10}}}
	status, doc := post(t, ts.URL+"/v1/verify", req)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %v", status, doc)
	}
	if doc["cache"] != "hit" {
		t.Errorf("verify after dmm cache = %v, want hit (shared artifact)", doc["cache"])
	}
	results := doc["results"].([]any)
	// dmm(10) = 5: (5,10) is guaranteed, (4,10) is not provable.
	if r := results[0].(map[string]any); r["holds"] != true || r["dmm"].(float64) != 5 {
		t.Errorf("(5,10) = %v, want holds with dmm 5", r)
	}
	if r := results[1].(map[string]any); r["holds"] != false {
		t.Errorf("(4,10) = %v, want not provable", r)
	}
}

func TestErrorToStatusMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	thales := thalesJSON(t)
	overloaded := "system bad\nchain c periodic(10) deadline(10) { t prio 1 wcet 20 }\n"

	tests := []struct {
		name     string
		endpoint string
		req      analyzeRequest
		status   int
		kind     string
	}{
		{"unknown chain", "/v1/analyze/dmm",
			analyzeRequest{System: thales, Chain: "nope"},
			http.StatusNotFound, "no_chain"},
		{"negative option", "/v1/analyze/dmm",
			analyzeRequest{System: thales, Chain: "sigma_c", Options: reqOptions{MaxQ: -1}},
			http.StatusBadRequest, "invalid_options"},
		{"no deadline", "/v1/analyze/dmm",
			analyzeRequest{SystemDSL: "system s\nchain c periodic(100) { t prio 1 wcet 10 }\n", Chain: "c"},
			http.StatusUnprocessableEntity, "no_deadline"},
		// By default budget exhaustion degrades to a sound 200 (see
		// TestDegradedResponses); no_degrade restores the hard failure.
		{"combination explosion", "/v1/analyze/dmm",
			analyzeRequest{System: thales, Chain: "sigma_c", Options: reqOptions{MaxCombinations: 1, NoDegrade: true}},
			http.StatusUnprocessableEntity, "too_many_combinations"},
		{"unschedulable", "/v1/analyze/latency",
			analyzeRequest{SystemDSL: overloaded, Chain: "c", Options: reqOptions{NoDegrade: true}},
			http.StatusUnprocessableEntity, "unschedulable"},
		{"sim-only policy", "/v1/analyze/dmm",
			analyzeRequest{System: thales, Chain: "sigma_c", Options: reqOptions{Policy: "jcl"}},
			http.StatusUnprocessableEntity, "policy_unsupported"},
		{"sim-only policy latency", "/v1/analyze/latency",
			analyzeRequest{System: thales, Chain: "sigma_c", Options: reqOptions{Policy: "jcl"}},
			http.StatusUnprocessableEntity, "policy_unsupported"},
		{"unknown policy", "/v1/analyze/dmm",
			analyzeRequest{System: thales, Chain: "sigma_c", Options: reqOptions{Policy: "fifo"}},
			http.StatusBadRequest, "invalid_options"},
		{"no system", "/v1/analyze/dmm",
			analyzeRequest{Chain: "sigma_c"},
			http.StatusBadRequest, "bad_request"},
		{"both formats", "/v1/analyze/dmm",
			analyzeRequest{System: thales, SystemDSL: "system s\n", Chain: "sigma_c"},
			http.StatusBadRequest, "bad_request"},
		{"malformed system", "/v1/analyze/dmm",
			analyzeRequest{System: json.RawMessage(`{"not": "a system"}`), Chain: "c"},
			http.StatusBadRequest, "bad_request"},
		{"no constraints", "/v1/verify",
			analyzeRequest{System: thales, Chain: "sigma_c"},
			http.StatusBadRequest, "bad_request"},
		{"invalid constraint", "/v1/verify",
			analyzeRequest{System: thales, Chain: "sigma_c", Constraints: []wireConstraint{{M: 3, K: 3}}},
			http.StatusBadRequest, "bad_request"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			status, doc := post(t, ts.URL+tt.endpoint, tt.req)
			if status != tt.status || doc["kind"] != tt.kind {
				t.Errorf("= (%d, kind %v), want (%d, %q); error: %v",
					status, doc["kind"], tt.status, tt.kind, doc["error"])
			}
		})
	}

	// Non-JSON body and unknown fields are 400 too.
	resp, err := http.Post(ts.URL+"/v1/analyze/dmm", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-JSON body = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/analyze/dmm", "application/json",
		strings.NewReader(`{"chain": "c", "max_combination": 5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field = %d, want 400 (typo protection)", resp.StatusCode)
	}

	// Wrong method on a versioned route.
	resp, err = http.Get(ts.URL + "/v1/analyze/dmm")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on POST route = %d, want 405", resp.StatusCode)
	}
}

// TestRequestDeadline: a request whose deadline is already unmeetable
// fails with 504 and does not poison the cache for later requests.
func TestRequestDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	req := analyzeRequest{System: thalesJSON(t), Chain: "sigma_c", BreakpointsMaxK: 1000}
	status, doc := post(t, ts.URL+"/v1/analyze/dmm", req)
	if status != http.StatusGatewayTimeout || doc["kind"] != "deadline_exceeded" {
		t.Fatalf("= (%d, kind %v), want (504, deadline_exceeded); error: %v", status, doc["kind"], doc["error"])
	}

	// Same system on a server with a sane deadline still works.
	_, ts2 := newTestServer(t, Config{})
	if status, doc := post(t, ts2.URL+"/v1/analyze/dmm", req); status != http.StatusOK {
		t.Errorf("sane-deadline rerun = %d, body %v", status, doc)
	}
}

// TestCoalescingOverHTTP fires concurrent identical expensive queries:
// exactly one runs the analysis, the rest share it.
func TestCoalescingOverHTTP(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	req := analyzeRequest{System: thalesJSON(t), Chain: "sigma_c", BreakpointsMaxK: 10000}
	body, _ := json.Marshal(req)

	const n = 8
	states := make([]string, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/analyze/dmm", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var doc map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d = %d: %v", i, resp.StatusCode, doc["error"])
				return
			}
			states[i] = doc["cache"].(string)
		}(i)
	}
	wg.Wait()

	counts := map[string]int{}
	for _, st := range states {
		counts[st]++
	}
	if counts[store.OutcomeMiss] != 1 {
		t.Errorf("cache outcomes %v, want exactly 1 miss", counts)
	}
	// One analysis artifact plus the assembled response document.
	if svc.store.Len() != 2 {
		t.Errorf("cache holds %d artifacts, want 2", svc.store.Len())
	}
}

// repeatQueryAllocsCeiling bounds the allocations of one warmed repeat
// of TestRepeatQuerySpeedup's BreakpointsMaxK: 10000 read through the
// handler. Measured at 37 on go1.24 linux/amd64 (39 under -race): a
// hit writes the retained encoded document, whatever its size. The
// ceiling leaves about 25% headroom for toolchain and stdlib drift.
// Decoding the envelope with encoding/json cost 55 (57); re-encoding the
// retained document on every hit cost 14,389; skipping the document and
// re-sweeping the breakpoints costs 8,691.
const repeatQueryAllocsCeiling = 46

// TestRepeatQuerySpeedup pins what makes a repeat query fast, in
// counters rather than a wall-clock ratio, which flaked under a loaded
// test run: every warm repeat is a cache hit that runs no analysis
// (twca_store_misses_total +0), explores no ILP node
// (twca_ilp_nodes_total +0) and decodes no system
// (twca_system_decodes_total{source="decoded"} +0), and one warm read
// stays under repeatQueryAllocsCeiling.
func TestRepeatQuerySpeedup(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	req := analyzeRequest{System: thalesJSON(t), Chain: "sigma_c", K: []int64{1, 3, 10, 100}, BreakpointsMaxK: 10000}

	if status, _ := post(t, ts.URL+"/v1/analyze/dmm", req); status != http.StatusOK {
		t.Fatalf("cold query = %d", status)
	}
	series := []string{
		"twca_store_misses_total",
		"twca_ilp_nodes_total",
		`twca_system_decodes_total{source="decoded"}`,
	}
	cold := scrapeMetrics(t, ts.URL, series...)
	for i := 0; i < 3; i++ {
		status, doc := post(t, ts.URL+"/v1/analyze/dmm", req)
		if status != http.StatusOK || doc["cache"] != "hit" {
			t.Fatalf("warm query = (%d, cache %v)", status, doc["cache"])
		}
	}
	warm := scrapeMetrics(t, ts.URL, series...)
	for _, name := range series {
		if warm[name] != cold[name] {
			t.Errorf("%s moved from %v to %v over the warm repeats, want +0", name, cold[name], warm[name])
		}
	}

	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	allocs := testing.AllocsPerRun(20, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze/dmm", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("warm read = %d: %s", rec.Code, rec.Body)
		}
	})
	t.Logf("warm BreakpointsMaxK=10000 read: %.0f allocs (ceiling %d)", allocs, repeatQueryAllocsCeiling)
	if allocs > repeatQueryAllocsCeiling {
		t.Errorf("warm BreakpointsMaxK=10000 read allocates %.0f times, ceiling %d", allocs, repeatQueryAllocsCeiling)
	}
}

// scrapeMetrics reads the named series (name plus labels, exactly as
// /metrics prints them) from the server's exposition, failing the test
// when one is missing.
func scrapeMetrics(t *testing.T, url string, series ...string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	values := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || !slices.Contains(series, name) {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		values[name] = v
	}
	for _, name := range series {
		if _, ok := values[name]; !ok {
			t.Fatalf("/metrics has no %s series", name)
		}
	}
	return values
}

func TestSensitivityEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := analyzeRequest{System: thalesJSON(t), Chain: "sigma_c",
		Sensitivity: &reqSensitivity{M: 5, K: 10, FrontierMaxK: 20}}

	status, doc := post(t, ts.URL+"/v1/analyze/sensitivity", req)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %v", status, doc)
	}
	if doc["cache"] != "miss" {
		t.Errorf("first query cache = %v, want miss", doc["cache"])
	}
	if doc["nominal_dmm"].(float64) != 5 || doc["uniform_scale"].(float64) != 1000 {
		t.Errorf("nominal_dmm/uniform_scale = %v/%v, want 5/1000", doc["nominal_dmm"], doc["uniform_scale"])
	}
	if n := len(doc["frontier"].([]any)); n != 20 {
		t.Errorf("frontier has %d points, want 20", n)
	}
	if n := len(doc["breakdown"].([]any)); n != 2 {
		t.Errorf("breakdown has %d overload chains, want 2", n)
	}
	if n := len(doc["tasks"].([]any)); n != len(casestudy.TaskOrder) {
		t.Errorf("tasks has %d entries, want %d", n, len(casestudy.TaskOrder))
	}

	// Repeat query: analyzed again (the service keeps no sensitivity
	// documents), byte-identical analysis fields — including the probe
	// counters, which are deterministic per query.
	status2, doc2 := post(t, ts.URL+"/v1/analyze/sensitivity", req)
	if status2 != http.StatusOK || doc2["cache"] != "miss" {
		t.Fatalf("repeat = (%d, cache %v), want (200, miss)", status2, doc2["cache"])
	}
	for _, field := range []string{"nominal_dmm", "uniform_scale", "tasks", "breakdown", "frontier", "probes", "analyses", "quality", "system_hash"} {
		if !reflect.DeepEqual(doc[field], doc2[field]) {
			t.Errorf("warmth leaked into %q: cold %v, warm %v", field, doc[field], doc2[field])
		}
	}
}

// sensitivityRepeatAllocsCeiling bounds the allocations of one warm
// repeat of the full σc sensitivity query (all tasks, FrontierMaxK 20)
// through the handler. Measured at 255 on go1.24 linux/amd64, and 261
// under -race; the ceiling leaves about 25% headroom for toolchain and
// stdlib drift. Decoding the envelope with encoding/json cost 272 (283
// under -race). A no_warm_start repeat, which solves every probe cold,
// costs about 28,400 and fails it.
const sensitivityRepeatAllocsCeiling = 320

// TestSensitivityRepeatSpeedup pins what makes a repeat sensitivity
// query fast, in counters rather than a wall-clock ratio: every probe of
// a warm repeat is answered from the warm store
// (twca_sensitivity_warm_store_total{outcome="miss"} +0), no system is
// decoded (twca_system_decodes_total{source="decoded"} +0), and one
// warm repeat stays under sensitivityRepeatAllocsCeiling.
func TestSensitivityRepeatSpeedup(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	req := analyzeRequest{System: thalesJSON(t), Chain: "sigma_c",
		Sensitivity: &reqSensitivity{M: 5, K: 10, FrontierMaxK: 20}}

	if status, doc := post(t, ts.URL+"/v1/analyze/sensitivity", req); status != http.StatusOK {
		t.Fatalf("cold query = %d: %v", status, doc["error"])
	}
	series := []string{
		`twca_sensitivity_warm_store_total{outcome="miss"}`,
		`twca_system_decodes_total{source="decoded"}`,
	}
	cold := scrapeMetrics(t, ts.URL, series...)
	for i := 0; i < 3; i++ {
		if status, doc := post(t, ts.URL+"/v1/analyze/sensitivity", req); status != http.StatusOK {
			t.Fatalf("warm query = %d: %v", status, doc["error"])
		}
	}
	warm := scrapeMetrics(t, ts.URL, series...)
	for _, name := range series {
		if warm[name] != cold[name] {
			t.Errorf("%s moved from %v to %v over the warm repeats, want +0", name, cold[name], warm[name])
		}
	}

	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	allocs := testing.AllocsPerRun(20, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze/sensitivity", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("warm repeat = %d: %s", rec.Code, rec.Body)
		}
	})
	t.Logf("warm sensitivity repeat: %.0f allocs (ceiling %d)", allocs, sensitivityRepeatAllocsCeiling)
	if allocs > sensitivityRepeatAllocsCeiling {
		t.Errorf("warm sensitivity repeat allocates %.0f times, ceiling %d", allocs, sensitivityRepeatAllocsCeiling)
	}
}

// TestSensitivityProbeReuse: a second sensitivity query against the same
// system with a different constraint reuses the first query's probe
// analyses (same perturbed systems, same analysis options) through the
// process-wide warm store's exact-coordinate hits.
func TestSensitivityProbeReuse(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	base := analyzeRequest{System: thalesJSON(t), Chain: "sigma_c",
		Sensitivity: &reqSensitivity{M: 5, K: 10, Tasks: []string{"tau3c"}}}
	if status, doc := post(t, ts.URL+"/v1/analyze/sensitivity", base); status != http.StatusOK {
		t.Fatalf("first query = %d: %v", status, doc["error"])
	}
	warmBefore := svc.warm.Stats().Hits

	other := base
	other.Sensitivity = &reqSensitivity{M: 6, K: 12, Tasks: []string{"tau3c"}}
	if status, doc := post(t, ts.URL+"/v1/analyze/sensitivity", other); status != http.StatusOK {
		t.Fatalf("second query = %d: %v", status, doc["error"])
	}
	if warmAfter := svc.warm.Stats().Hits; warmAfter <= warmBefore {
		t.Errorf("second query reused no probe analyses (warm hits %d -> %d)", warmBefore, warmAfter)
	}

	// no_warm_start bypasses the store: no warm hit, the same analysis
	// body.
	warmBefore = svc.warm.Stats().Hits
	cold := base
	cold.Sensitivity = &reqSensitivity{M: 5, K: 10, Tasks: []string{"tau3c"}, NoWarmStart: true}
	if status, doc := post(t, ts.URL+"/v1/analyze/sensitivity", cold); status != http.StatusOK {
		t.Fatalf("no_warm_start query = %d: %v", status, doc["error"])
	} else if ws, ok := doc["warm_start"].(bool); !ok || ws {
		t.Errorf("no_warm_start response warm_start = %v, want false", doc["warm_start"])
	}
	if warmAfter := svc.warm.Stats().Hits; warmAfter != warmBefore {
		t.Errorf("no_warm_start query took %d warm-store hits, want 0", warmAfter-warmBefore)
	}
}

// TestSensitivityProbesTakeAdmissionSlots: every probe the warm store
// cannot answer takes an admission slot for its solve, so MaxInflight
// bounds the solves a sensitivity query runs however wide its probe
// batches fan out, and a warm repeat, which solves nothing, takes none.
// With the only slot held elsewhere, a cold query cannot solve and runs
// out its deadline, while a warm repeat still answers.
func TestSensitivityProbesTakeAdmissionSlots(t *testing.T) {
	svc, _ := newTestServer(t, Config{MaxInflight: 1})
	body, err := json.Marshal(analyzeRequest{System: thalesJSON(t), Chain: "sigma_c",
		Sensitivity: &reqSensitivity{M: 5, K: 10, Tasks: []string{"tau3c"}}})
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	serve := func(timeout time.Duration) *httptest.ResponseRecorder {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze/sensitivity", bytes.NewReader(body)).WithContext(ctx))
		return rec
	}

	if err := svc.gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rec := serve(100 * time.Millisecond); rec.Code == http.StatusOK {
		t.Errorf("cold query answered while every admission slot was held: %s", rec.Body)
	}
	svc.gate.Release()
	if rec := serve(time.Minute); rec.Code != http.StatusOK {
		t.Fatalf("cold query = %d: %s", rec.Code, rec.Body)
	}
	if n := svc.gate.InUse(); n != 0 {
		t.Errorf("%d admission slots still held after the query", n)
	}

	if err := svc.gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer svc.gate.Release()
	if rec := serve(10 * time.Second); rec.Code != http.StatusOK {
		t.Errorf("warm repeat = %d while the only slot was held, want 200 (it solves nothing): %s", rec.Code, rec.Body)
	}
}

func TestSensitivityErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	thales := thalesJSON(t)
	tests := []struct {
		name   string
		req    analyzeRequest
		status int
		kind   string
	}{
		{"missing block",
			analyzeRequest{System: thales, Chain: "sigma_c"},
			http.StatusBadRequest, "bad_request"},
		{"infeasible constraint",
			analyzeRequest{System: thales, Chain: "sigma_c", Sensitivity: &reqSensitivity{M: 2, K: 10}},
			http.StatusUnprocessableEntity, "infeasible_constraint"},
		{"invalid constraint",
			analyzeRequest{System: thales, Chain: "sigma_c", Sensitivity: &reqSensitivity{M: 10, K: 10}},
			http.StatusBadRequest, "invalid_options"},
		{"negative denominator",
			analyzeRequest{System: thales, Chain: "sigma_c", Sensitivity: &reqSensitivity{M: 5, K: 10, ScaleDenom: -1}},
			http.StatusBadRequest, "invalid_options"},
		{"unknown task",
			analyzeRequest{System: thales, Chain: "sigma_c", Sensitivity: &reqSensitivity{M: 5, K: 10, Tasks: []string{"nope"}}},
			http.StatusBadRequest, "invalid_options"},
		{"unknown chain",
			analyzeRequest{System: thales, Chain: "nope", Sensitivity: &reqSensitivity{M: 5, K: 10}},
			http.StatusNotFound, "no_chain"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			status, doc := post(t, ts.URL+"/v1/analyze/sensitivity", tt.req)
			if status != tt.status || doc["kind"] != tt.kind {
				t.Errorf("= (%d, kind %v), want (%d, %q); error: %v",
					status, doc["kind"], tt.status, tt.kind, doc["error"])
			}
		})
	}
}

// TestBaselineThroughDMM: the baseline option reaches the analysis and
// is part of the cache identity.
func TestBaselineThroughDMM(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	thales := thalesJSON(t)
	aware := analyzeRequest{System: thales, Chain: "sigma_d", K: []int64{10}}
	baseline := analyzeRequest{System: thales, Chain: "sigma_d", K: []int64{10},
		Options: reqOptions{Baseline: true}}

	_, awareDoc := post(t, ts.URL+"/v1/analyze/dmm", aware)
	status, baseDoc := post(t, ts.URL+"/v1/analyze/dmm", baseline)
	if status != http.StatusOK {
		t.Fatalf("baseline query = %d: %v", status, baseDoc["error"])
	}
	if baseDoc["cache"] != "miss" {
		t.Errorf("baseline after chain-aware = cache %v, want miss (distinct artifact)", baseDoc["cache"])
	}
	if b, a := baseDoc["wcl"].(float64), awareDoc["wcl"].(float64); b <= a {
		t.Errorf("baseline WCL %v should exceed chain-aware %v on sigma_d", b, a)
	}
}

// TestBaselineFlatShareArtifact: "baseline" and "flat" are two wire
// spellings of one analysis, so they share one cache entry — the second
// request is a hit and its document equals the first apart from the
// envelope.
func TestBaselineFlatShareArtifact(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	thales := thalesJSON(t)
	status, baseDoc := post(t, ts.URL+"/v1/analyze/dmm", analyzeRequest{System: thales, Chain: "sigma_d",
		K: []int64{10}, Options: reqOptions{Baseline: true}})
	if status != http.StatusOK || baseDoc["cache"] != "miss" {
		t.Fatalf("baseline = (%d, cache %v), want (200, miss)", status, baseDoc["cache"])
	}
	status, flatDoc := post(t, ts.URL+"/v1/analyze/dmm", analyzeRequest{System: thales, Chain: "sigma_d",
		K: []int64{10}, Options: reqOptions{Flat: true}})
	if status != http.StatusOK || flatDoc["cache"] != "hit" {
		t.Fatalf("flat after baseline = (%d, cache %v), want (200, hit)", status, flatDoc["cache"])
	}
	for _, doc := range []map[string]any{baseDoc, flatDoc} {
		delete(doc, "cache")
		delete(doc, "elapsed_ms")
	}
	if !reflect.DeepEqual(baseDoc, flatDoc) {
		t.Errorf("flat document differs from baseline:\n%v\n%v", flatDoc, baseDoc)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health["status"] != "ok" {
		t.Errorf("healthz = (%d, %v)", resp.StatusCode, health)
	}

	// Generate traffic, then check the exposition.
	req := analyzeRequest{System: thalesJSON(t), Chain: "sigma_c", K: []int64{10}}
	post(t, ts.URL+"/v1/analyze/dmm", req)
	post(t, ts.URL+"/v1/analyze/dmm", req)
	post(t, ts.URL+"/v1/analyze/dmm", analyzeRequest{System: thalesJSON(t), Chain: "nope"})
	post(t, ts.URL+"/v1/analyze/sensitivity", analyzeRequest{System: thalesJSON(t), Chain: "sigma_c",
		Sensitivity: &reqSensitivity{M: 5, K: 10, Tasks: []string{"tau3c"}}})

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, want := range []string{
		`twca_requests_total{endpoint="dmm",status="200"} 2`,
		`twca_requests_total{endpoint="dmm",status="404"} 1`,
		`twca_requests_total{endpoint="sensitivity",status="200"} 1`,
		"twca_cache_hit_ratio",
		"twca_ilp_nodes_total",
		"twca_analyses_inflight 0",
		`twca_analysis_duration_seconds_count{kind="dmm"}`,
		`twca_analysis_duration_seconds_count{kind="sensitivity"} 1`,
		"twca_sensitivity_bisection_steps_total",
		`twca_sensitivity_warm_store_total{outcome="miss"}`,
		"twca_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestMixedParallelQueries hammers every endpoint concurrently on the
// Thales case study; with -race this is the data-race gate for the
// cache, gate, and metrics paths.
func TestMixedParallelQueries(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInflight: 4})
	thales := thalesJSON(t)
	reqs := []struct {
		endpoint string
		req      analyzeRequest
	}{
		{"/v1/analyze/dmm", analyzeRequest{System: thales, Chain: "sigma_c", K: []int64{1, 3, 10}}},
		{"/v1/analyze/dmm", analyzeRequest{System: thales, Chain: "sigma_c", BreakpointsMaxK: 260}},
		{"/v1/analyze/latency", analyzeRequest{System: thales, Chain: "sigma_d"}},
		{"/v1/analyze/latency", analyzeRequest{System: thales, Chain: "sigma_c"}},
		{"/v1/verify", analyzeRequest{System: thales, Chain: "sigma_c", Constraints: []wireConstraint{{M: 5, K: 10}}}},
		{"/v1/analyze/sensitivity", analyzeRequest{System: thales, Chain: "sigma_c",
			Sensitivity: &reqSensitivity{M: 5, K: 10, Tasks: []string{"tau3c"}}}},
	}

	const workers, rounds = 8, 5
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				r := reqs[(w+i)%len(reqs)]
				status, doc := post(t, ts.URL+r.endpoint, r.req)
				if status != http.StatusOK {
					t.Errorf("worker %d %s = %d: %v", w, r.endpoint, status, doc["error"])
				}
				if i%2 == 0 {
					if resp, err := http.Get(ts.URL + "/metrics"); err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestConfigValidate(t *testing.T) {
	for _, cfg := range []Config{
		{CacheSize: -1}, {MaxInflight: -2}, {RequestTimeout: -time.Second}, {MaxBodyBytes: -1},
		{HeartbeatInterval: -time.Second}, // the prober has no off-mode
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted", cfg)
		}
	}
	if _, err := New(Config{}); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}

// TestConfigPeers: New normalizes Self and Peers into its own copy,
// never into the caller's slice, and rejects at start-up any peer URL
// that is not a bare http(s) base URL, instead of failing on every
// relay to it.
func TestConfigPeers(t *testing.T) {
	for _, c := range []struct {
		name  string
		self  string
		peers []string
		ok    bool
	}{
		{"trailing slashes", "http://a:1/", []string{"http://a:1/", "http://b:1/"}, true},
		{"schemeless peer", "http://a:1", []string{"http://a:1", "10.0.0.2:8443"}, false},
		{"schemeless self", "10.0.0.1:8443", []string{"10.0.0.1:8443", "http://b:1"}, false},
		{"peer with a path", "http://a:1", []string{"http://a:1", "http://b:1/v1"}, false},
		{"empty peer", "http://a:1", []string{"http://a:1", ""}, false},
		{"self not in peers", "http://c:1", []string{"http://a:1", "http://b:1"}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			peers := append([]string(nil), c.peers...)
			svc, err := New(Config{Self: c.self, Peers: peers, HeartbeatInterval: time.Hour})
			if !reflect.DeepEqual(peers, c.peers) {
				t.Errorf("New rewrote the caller's Peers: %q, was %q", peers, c.peers)
			}
			if !c.ok {
				if err == nil {
					svc.Close()
					t.Fatalf("New accepted Self %q, Peers %q", c.self, c.peers)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			if got, want := svc.store.Peers(), []string{"http://a:1", "http://b:1"}; !reflect.DeepEqual(got, want) {
				t.Errorf("ring peers = %q, want %q", got, want)
			}
			if got := svc.store.Self(); got != "http://a:1" {
				t.Errorf("ring self = %q, want http://a:1", got)
			}
		})
	}
}

// BenchmarkRepeatQuery measures the warm path end to end: HTTP round
// trip + cache hit + dmm re-evaluation from the memo.
func BenchmarkRepeatQuery(b *testing.B) {
	_, ts := newTestServer(b, Config{})
	req := analyzeRequest{System: thalesJSON(b), Chain: "sigma_c", K: []int64{1, 3, 10, 100}}
	body, _ := json.Marshal(req)
	if status, doc := post(b, ts.URL+"/v1/analyze/dmm", req); status != http.StatusOK {
		b.Fatalf("warmup = %d, %v", status, doc)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/analyze/dmm", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatal(resp.Status)
		}
	}
}
