package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"regexp"
	"strconv"
	"sync"
	"testing"

	"repro"
	"repro/internal/casestudy"
	"repro/internal/degrade"
	"repro/internal/faultinject"
)

// TestChaosSuite hammers an in-process server with hundreds of
// randomized requests while the fault-injection harness fires panics,
// errors and budget exhaustions at every compiled-in seam, and asserts
// the robustness contract end to end:
//
//   - the process never dies (an injected panic becomes a 500, not a
//     crash);
//   - no response ever reports a bound on the wrong side of the exact
//     value (degraded ≥ exact, and anything tagged "exact" IS exact);
//   - every degraded result is tagged with quality + budget and is
//     counted in /metrics, and a response advertises Retry-After exactly
//     when one of its degraded results has a budget a retry can escape
//     (one degrade.Info.Reproducible rejects);
//   - a request whose exact artifact is cached is always answered
//     exactly, no matter how the faults interleave.
//
// The request stream and the fault pattern are both deterministic
// (seeded PRNG, counter-addressed rules), so a failure replays. Arms
// the process-global harness: no t.Parallel().
func TestChaosSuite(t *testing.T) {
	defer faultinject.Disarm()
	faultinject.Disarm() // no leftovers from a prior test

	requests := 520
	if testing.Short() {
		requests = 150
	}

	// Ground truth, computed with the library before any fault is armed.
	sys := casestudy.New()
	ctx := context.Background()
	ks := []int64{1, 3, 10, 100}
	truths := map[string]map[int64]int64{}
	for _, chain := range []string{"sigma_c", "sigma_d"} {
		an, err := repro.AnalysisRequest{System: sys, Chain: chain}.DMM(ctx)
		if err != nil {
			t.Fatal(err)
		}
		truths[chain] = map[int64]int64{}
		for _, k := range ks {
			r, err := an.DMMCtx(ctx, k)
			if err != nil {
				t.Fatal(err)
			}
			truths[chain][k] = r.Value
		}
	}

	// Sensitivity ground truth: the exact uniform WCET slack for every
	// constraint in the request pool, computed before any fault is
	// armed. A 200 "exact" sensitivity response must report exactly this
	// scale no matter how warm-store outages interleave, and a degraded
	// one must never claim MORE slack (the wrong side).
	sensTruths := map[string]int64{}
	for _, c := range []repro.Constraint{{M: 5, K: 10}, {M: 7, K: 10}, {M: 9, K: 10}} {
		res, err := repro.AnalysisRequest{System: sys, Chain: "sigma_c"}.Sensitivity(ctx,
			repro.SensitivityOptions{Constraint: c, Tasks: []string{"tau1c"}})
		if err != nil {
			t.Fatal(err)
		}
		sensTruths[strconv.FormatInt(c.M, 10)+"|"+strconv.FormatInt(c.K, 10)] = res.Uniform.Scale
	}

	_, ts := newTestServer(t, Config{})
	thales := thalesJSON(t)

	// Warm one exact artifact; the suite later asserts this fingerprint
	// is never answered with anything but the exact cached result.
	warm := analyzeRequest{System: thales, Chain: "sigma_c", K: ks}
	if status, doc, _ := postHdr(t, ts.URL+"/v1/analyze/dmm", warm); status != 200 || doc["quality"] != "exact" {
		t.Fatalf("warmup = (%d, %v)", status, doc["quality"])
	}

	// Rates are tuned to the traffic each seam actually sees: the cache
	// and busy-window seams run once per cold flight, the ILP seam once
	// per solve (plus every 4096 nodes), the worker seam only inside
	// sensitivity fan-outs.
	if err := faultinject.Configure([]faultinject.Rule{
		{Point: faultinject.PointWorkerTask, Action: faultinject.ActionPanic, Every: 5, Seed: 11},
		{Point: faultinject.PointWorkerTask, Action: faultinject.ActionError, Every: 7, Seed: 12},
		{Point: faultinject.PointILPBranch, Action: faultinject.ActionBudget, Every: 2, Seed: 13},
		{Point: faultinject.PointILPBranch, Action: faultinject.ActionError, Every: 9, Seed: 14},
		{Point: faultinject.PointBusyWindow, Action: faultinject.ActionBudget, Every: 5, Seed: 15},
		{Point: faultinject.PointServiceCache, Action: faultinject.ActionPanic, Every: 11, Seed: 16},
		{Point: faultinject.PointServiceCache, Action: faultinject.ActionError, Every: 13, Seed: 17},
		{Point: faultinject.PointSensitivityProbe, Action: faultinject.ActionBudget, Every: 6, Seed: 18},
		{Point: faultinject.PointSensitivityWarmStore, Action: faultinject.ActionError, Every: 3, Seed: 19},
		{Point: faultinject.PointSensitivityWarmStore, Action: faultinject.ActionBudget, Every: 5, Seed: 20},
	}); err != nil {
		t.Fatal(err)
	}

	var (
		mu             sync.Mutex
		degradedPoints int64 // client-observed degraded results
		workerPanics   int64 // client-observed worker_panic 500s
		retryInvited   int64 // degraded responses with Retry-After
		retryWithheld  int64 // degraded responses without it
		statuses       = map[int]int{}
	)

	// check asserts the invariants on one response and updates the
	// client-side tallies the /metrics cross-check uses.
	check := func(endpoint string, chain string, status int, doc map[string]any, hdr http.Header) {
		mu.Lock()
		statuses[status]++
		mu.Unlock()
		switch status {
		case http.StatusOK:
		case http.StatusInternalServerError:
			kind, _ := doc["kind"].(string)
			if kind != "injected" && kind != "worker_panic" {
				t.Errorf("%s: 500 with kind %q (err %v), want injected or worker_panic", endpoint, kind, doc["error"])
			}
			if kind == "worker_panic" {
				mu.Lock()
				workerPanics++
				mu.Unlock()
			}
			return
		default:
			t.Errorf("%s: unexpected status %d (kind %v, err %v)", endpoint, status, doc["kind"], doc["error"])
			return
		}
		degradedHere := int64(0)
		transient := false // a degraded result has a non-reproducible budget
		noteBudget := func(budget any) {
			b, _ := budget.(string)
			transient = transient || !(degrade.Info{Budget: b}).Reproducible()
		}
		switch endpoint {
		case "dmm":
			for _, p := range doc["dmm"].([]any) {
				pt := p.(map[string]any)
				k := int64(pt["k"].(float64))
				v := int64(pt["dmm"].(float64))
				exact, known := truths[chain][k]
				q, _ := pt["quality"].(string)
				switch q {
				case "exact":
					if known && v != exact {
						t.Errorf("dmm(%s, %d) tagged exact = %d, truth %d", chain, k, v, exact)
					}
				case "safe-upper-bound", "trivial":
					degradedHere++
					noteBudget(pt["budget"])
					if known && v < exact {
						t.Errorf("degraded dmm(%s, %d) = %d undercuts exact %d (wrong-side bound)", chain, k, v, exact)
					}
					if v > k {
						t.Errorf("degraded dmm(%s, %d) = %d exceeds k", chain, k, v)
					}
				default:
					t.Errorf("dmm(%s, %d): missing quality tag %q", chain, k, q)
				}
			}
		case "verify":
			for _, r := range doc["results"].([]any) {
				res := r.(map[string]any)
				k := int64(res["k"].(float64))
				v := int64(res["dmm"].(float64))
				exact, known := truths[chain][k]
				if q, _ := res["quality"].(string); q != "exact" {
					degradedHere++
					noteBudget(res["budget"])
				} else if known && v != exact {
					t.Errorf("verify(%s, k=%d) tagged exact = %d, truth %d", chain, k, v, exact)
				}
				if known && v < exact {
					t.Errorf("verify(%s, k=%d) = %d undercuts exact %d", chain, k, v, exact)
				}
				if res["holds"] == true && v > int64(res["m"].(float64)) {
					t.Errorf("verify(%s) holds with dmm %d > m %v", chain, v, res["m"])
				}
			}
		case "latency":
			if q, _ := doc["quality"].(string); q != "exact" {
				degradedHere++
				noteBudget(doc["budget"])
			}
		case "sensitivity":
			q, _ := doc["quality"].(string)
			if q != "exact" {
				degradedHere++
				noteBudget(doc["budget"])
			}
			// Warm-store outages must be invisible in the answer: exact
			// responses match the pre-fault ground truth, degraded ones
			// may only claim LESS slack.
			m := int64(doc["m"].(float64))
			k := int64(doc["k"].(float64))
			if exact, known := sensTruths[strconv.FormatInt(m, 10)+"|"+strconv.FormatInt(k, 10)]; known {
				scale := int64(doc["uniform_scale"].(float64))
				if q == "exact" && scale != exact {
					t.Errorf("sensitivity(m=%d,k=%d) tagged exact: uniform_scale = %d, truth %d", m, k, scale, exact)
				}
				if scale > exact {
					t.Errorf("sensitivity(m=%d,k=%d) claims slack %d beyond exact %d (wrong-side bound)", m, k, scale, exact)
				}
			}
		}
		if degradedHere > 0 {
			mu.Lock()
			degradedPoints += degradedHere
			if transient {
				retryInvited++
			} else {
				retryWithheld++
			}
			mu.Unlock()
		}
		if got := hdr.Get("Retry-After") != ""; got != transient {
			t.Errorf("%s: Retry-After present = %v, want %v (set iff a degraded result has a non-reproducible budget)",
				endpoint, got, transient)
		}
	}

	rng := rand.New(rand.NewSource(0xC0FFEE))
	chains := []string{"sigma_c", "sigma_d"}
	kPool := [][]int64{{1, 3, 10, 100}, {10}, {1, 100}, {3, 10}}
	combos := []int{0, 0, 0, 1, 200}
	// Varying MaxQ spreads the stream over distinct option fingerprints
	// so a healthy share of requests are cold flights that actually
	// cross the injection seams (the values are all above the case
	// study's K_b, so they do not change any result).
	maxQs := []int64{0, 2048, 1024}
	// All feasible on sigma_c (dmm(10) = 5), so only injected faults can
	// fail these queries.
	sensPool := []reqSensitivity{{M: 5, K: 10}, {M: 7, K: 10}, {M: 9, K: 10}}
	overloaded := "system bad\nchain c periodic(10) deadline(10) { t prio 1 wcet 20 }\n"

	for i := 0; i < requests; i++ {
		switch d := rng.Intn(100); {
		case d < 8: // the warmed fingerprint: must stay exact forever
			status, doc, _ := postHdr(t, ts.URL+"/v1/analyze/dmm", warm)
			if status != 200 || doc["quality"] != "exact" || doc["cache"] != "hit" {
				t.Fatalf("request %d: warmed exact fingerprint answered (%d, quality %v, cache %v)",
					i, status, doc["quality"], doc["cache"])
			}
		case d < 60:
			chain := chains[rng.Intn(len(chains))]
			req := analyzeRequest{System: thales, Chain: chain, K: kPool[rng.Intn(len(kPool))],
				Options: reqOptions{MaxCombinations: combos[rng.Intn(len(combos))], MaxQ: maxQs[rng.Intn(len(maxQs))]}}
			status, doc, hdr := postHdr(t, ts.URL+"/v1/analyze/dmm", req)
			check("dmm", chain, status, doc, hdr)
		case d < 75:
			chain := chains[rng.Intn(len(chains))]
			req := analyzeRequest{System: thales, Chain: chain,
				Constraints: []wireConstraint{{M: 5, K: 10}, {M: 1, K: 3}},
				Options:     reqOptions{MaxCombinations: combos[rng.Intn(len(combos))]}}
			status, doc, hdr := postHdr(t, ts.URL+"/v1/verify", req)
			check("verify", chain, status, doc, hdr)
		case d < 95:
			var req analyzeRequest
			if rng.Intn(3) == 0 {
				req = analyzeRequest{SystemDSL: overloaded, Chain: "c"}
			} else {
				req = analyzeRequest{System: thales, Chain: chains[rng.Intn(len(chains))]}
			}
			status, doc, hdr := postHdr(t, ts.URL+"/v1/analyze/latency", req)
			check("latency", req.Chain, status, doc, hdr)
		default:
			sens := sensPool[rng.Intn(len(sensPool))]
			sens.Tasks = []string{"tau1c"}
			req := analyzeRequest{System: thales, Chain: "sigma_c",
				Sensitivity: &sens}
			status, doc, hdr := postHdr(t, ts.URL+"/v1/analyze/sensitivity", req)
			check("sensitivity", "sigma_c", status, doc, hdr)
		}
	}

	// Concurrent burst: the same invariants hold under contention (run
	// with -race via make chaos).
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			chain := chains[w%len(chains)]
			req := analyzeRequest{System: thales, Chain: chain, K: kPool[w%len(kPool)],
				Options: reqOptions{MaxCombinations: combos[w%len(combos)]}}
			body, _ := json.Marshal(req)
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
			check("dmm", chain, resp.StatusCode, doc, resp.Header)
		}(w)
	}
	wg.Wait()

	if statuses[http.StatusOK] == 0 {
		t.Fatal("no request succeeded — the ladder never engaged")
	}
	t.Logf("chaos: %d requests, statuses %v, degraded results %d, worker panics %d, Retry-After invited/withheld %d/%d, fires %v",
		requests+32+1, statuses, degradedPoints, workerPanics, retryInvited, retryWithheld, faultinject.FireCounts())
	if retryInvited == 0 || retryWithheld == 0 {
		t.Errorf("Retry-After invited on %d and withheld on %d degraded responses; the stream must exercise both",
			retryInvited, retryWithheld)
	}

	// The server survived (it answered the whole stream); cross-check
	// the degradation accounting against /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(raw)
	sum := func(re *regexp.Regexp) int64 {
		var n int64
		for _, m := range re.FindAllStringSubmatch(metrics, -1) {
			v, err := strconv.ParseInt(m[1], 10, 64)
			if err != nil {
				t.Fatalf("bad metric value %q", m[1])
			}
			n += v
		}
		return n
	}
	gotDegraded := sum(regexp.MustCompile(`twca_degraded_results_total\{budget="[^"]*"\} (\d+)`))
	if gotDegraded != degradedPoints {
		t.Errorf("twca_degraded_results_total = %d, client observed %d degraded results", gotDegraded, degradedPoints)
	}
	gotPanics := sum(regexp.MustCompile(`twca_worker_panics_total (\d+)`))
	if gotPanics != workerPanics {
		t.Errorf("twca_worker_panics_total = %d, client observed %d worker_panic responses", gotPanics, workerPanics)
	}
}

// TestChaosPerPolicy runs one injected-fault round per analyzable
// scheduling policy: under budget exhaustion and injected errors, a 200
// answer must never report a bound below that policy's own exact value
// (wrong-side), and anything tagged "exact" must BE that policy's exact
// value. The simulation-only jcl policy must keep answering 422, faults
// or not. Arms the process-global harness: no t.Parallel().
func TestChaosPerPolicy(t *testing.T) {
	defer faultinject.Disarm()
	faultinject.Disarm()

	sys := casestudy.New()
	ctx := context.Background()
	ks := []int64{1, 10, 100}

	// Per-policy ground truth before any fault is armed. The truths
	// differ between policies (np-spp and edf analyze on the flat
	// structure, np-spp adds blocking), so each round checks against its
	// own column.
	policies := []string{"spp", "np-spp", "edf"}
	truths := map[string]map[int64]int64{}
	for _, pol := range policies {
		an, err := repro.AnalysisRequest{System: sys, Chain: "sigma_c",
			Options: repro.Options{Policy: pol}}.DMM(ctx)
		if err != nil {
			t.Fatal(err)
		}
		truths[pol] = map[int64]int64{}
		for _, k := range ks {
			r, err := an.DMMCtx(ctx, k)
			if err != nil {
				t.Fatal(err)
			}
			truths[pol][k] = r.Value
		}
	}

	_, ts := newTestServer(t, Config{})
	thales := thalesJSON(t)

	if err := faultinject.Configure([]faultinject.Rule{
		{Point: faultinject.PointILPBranch, Action: faultinject.ActionBudget, Every: 2, Seed: 31},
		{Point: faultinject.PointBusyWindow, Action: faultinject.ActionBudget, Every: 3, Seed: 32},
		{Point: faultinject.PointServiceCache, Action: faultinject.ActionError, Every: 5, Seed: 33},
	}); err != nil {
		t.Fatal(err)
	}

	for _, pol := range policies {
		// Vary MaxQ to spread fingerprints, as the main suite does: every
		// value exceeds the case study's K_b, so results are unaffected.
		for round, maxQ := range []int64{0, 2048, 1024} {
			req := analyzeRequest{System: thales, Chain: "sigma_c", K: ks,
				Options: reqOptions{Policy: pol, MaxQ: maxQ}}
			status, doc, _ := postHdr(t, ts.URL+"/v1/analyze/dmm", req)
			switch status {
			case http.StatusOK:
			case http.StatusInternalServerError:
				if kind, _ := doc["kind"].(string); kind != "injected" && kind != "worker_panic" {
					t.Errorf("%s round %d: 500 with kind %q, want injected", pol, round, kind)
				}
				continue
			default:
				t.Errorf("%s round %d: unexpected status %d (kind %v)", pol, round, status, doc["kind"])
				continue
			}
			if got, _ := doc["policy"].(string); got != pol {
				t.Errorf("%s round %d: response policy = %q", pol, round, got)
			}
			for _, p := range doc["dmm"].([]any) {
				pt := p.(map[string]any)
				k := int64(pt["k"].(float64))
				v := int64(pt["dmm"].(float64))
				exact := truths[pol][k]
				switch q, _ := pt["quality"].(string); q {
				case "exact":
					if v != exact {
						t.Errorf("%s round %d: dmm(%d) tagged exact = %d, truth %d", pol, round, k, v, exact)
					}
				case "safe-upper-bound", "trivial":
					if v < exact {
						t.Errorf("%s round %d: degraded dmm(%d) = %d undercuts exact %d (wrong-side bound)",
							pol, round, k, v, exact)
					}
				default:
					t.Errorf("%s round %d: dmm(%d) missing quality tag", pol, round, k)
				}
			}
		}
	}

	// The jcl rejection path survived the fault rounds: once the faults
	// are disarmed, the typed 422 is back verbatim (a round may also see
	// it preempted by an injected cache fault, which is fine — the
	// contract is that it never turns into a wrong-side 200).
	faultinject.Disarm()
	status, doc, _ := postHdr(t, ts.URL+"/v1/analyze/dmm",
		analyzeRequest{System: thales, Chain: "sigma_c", K: ks, Options: reqOptions{Policy: "jcl"}})
	if status != http.StatusUnprocessableEntity || doc["kind"] != "policy_unsupported" {
		t.Errorf("jcl after fault rounds = (%d, kind %v), want (422, policy_unsupported)", status, doc["kind"])
	}
}
