package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/casestudy"
	"repro/internal/degrade"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/twca"
)

// TestDMMDocSplice pins the dmm response encoding: a retained dmmDoc
// head completed by appendDMMTail is byte-for-byte
// MarshalIndent(dmmResponse)+"\n", what writeJSON writes for the whole
// document, for every cache state and a range of elapsed times; and
// appendDMMLine writes the campaign line json.Encoder writes for the
// document.
func TestDMMDocSplice(t *testing.T) {
	type docCase struct {
		name  string
		sys   *model.System
		chain string
		opts  twca.Options
		ks    []int64
		bpMax int64
	}
	// The golden documents (plain and degraded), the service's default
	// points, wide breakpoint sweeps, and every regular chain of a few
	// generated systems, exact and degraded (a combination cap of 1
	// sends a construction to the omega-sum rung).
	omegaSum := twca.Options{MaxCombinations: 1, Degrade: degrade.Policy{Allow: true}}
	cs := casestudy.New()
	cases := []docCase{
		{"golden", cs, "sigma_c", twca.Options{}, []int64{1, 3, 10, 100}, 260},
		{"golden-degraded", cs, "sigma_c", omegaSum, []int64{1, 3, 10, 100}, 0},
		{"defaults", cs, "sigma_c", twca.Options{}, []int64{1, 10, 100}, 0},
		{"sweep", cs, "sigma_c", twca.Options{}, nil, 10000},
		{"sweep-degraded", cs, "sigma_c", omegaSum, nil, 1000},
		{"sigma_d", cs, "sigma_d", twca.Options{}, []int64{1, 10}, 500},
	}
	for seed := int64(1); seed <= 4; seed++ {
		sys, err := gen.Random(rand.New(rand.NewSource(seed)), gen.Params{OverloadChains: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range sys.RegularChains() {
			cases = append(cases,
				docCase{"gen-" + c.Name, sys, c.Name, twca.Options{}, []int64{1, 7, 100}, 200},
				docCase{"gen-degraded-" + c.Name, sys, c.Name, omegaSum, []int64{2, 50}, 0})
		}
	}
	ctx := context.Background()
	states := []string{store.OutcomeHit, store.OutcomeMiss, store.OutcomeCoalesced, store.OutcomePeer}
	elapsed := []float64{0, 0.001, 0.999, 1.5, 12.345, 999.999, 86_400_000}
	for _, c := range cases {
		an, err := twca.New(c.sys, c.sys.ChainByName(c.chain), c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		doc, _, err := schema.FromAnalysisStats(ctx, an, c.ks, c.bpMax)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		hash, err := model.CanonicalHash(c.sys)
		if err != nil {
			t.Fatal(err)
		}
		head := encodeDMMHead(doc, hash)
		if cap(head) != len(head) {
			t.Errorf("%s: head of %d bytes retains capacity %d", c.name, len(head), cap(head))
		}
		for _, state := range states {
			for _, ms := range elapsed {
				want, err := json.MarshalIndent(dmmResponse{dmmHead{doc, hash}, state, ms}, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, '\n')
				if got := appendDMMTail(slices.Clip(head), state, ms); !bytes.Equal(got, want) {
					t.Fatalf("%s, cache %s, %v ms: spliced\n%s\nwant\n%s", c.name, state, ms, got, want)
				}
			}
		}
		for i, id := range []string{"", "item-7", "<a&b>\u2028\"\xff"} {
			for _, state := range states {
				line := schema.CampaignLine{SchemaVersion: schema.Version, Index: i, ID: id,
					Kind: schema.CampaignKindDMM, SystemHash: hash, Cache: state}
				got := appendDMMLine(nil, &line, head)
				line.Analysis = &doc
				var want bytes.Buffer
				if err := json.NewEncoder(&want).Encode(line); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("%s, id %q, cache %s: campaign line\n%s\nwant\n%s", c.name, id, state, got, want.Bytes())
				}
			}
		}
	}
}

// TestColdDMMDocAllocs gates the cold-sweep document on allocations,
// which do not depend on the host: a fresh σc analysis under the
// service's default options, schema.FromAnalysisStats over the
// cold-sweep's 80 log-spaced k in [2, 1.6e5], and the head encode. It
// measures 236 on go1.24 linux/amd64, also under -race; the ceiling
// leaves about 25% headroom. An Ω map per point, a reflected head
// encode and two allocations per memoized solve cost 556 (608).
func TestColdDMMDocAllocs(t *testing.T) {
	sys := casestudy.New()
	hash, err := model.CanonicalHash(sys)
	if err != nil {
		t.Fatal(err)
	}
	var sweep []int64
	for i := 0; i < 80; i++ {
		sweep = append(sweep, int64(math.Round(2*math.Pow(80_000, float64(i)/79))))
	}
	opts := reqOptions{}.twca()
	allocs := testing.AllocsPerRun(3, func() {
		an, err := twca.New(sys, sys.ChainByName("sigma_c"), opts)
		if err != nil {
			t.Fatal(err)
		}
		doc, _, err := schema.FromAnalysisStats(context.Background(), an, sweep, 0)
		if err != nil {
			t.Fatal(err)
		}
		encodeDMMHead(doc, hash)
	})
	const ceiling = 295
	t.Logf("%.0f allocs (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("the cold-sweep document allocates %.0f times, ceiling %d", allocs, ceiling)
	}
}

// FuzzDMMHead pins the head appender to encoding/json: for any chain,
// policy, trivial, quality, budget and error strings and any Ω names
// and values, encodeDMMHead writes the bytes json.MarshalIndent writes
// for a mirror of dmmHead that holds Ω as a map and has no Marshaler
// anywhere, cut at the closing "\n}", in a buffer of exactly their
// length. The points' Ω come sorted, as FromAnalysisStats makes them.
func FuzzDMMHead(f *testing.F) {
	f.Add("sigma_c", "spp", "", "exact", "", "", "sigma_a", "sigma_b", int64(3), int64(9223372036854775807))
	f.Add("chain0", "edf", "schedulable", "safe-upper-bound", "ilp-nodes", "", "irq", "irq", int64(-9223372036854775808), int64(0))
	f.Add("<b>", "np&spp", "a\u2028b", `"q"`, `back\slash`, "boom: \x00", "\xff", "é", int64(-1), int64(42))
	f.Add("", "", "\x7f", "", "\xc3\x28", "<script>", "", "&", int64(5), int64(5))
	f.Fuzz(func(t *testing.T, chain, pol, trivial, quality, budget, errText, a, b string, x, y int64) {
		type mirrorPoint struct {
			K       int64            `json:"k"`
			DMM     int64            `json:"dmm"`
			Exact   bool             `json:"exact"`
			Trivial string           `json:"trivial,omitempty"`
			Omega   map[string]int64 `json:"omega,omitempty"`
			Quality string           `json:"quality"`
			Budget  string           `json:"budget,omitempty"`
		}
		type mirrorHead struct {
			SchemaVersion      int           `json:"schema_version"`
			Chain              string        `json:"chain"`
			Policy             string        `json:"policy"`
			Deadline           int64         `json:"deadline"`
			WCL                int64         `json:"wcl"`
			Schedulable        bool          `json:"schedulable"`
			TypicalSchedulable bool          `json:"typical_schedulable"`
			MinSlack           int64         `json:"min_slack"`
			Combinations       int           `json:"combinations"`
			Unschedulable      int           `json:"unschedulable_combinations"`
			DMM                []mirrorPoint `json:"dmm,omitempty"`
			Breakpoints        []mirrorPoint `json:"breakpoints,omitempty"`
			Error              string        `json:"error,omitempty"`
			Quality            string        `json:"quality"`
			Budget             string        `json:"budget,omitempty"`
			SystemHash         string        `json:"system_hash"`
		}
		omega := map[string]int64{a: x, b: y}
		names := []string{a, b}
		slices.Sort(names)
		sorted := schema.Omega{{Name: names[0], Value: omega[names[0]]}}
		if names[1] != names[0] {
			sorted = append(sorted, twca.OmegaEntry{Name: names[1], Value: omega[names[1]]})
		}
		points := []struct {
			p schema.DMMPoint
			m mirrorPoint
		}{
			{schema.DMMPoint{K: x, DMM: y, Exact: x > y, Trivial: trivial, Omega: sorted, Quality: quality, Budget: budget},
				mirrorPoint{K: x, DMM: y, Exact: x > y, Trivial: trivial, Omega: omega, Quality: quality, Budget: budget}},
			{schema.DMMPoint{K: 1, Quality: quality},
				mirrorPoint{K: 1, Quality: quality}},
			{schema.DMMPoint{K: y, DMM: x, Exact: true, Omega: sorted[:1], Quality: "exact"},
				mirrorPoint{K: y, DMM: x, Exact: true, Omega: map[string]int64{sorted[0].Name: sorted[0].Value}, Quality: "exact"}},
		}
		for shape := 0; shape < 4; shape++ {
			doc := schema.Analysis{
				SchemaVersion: schema.Version, Chain: chain, Policy: pol,
				Deadline: x, WCL: y, Schedulable: x < y, TypicalSchedulable: x != y,
				MinSlack: x ^ y, Combinations: int(x % 1000), Unschedulable: int(y % 1000),
				Error: errText, Quality: quality, Budget: budget,
			}
			mirror := mirrorHead{
				SchemaVersion: doc.SchemaVersion, Chain: chain, Policy: pol,
				Deadline: x, WCL: y, Schedulable: x < y, TypicalSchedulable: x != y,
				MinSlack: x ^ y, Combinations: doc.Combinations, Unschedulable: doc.Unschedulable,
				Error: errText, Quality: quality, Budget: budget, SystemHash: chain + pol,
			}
			// Bit 0 adds dmm points, bit 1 breakpoints.
			for i, pt := range points {
				if shape&1 != 0 {
					doc.DMM = append(doc.DMM, pt.p)
					mirror.DMM = append(mirror.DMM, pt.m)
				}
				if shape&2 != 0 && i != 1 {
					doc.Breakpoints = append(doc.Breakpoints, pt.p)
					mirror.Breakpoints = append(mirror.Breakpoints, pt.m)
				}
			}
			want, err := json.MarshalIndent(mirror, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			want = want[:len(want)-len("\n}")]
			got := encodeDMMHead(doc, chain+pol)
			if !bytes.Equal(got, want) {
				t.Fatalf("shape %d: head\n%s\nwant\n%s", shape, got, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("shape %d: head of %d bytes has capacity %d", shape, len(got), cap(got))
			}
		}
	})
}

// TestDMMResponseBytes checks the handler's own bytes, cold and warm:
// each dmm response re-encodes, through dmmResponse, to exactly itself.
func TestDMMResponseBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, req := range []analyzeRequest{
		{System: thalesJSON(t), Chain: "sigma_c", K: []int64{1, 3, 10, 100}, BreakpointsMaxK: 260},
		{System: thalesJSON(t), Chain: "sigma_c", K: []int64{1, 3, 10, 100}, Options: reqOptions{MaxCombinations: 1}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{store.OutcomeMiss, store.OutcomeHit} {
			resp, err := http.Post(ts.URL+"/v1/analyze/dmm", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
				t.Fatalf("dmm = %d (%s): %s", resp.StatusCode, resp.Header.Get("Content-Type"), got)
			}
			var doc dmmResponse
			if err := json.Unmarshal(got, &doc); err != nil {
				t.Fatal(err)
			}
			if doc.Cache != want {
				t.Errorf("cache = %q, want %q", doc.Cache, want)
			}
			again, err := json.MarshalIndent(doc, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if again = append(again, '\n'); !bytes.Equal(got, again) {
				t.Errorf("response\n%s\nre-encodes to\n%s", got, again)
			}
		}
	}
}

// TestTrailingDataRejected: every endpoint that decodes a JSON body
// answers 400 bad_request when anything but whitespace follows the
// value, and still accepts trailing whitespace.
func TestTrailingDataRejected(t *testing.T) {
	svc, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	h := svc.Handler()
	sys := thalesJSON(t)
	valid := func(v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, c := range []struct{ path, body string }{
		{"/v1/analyze/dmm", valid(analyzeRequest{System: sys, Chain: "sigma_c", K: []int64{1, 10}})},
		{"/v1/analyze/latency", valid(analyzeRequest{System: sys, Chain: "sigma_c"})},
		{"/v1/verify", valid(analyzeRequest{System: sys, Chain: "sigma_c", Constraints: []wireConstraint{{M: 1, K: 2}}})},
		{"/v1/analyze/sensitivity", valid(analyzeRequest{System: sys, Chain: "sigma_c", Sensitivity: &reqSensitivity{M: 5, K: 10}})},
		{"/v1/campaign", valid(campaignRequest{Items: []campaignItem{{analyzeRequest: analyzeRequest{System: sys, Chain: "sigma_c", K: []int64{1}}}}})},
	} {
		for _, tail := range []string{` {"chain":"x"} garbage`, `{}`, `}`, `garbage`, "\n\x00"} {
			rec := serveBody(h, c.path, c.body+tail)
			var e errorResponse
			if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Kind != "bad_request" {
				t.Errorf("%s with trailing %q = %d: %s, want 400 bad_request", c.path, tail, rec.Code, rec.Body)
			}
		}
		if rec := serveBody(h, c.path, c.body+" \t\r\n"); rec.Code != http.StatusOK {
			t.Errorf("%s with trailing whitespace = %d: %s, want 200", c.path, rec.Code, rec.Body)
		}
	}
}

// serveBody posts body to path through h.
func serveBody(h http.Handler, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}
