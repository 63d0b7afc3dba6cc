package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

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
// decodeDMMHead gives the campaign path back the document it was
// encoded from.
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
		head, err := encodeDMMHead(doc, hash)
		if err != nil {
			t.Fatal(err)
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
		back, err := decodeDMMHead(head)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		a, _ := json.Marshal(doc)
		b, _ := json.Marshal(back)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: decoded head\n%s\nwant\n%s", c.name, b, a)
		}
	}
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
	handler := func(cfg Config) http.Handler {
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
		return svc.Handler()
	}
	h := handler(Config{})
	// Membership mutations need a fleet identity; local_only keeps the
	// accepted join from propagating to the (unreachable) peers.
	fleet := handler(Config{Self: "http://a", Peers: []string{"http://a", "http://b"}, HeartbeatInterval: time.Hour})
	sys := thalesJSON(t)
	valid := func(v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, c := range []struct {
		h          http.Handler
		path, body string
	}{
		{h, "/v1/analyze/dmm", valid(analyzeRequest{System: sys, Chain: "sigma_c", K: []int64{1, 10}})},
		{h, "/v1/analyze/latency", valid(analyzeRequest{System: sys, Chain: "sigma_c"})},
		{h, "/v1/verify", valid(analyzeRequest{System: sys, Chain: "sigma_c", Constraints: []wireConstraint{{M: 1, K: 2}}})},
		{h, "/v1/analyze/sensitivity", valid(analyzeRequest{System: sys, Chain: "sigma_c", Sensitivity: &reqSensitivity{M: 5, K: 10}})},
		{h, "/v1/campaign", valid(campaignRequest{Items: []campaignItem{{analyzeRequest: analyzeRequest{System: sys, Chain: "sigma_c", K: []int64{1}}}}})},
		{fleet, "/v1/cluster/join", `{"peer": "http://c", "local_only": true}`},
	} {
		for _, tail := range []string{` {"chain":"x"} garbage`, `{}`, `}`, `garbage`, "\n\x00"} {
			rec := serveBody(c.h, c.path, c.body+tail)
			var e errorResponse
			if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Kind != "bad_request" {
				t.Errorf("%s with trailing %q = %d: %s, want 400 bad_request", c.path, tail, rec.Code, rec.Body)
			}
		}
		if rec := serveBody(c.h, c.path, c.body+" \t\r\n"); rec.Code != http.StatusOK {
			t.Errorf("%s with trailing whitespace = %d: %s, want 200", c.path, rec.Code, rec.Body)
		}
	}
}

// serveBody posts body to path from loopback through h.
func serveBody(h http.Handler, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.RemoteAddr = "127.0.0.1:9"
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}
