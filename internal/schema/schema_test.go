package schema_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/casestudy"
	"repro/internal/degrade"
	"repro/internal/latency"
	"repro/internal/schema"
	"repro/internal/sensitivity"
	"repro/internal/twca"
	"repro/internal/weaklyhard"
)

var update = flag.Bool("update", false, "rewrite golden files")

// golden compares got (marshaled with two-space indentation and a
// trailing newline, the format both twca-serve and twca-analyze -json
// emit) against testdata/<name>.golden.json.
func golden(t *testing.T, name string, got any) {
	t.Helper()
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatalf("marshal %s: %v", name, err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", name+".golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("%s: wire format drifted from golden file.\n"+
			"If the change is intentional, bump schema.Version and regenerate with -update.\ngot:\n%s\nwant:\n%s",
			name, data, want)
	}
}

func TestGoldenWireFormat(t *testing.T) {
	sys := casestudy.New()

	lat, err := latency.Analyze(sys, sys.ChainByName("sigma_d"), latency.Options{})
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "latency_sigma_d", schema.FromLatency(lat))

	an, err := twca.New(sys, sys.ChainByName("sigma_c"), twca.Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := schema.FromAnalysis(context.Background(), an, []int64{1, 3, 10, 100}, 260)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "analysis_sigma_c", doc)

	rep, err := schema.FromSystem(context.Background(), sys, twca.Options{}, []int64{1, 3, 10, 100}, 0)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "report_thales", rep)

	sres, err := sensitivity.Engine{}.Query(context.Background(), sys, "sigma_c", twca.Options{}, sensitivity.Options{
		Constraint:   weaklyhard.Constraint{M: 5, K: 10},
		FrontierMaxK: 20,
		Tasks:        []string{"tau1c", "tau3c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "sensitivity_sigma_c", schema.FromSensitivity(sres))
}

// TestGoldenDegradedWireFormat pins the serialization of a degraded
// document: every point carries quality "safe-upper-bound" plus the
// tripped budget, and the artifact-level tag names the omega-sum rung's
// trigger, so the degradation ladder is fully observable on the wire.
// A combination cap of 1 sends the construction straight to that rung.
func TestGoldenDegradedWireFormat(t *testing.T) {
	sys := casestudy.New()
	an, err := twca.New(sys, sys.ChainByName("sigma_c"),
		twca.Options{MaxCombinations: 1, Degrade: degrade.Policy{Allow: true}})
	if err != nil {
		t.Fatal(err)
	}
	doc, st, err := schema.FromAnalysisStats(context.Background(), an, []int64{1, 3, 10, 100}, 0)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "analysis_sigma_c_degraded", doc)
	var degradedPoints int64
	for _, n := range st.Degraded {
		degradedPoints += n
	}
	if degradedPoints == 0 {
		t.Error("Stats.Degraded counted no degraded points for an omega-sum analysis")
	}
}

// TestSensitivityWarmthInvisible pins the same property for the
// sensitivity document: a query answered from a hot warm store
// serializes byte-identically to a cold one — including the probe and
// analysis counters, which count the query's own work, not the cache's.
func TestSensitivityWarmthInvisible(t *testing.T) {
	sys := casestudy.New()
	opts := sensitivity.Options{
		Constraint: weaklyhard.Constraint{M: 5, K: 10},
		Tasks:      []string{"tau3c"},
	}
	eng := sensitivity.Engine{Warm: sensitivity.NewWarmStore()}
	cold, err := eng.Query(context.Background(), sys, "sigma_c", twca.Options{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := eng.Query(context.Background(), sys, "sigma_c", twca.Options{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(schema.FromSensitivity(cold))
	b, _ := json.Marshal(schema.FromSensitivity(warm))
	if !bytes.Equal(a, b) {
		t.Errorf("cache warmth leaked into the sensitivity wire format:\ncold: %s\nwarm: %s", a, b)
	}
}

// TestCacheWarmthInvisible pins the property the service cache relies
// on: a document produced from a freshly built analysis equals one
// produced from an analysis whose memo cache is already warm.
func TestCacheWarmthInvisible(t *testing.T) {
	sys := casestudy.New()
	cold, err := twca.New(sys, sys.ChainByName("sigma_c"), twca.Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := twca.New(sys, sys.ChainByName("sigma_c"), twca.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Breakpoints(260); err != nil { // prime the memo cache
		t.Fatal(err)
	}
	ks := []int64{1, 3, 10, 100}
	docCold, err := schema.FromAnalysis(context.Background(), cold, ks, 260)
	if err != nil {
		t.Fatal(err)
	}
	docWarm, err := schema.FromAnalysis(context.Background(), warm, ks, 260)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(docCold)
	b, _ := json.Marshal(docWarm)
	if !bytes.Equal(a, b) {
		t.Errorf("cache warmth leaked into the wire format:\ncold: %s\nwarm: %s", a, b)
	}
}

// TestGoldenCampaignLines pins the /v1/campaign stream vocabulary: a
// result line (the unary analysis document embedded unchanged), a
// campaign_partial error line, and the trailing summary. The stream is
// NDJSON — one compact document per line — but the golden file uses the
// suite's indented form so drift reads as a diff, not a wall of bytes.
func TestGoldenCampaignLines(t *testing.T) {
	sys := casestudy.New()
	an, err := twca.New(sys, sys.ChainByName("sigma_c"), twca.Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := schema.FromAnalysis(context.Background(), an, []int64{1, 10, 100}, 0)
	if err != nil {
		t.Fatal(err)
	}
	lines := []schema.CampaignLine{
		{
			SchemaVersion: schema.Version,
			Index:         0,
			ID:            "sweep-000",
			Kind:          schema.CampaignKindDMM,
			SystemHash:    "a1b2c3d4e5f60718",
			Cache:         "miss",
			Analysis:      &doc,
		},
		{
			SchemaVersion: schema.Version,
			Index:         1,
			ID:            "sweep-001",
			Kind:          schema.CampaignKindPartial,
			Error:         "repro: no chain named \"sigma_x\"",
			Cause:         "no_chain",
		},
		{
			SchemaVersion: schema.Version,
			Index:         2,
			Kind:          schema.CampaignKindSummary,
			Items:         2,
			Failed:        1,
		},
	}
	golden(t, "campaign_lines", lines)
}

// FuzzOmegaJSON pins the Ω encoder to encoding/json's map encoder:
// for any names — HTML characters, quotes, control bytes, invalid
// UTF-8 — and any values, Omega encodes to the bytes the plain map
// does, on its own and inside an indented dmm point, whether its pairs
// come sorted (as AppendOmegas makes them) or not; and it decodes to
// the sorted pairs of the map encoding/json decodes. The first name
// doubles as raw JSON, which Omega must accept or reject as the map
// decoder does.
func FuzzOmegaJSON(f *testing.F) {
	f.Add("sigma_a", "sigma_b", "", int64(3), int64(9223372036854775807))
	f.Add("<", ">", "&", int64(-1), int64(0))
	f.Add(`"q"`, `back\slash`, "\x7f", int64(5), int64(5))
	f.Add("a\x00b", "\x1f", "\u2028\u2029", int64(-9223372036854775808), int64(42))
	f.Add("\xff", "\xc3\x28", "é", int64(1), int64(-7))
	f.Add(`{"sigma_a":3,"sigma_b":-9223372036854775808}`, "", "", int64(0), int64(0))
	f.Add(` { "b" : 1 ,"a":2 } `, `{"a":1,"a":2}`, "", int64(0), int64(0))
	f.Add(`{"a":01}`, `{"a":1.0}`, `{"a":1e2}`, int64(0), int64(0))
	f.Add(`{"a":-0}`, `{"a":9223372036854775808}`, `{"<":1}`, int64(0), int64(0))
	f.Add(`{"a":1}x`, `{"a\u0062":1}`, `null`, int64(0), int64(0))
	f.Fuzz(func(t *testing.T, a, b, c string, x, y int64) {
		for _, raw := range []string{a, b, c} {
			var m map[string]int64
			var o schema.Omega
			mapErr := json.Unmarshal([]byte(raw), &m)
			err := json.Unmarshal([]byte(raw), &o)
			if (err == nil) != (mapErr == nil) {
				t.Fatalf("%q: Omega decode error %v, map decode error %v", raw, err, mapErr)
			}
			if want := omegaOf(m); err == nil && !slices.Equal(o, want) {
				t.Fatalf("%q decodes to %q, want %q", raw, o, want)
			}
		}
		for _, m := range []map[string]int64{
			nil,
			{},
			{a: x},
			{b: y},
			{c: x ^ y},
			{a: x, b: y},
			{a: x, b: y, c: x ^ y},
		} {
			want, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			sorted := omegaOf(m)
			reversed := slices.Clone(sorted)
			slices.Reverse(reversed)
			for _, o := range []schema.Omega{sorted, reversed} {
				// MarshalJSON itself, not only json.Marshal's compacted
				// and HTML-escaped copy of its output.
				got, err := o.MarshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("Omega %q encodes to\n%s\nwant\n%s", o, got, want)
				}
			}
			type mapPoint struct {
				K     int64            `json:"k"`
				Omega map[string]int64 `json:"omega,omitempty"`
			}
			want, err = json.MarshalIndent(mapPoint{K: x, Omega: m}, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			type omegaPoint struct {
				K     int64        `json:"k"`
				Omega schema.Omega `json:"omega,omitempty"`
			}
			got, err := json.MarshalIndent(omegaPoint{K: x, Omega: sorted}, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("point with Omega %q encodes to\n%s\nwant\n%s", sorted, got, want)
			}
			// Decoding yields the sorted pairs of the map encoding/json
			// decodes (invalid UTF-8 comes back replaced).
			var back omegaPoint
			var mapBack mapPoint
			if err := json.Unmarshal(got, &back); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(got, &mapBack); err != nil {
				t.Fatal(err)
			}
			if want := omegaOf(mapBack.Omega); !slices.Equal(back.Omega, want) {
				t.Fatalf("point with Omega %q decodes to %q, want %q", sorted, back.Omega, want)
			}
		}
	})
}

// omegaOf returns m's pairs sorted by name; nil for a nil map.
func omegaOf(m map[string]int64) schema.Omega {
	if m == nil {
		return nil
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	o := make(schema.Omega, len(names))
	for i, name := range names {
		o[i] = twca.OmegaEntry{Name: name, Value: m[name]}
	}
	return o
}
