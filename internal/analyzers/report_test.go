package analyzers_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"go/token"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analyzers"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestReportGolden pins the `twca-lint -json` wire format the same way
// internal/schema pins the analysis wire format: the golden bytes are
// the contract, and any shape change must bump ReportVersion and
// regenerate with -update.
func TestReportGolden(t *testing.T) {
	findings := []analyzers.Finding{
		{
			Rule:    analyzers.RuleDeterminism,
			Pos:     token.Position{Filename: "/repo/internal/twca/twca.go", Line: 42, Column: 2},
			Message: "iteration over map res.Omega observes randomized order in a deterministic package; range over sorted keys instead",
		},
		{
			Rule:    analyzers.RuleSoundflow,
			Pos:     token.Position{Filename: "/repo/internal/holistic/holistic.go", Line: 7, Column: 28},
			Message: "min of an upper-bound-tainted value and an unproven operand may tighten the bound; prove the other operand is itself an upper bound or allowlist the dominance-tested caller",
		},
		{
			Rule:    analyzers.RuleSuppression,
			Pos:     token.Position{Filename: "/repo/internal/sensitivity/sensitivity.go", Line: 570, Column: 3},
			Message: `twcalint:ignore names unknown rule "errretain"; it suppresses nothing, so fix the name or delete the directive`,
		},
		{
			Rule:       analyzers.RuleSaturation,
			Pos:        token.Position{Filename: "/repo/internal/latency/latency.go", Line: 246, Column: 3},
			Message:    "raw += on saturating type repro/internal/curves.Time; use the saturating helpers (curves.AddSat/MulSat) so Infinity stays absorbing",
			Suppressed: true,
		},
		{
			Rule:    analyzers.RuleSuppression,
			Pos:     token.Position{Filename: "/repo/internal/latency/latency.go", Line: 245, Column: 3},
			Message: "twcalint:ignore without a reason; state why the rule does not apply here",
		},
	}
	rep := analyzers.NewReport("/repo", findings)
	if rep.SchemaVersion != analyzers.ReportVersion {
		t.Fatalf("report schema_version = %d, want %d", rep.SchemaVersion, analyzers.ReportVersion)
	}
	got, err := rep.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "report.golden.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("twca-lint -json format drifted from golden file.\n"+
			"If the change is intentional, bump analyzers.ReportVersion and regenerate with -update.\ngot:\n%s\nwant:\n%s",
			got, want)
	}
}

// TestReportSummaryCountsUnsuppressedOnly keeps the summary an honest
// pass/fail signal: suppressed findings appear in the list but not in
// the per-rule counts.
func TestReportSummaryCountsUnsuppressedOnly(t *testing.T) {
	rep := analyzers.NewReport("", []analyzers.Finding{
		{Rule: analyzers.RuleSoundflow, Pos: token.Position{Filename: "a.go", Line: 1}},
		{Rule: analyzers.RuleSoundflow, Pos: token.Position{Filename: "a.go", Line: 2}, Suppressed: true},
	})
	if got := rep.Summary[analyzers.RuleSoundflow]; got != 1 {
		t.Errorf("summary[soundflow] = %d, want 1", got)
	}
	if len(rep.Findings) != 2 {
		t.Errorf("findings on the wire = %d, want 2 (suppressed included)", len(rep.Findings))
	}
}

// TestReportRelativizesPaths keeps reports stable across checkouts.
func TestReportRelativizesPaths(t *testing.T) {
	rep := analyzers.NewReport("/work/repo", []analyzers.Finding{
		{Rule: analyzers.RuleSoundflow, Pos: token.Position{Filename: "/work/repo/internal/a/a.go", Line: 3}},
		{Rule: analyzers.RuleSoundflow, Pos: token.Position{Filename: "/elsewhere/b.go", Line: 4}},
	})
	if got := rep.Findings[0].File; got != "internal/a/a.go" {
		t.Errorf("in-repo path = %q, want relative form", got)
	}
	if got := rep.Findings[1].File; got != "/elsewhere/b.go" {
		t.Errorf("out-of-repo path = %q, want absolute form kept", got)
	}
}

// TestReportMarshalIsValidJSON double-checks the canonical form parses
// back (guards against a stray trailing-comma style bug if Marshal
// ever stops using encoding/json).
func TestReportMarshalIsValidJSON(t *testing.T) {
	rep := analyzers.NewReport("", nil)
	b, err := rep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var round analyzers.Report
	if err := json.Unmarshal(b, &round); err != nil {
		t.Fatalf("canonical form does not parse: %v", err)
	}
	if round.Findings == nil {
		t.Error("empty findings must marshal as [], not null")
	}
}
