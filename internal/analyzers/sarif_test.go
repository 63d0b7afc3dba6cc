package analyzers_test

import (
	"bytes"
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analyzers"
)

// sarifFixtureFindings mirror the report-golden findings so the two
// wire formats pin the same scenarios: an open finding, an in-source
// suppressed one, and one from each rule family.
func sarifFixtureFindings() []analyzers.Finding {
	return []analyzers.Finding{
		{
			Rule:    analyzers.RuleDeterminism,
			Pos:     token.Position{Filename: "/repo/internal/twca/twca.go", Line: 42, Column: 2},
			Message: "iteration over map res.Omega observes randomized order in a deterministic package; range over sorted keys instead",
		},
		{
			Rule:    analyzers.RuleSoundflow,
			Pos:     token.Position{Filename: "/repo/internal/latency/latency.go", Line: 80, Column: 10},
			Message: "min of an upper-bound-tainted value tightens a reported bound; prove the other operand dominates or keep the looser bound",
		},
		{
			Rule:    analyzers.RuleSaturation,
			Pos:     token.Position{Filename: "/repo/internal/segments/segments.go", Line: 55, Column: 3},
			Message: "raw += on saturating type repro/internal/curves.Time; use the saturating helpers (curves.AddSat/MulSat) so Infinity stays absorbing",
		},
		{
			Rule:       analyzers.RuleSoundflow,
			Pos:        token.Position{Filename: "/repo/internal/twca/twca.go", Line: 288, Column: 12},
			Message:    "subtraction with upper-bound-tainted minuend window tightens the bound; a reported value derived from it may undercut the exact result",
			Suppressed: true,
		},
	}
}

// TestSARIFGolden pins the -format=sarif bytes exactly like the -json
// report: the golden file is the contract GitHub code scanning parses.
func TestSARIFGolden(t *testing.T) {
	log := analyzers.NewSARIF("/repo", analyzers.All(), sarifFixtureFindings())
	got, err := log.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "report.golden.sarif")
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
		t.Errorf("twca-lint -format=sarif drifted from golden file.\n"+
			"If the change is intentional, regenerate with -update.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestSARIFShape checks the invariants code scanning relies on without
// byte-comparing: schema/version pin, every suite rule (plus the
// synthetic suppression rule) described, paths repo-relative, and
// waived findings carried as inSource suppressions rather than
// dropped.
func TestSARIFShape(t *testing.T) {
	log := analyzers.NewSARIF("/repo", analyzers.All(), sarifFixtureFindings())
	if log.Version != analyzers.SARIFVersion || analyzers.SARIFVersion != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if got, want := len(run.Tool.Driver.Rules), len(analyzers.All())+1; got != want {
		t.Errorf("driver rules = %d, want %d (suite + suppression)", got, want)
	}
	if got, want := len(run.Results), len(sarifFixtureFindings()); got != want {
		t.Fatalf("results = %d, want %d (suppressed findings must not be dropped)", got, want)
	}
	for _, res := range run.Results {
		loc := res.Locations[0].PhysicalLocation.ArtifactLocation
		if filepath.IsAbs(loc.URI) {
			t.Errorf("result URI %q not repo-relative", loc.URI)
		}
		if loc.URIBaseID != "%SRCROOT%" {
			t.Errorf("uriBaseId = %q, want %%SRCROOT%%", loc.URIBaseID)
		}
	}
	last := run.Results[len(run.Results)-1]
	if len(last.Suppressions) != 1 || last.Suppressions[0].Kind != "inSource" {
		t.Errorf("waived finding suppressions = %+v, want one inSource entry", last.Suppressions)
	}

	b, err := log.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var round map[string]any
	if err := json.Unmarshal(b, &round); err != nil {
		t.Fatalf("marshalled SARIF does not parse: %v", err)
	}
	if round["$schema"] == "" {
		t.Error("$schema missing")
	}
}
