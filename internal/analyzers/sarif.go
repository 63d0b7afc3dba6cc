package analyzers

import "encoding/json"

// sarif.go: SARIF 2.1.0 output for `twca-lint -format=sarif`, the
// interchange format GitHub code scanning ingests. The emitted subset
// is deliberately minimal — one run, one driver, rule metadata from
// the suite, one result per finding — and its exact bytes are pinned
// by testdata/report.golden.sarif, the same discipline as the -json
// schema. Findings suppressed by //twcalint:ignore are emitted with an
// inSource suppression so code scanning shows them as dismissed
// instead of open.

// SARIFVersion is the emitted SARIF spec version.
const SARIFVersion = "2.1.0"

const sarifSchemaURI = "https://json.schemastore.org/sarif-2.1.0.json"

// SARIFLog is the top-level SARIF document.
type SARIFLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []SARIFRun `json:"runs"`
}

// SARIFRun is one tool invocation.
type SARIFRun struct {
	Tool    SARIFTool     `json:"tool"`
	Results []SARIFResult `json:"results"`
}

// SARIFTool describes the driver and its rules.
type SARIFTool struct {
	Driver SARIFDriver `json:"driver"`
}

// SARIFDriver is the tool component that produced the results.
type SARIFDriver struct {
	Name  string      `json:"name"`
	Rules []SARIFRule `json:"rules"`
}

// SARIFRule is one rule's metadata.
type SARIFRule struct {
	ID               string    `json:"id"`
	ShortDescription SARIFText `json:"shortDescription"`
}

// SARIFText is SARIF's multi-format string (text form only here).
type SARIFText struct {
	Text string `json:"text"`
}

// SARIFResult is one finding.
type SARIFResult struct {
	RuleID       string             `json:"ruleId"`
	Level        string             `json:"level"`
	Message      SARIFText          `json:"message"`
	Locations    []SARIFLocation    `json:"locations"`
	Suppressions []SARIFSuppression `json:"suppressions,omitempty"`
}

// SARIFLocation anchors a result in a file.
type SARIFLocation struct {
	PhysicalLocation SARIFPhysicalLocation `json:"physicalLocation"`
}

// SARIFPhysicalLocation is an artifact plus a region.
type SARIFPhysicalLocation struct {
	ArtifactLocation SARIFArtifactLocation `json:"artifactLocation"`
	Region           SARIFRegion           `json:"region"`
}

// SARIFArtifactLocation names the file, relative to the repository
// root (uriBaseId %SRCROOT%, which GitHub resolves to the checkout).
type SARIFArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

// SARIFRegion is the line/column anchor.
type SARIFRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// SARIFSuppression marks a result dismissed in source.
type SARIFSuppression struct {
	Kind string `json:"kind"`
}

// NewSARIF converts a lint run into the SARIF form. The suite provides
// rule metadata (reported in suite order); file paths are made
// relative to base like the -json report.
func NewSARIF(base string, suite []*Analyzer, findings []Finding) SARIFLog {
	rules := make([]SARIFRule, 0, len(suite)+1)
	for _, a := range suite {
		rules = append(rules, SARIFRule{ID: a.Name, ShortDescription: SARIFText{Text: a.Doc}})
	}
	rules = append(rules, SARIFRule{
		ID:               RuleSuppression,
		ShortDescription: SARIFText{Text: "every twcalint:ignore directive must state a reason and name known rules"},
	})

	results := make([]SARIFResult, 0, len(findings))
	for _, f := range findings {
		res := SARIFResult{
			RuleID:  f.Rule,
			Level:   "error",
			Message: SARIFText{Text: f.Message},
			Locations: []SARIFLocation{{
				PhysicalLocation: SARIFPhysicalLocation{
					ArtifactLocation: SARIFArtifactLocation{
						URI:       relPath(base, f.Pos.Filename),
						URIBaseID: "%SRCROOT%",
					},
					Region: SARIFRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
				},
			}},
		}
		if f.Suppressed {
			res.Suppressions = []SARIFSuppression{{Kind: "inSource"}}
		}
		results = append(results, res)
	}

	return SARIFLog{
		Schema:  sarifSchemaURI,
		Version: SARIFVersion,
		Runs: []SARIFRun{{
			Tool:    SARIFTool{Driver: SARIFDriver{Name: "twca-lint", Rules: rules}},
			Results: results,
		}},
	}
}

// Marshal renders the log in its canonical indented form (trailing
// newline included), the exact bytes the golden file pins.
func (l SARIFLog) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
