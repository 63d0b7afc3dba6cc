package repro_test

import (
	"bytes"
	"context"
	"os"
	"testing"

	"repro"
)

// TestExampleDataInSync keeps the shipped sample files in examples/data
// identical to the programmatic case study, so documentation and CLIs
// never drift from the analyses.
func TestExampleDataInSync(t *testing.T) {
	want := repro.CaseStudy()

	sysText, err := os.ReadFile("examples/data/thales.sys")
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := repro.FormatDSL(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(sysText) != canonical {
		t.Error("examples/data/thales.sys is out of sync; regenerate with repro.FormatDSL(repro.CaseStudy())")
	}
	fromDSL, err := repro.ParseDSL(string(sysText))
	if err != nil {
		t.Fatal(err)
	}
	if fromDSL.TaskCount() != want.TaskCount() {
		t.Error("DSL sample does not describe the case study")
	}

	jsonText, err := os.ReadFile("examples/data/thales.json")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := repro.StoreSystem(&buf, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonText, buf.Bytes()) {
		t.Error("examples/data/thales.json is out of sync; regenerate with repro.StoreSystem")
	}
	fromJSON, err := repro.LoadSystem(bytes.NewReader(jsonText))
	if err != nil {
		t.Fatal(err)
	}
	lat, err := repro.AnalysisRequest{System: fromJSON, Chain: "sigma_c"}.Latency(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if lat.WCL != 331 {
		t.Errorf("JSON sample analyzes to WCL %d, want 331", lat.WCL)
	}
}
