package repro_test

import (
	"bytes"
	"context"
	"os"
	"strings"
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

// TestDuplicateChainNameRejected: renaming σa to σb in the shipped JSON
// sample must fail to load, naming both chains. Accepted, the two
// overload chains would share one Ω entry in every dmm point, and
// ChainByName would silently pick the first of them.
func TestDuplicateChainNameRejected(t *testing.T) {
	jsonText, err := os.ReadFile("examples/data/thales.json")
	if err != nil {
		t.Fatal(err)
	}
	renamed := strings.Replace(string(jsonText), `"name":"sigma_a"`, `"name":"sigma_b"`, 1)
	if renamed == string(jsonText) {
		t.Fatal("examples/data/thales.json names no chain sigma_a")
	}
	_, err = repro.LoadSystem(strings.NewReader(renamed))
	if err == nil {
		t.Fatal("a system with two chains named sigma_b loaded")
	}
	if want := `chain name "sigma_b" used by both chains[2] and chains[3]`; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name both chains (%s)", err, want)
	}
}
