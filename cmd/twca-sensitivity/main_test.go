package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/schema"
)

func runTool(t *testing.T, args []string, stdin string) (string, string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, strings.NewReader(stdin), &stdout, &stderr)
	return stdout.String(), stderr.String(), err
}

func TestThalesDefault(t *testing.T) {
	out, errOut, err := runTool(t, []string{"-chain", "sigma_c", "-frontier", "5", "-tasks", "tau3c"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut, "m = dmm(10) = 5") {
		t.Errorf("auto-m note missing from stderr: %q", errOut)
	}
	for _, want := range []string{
		"under (m=5, k=10)",
		"uniform    1000 (1.000x)",
		"tau3c      1219 (1.219x)",
		"sigma_b    extra jitter <= 218, min distance 382 (nominal 600)",
		"feasibility frontier",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestJSONOutput(t *testing.T) {
	out, _, err := runTool(t, []string{"-chain", "sigma_c", "-m", "5", "-k", "10",
		"-frontier", "5", "-tasks", "tau3c", "-json"}, "")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("-json output is not JSON: %v", err)
	}
	if doc["schema_version"].(float64) != schema.Version || doc["nominal_dmm"].(float64) != 5 {
		t.Errorf("schema_version/nominal_dmm = %v/%v", doc["schema_version"], doc["nominal_dmm"])
	}
	if doc["uniform_scale"].(float64) != 1000 {
		t.Errorf("uniform_scale = %v, want 1000", doc["uniform_scale"])
	}
	if n := len(doc["frontier"].([]any)); n != 5 {
		t.Errorf("frontier has %d points, want 5", n)
	}
}

func TestBenchOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_sensitivity.json")
	_, errOut, err := runTool(t, []string{"-chain", "sigma_c", "-m", "5",
		"-frontier", "0", "-tasks", "tau3c", "-bench-out", path}, "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut, "bench: cold") {
		t.Errorf("bench note missing from stderr: %q", errOut)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc benchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Chain != "sigma_c" || doc.Probes <= 0 || doc.ColdMS <= 0 || doc.WarmStartSpeedup <= 0 {
		t.Errorf("bench doc = %+v", doc)
	}
}

func TestStdinDSL(t *testing.T) {
	dsl := "system tiny\nchain c periodic(100) deadline(100) { t prio 1 wcet 10 }\n"
	out, _, err := runTool(t, []string{"-chain", "c", "-m", "0", "-k", "5", "-frontier", "3", "-"}, dsl)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "under (m=0, k=5)") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	if _, _, err := runTool(t, []string{}, ""); err == nil {
		t.Error("missing -chain accepted")
	}
	if _, _, err := runTool(t, []string{"-chain", "nope"}, ""); err == nil {
		t.Error("unknown chain accepted")
	}
	if _, _, err := runTool(t, []string{"-chain", "sigma_c", "-m", "2", "-frontier", "0"}, ""); err == nil {
		t.Error("infeasible constraint accepted")
	}
}
