package service

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro"
	"repro/internal/casestudy"
	"repro/internal/schema"
)

// perturb sets field i of the struct pointed to by v to a non-zero
// value, so the fingerprint tests can prove every field reaches the
// rendered key.
func perturb(t *testing.T, v reflect.Value, i int) {
	t.Helper()
	f := v.Field(i)
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(true)
	case reflect.Int, reflect.Int64:
		f.SetInt(7)
	case reflect.String:
		f.SetString("x")
	default:
		t.Fatalf("field %s has kind %s — teach perturb about it", v.Type().Field(i).Name, f.Kind())
	}
}

// fieldNames returns the struct's field names in declaration order.
func fieldNames(typ reflect.Type) []string {
	names := make([]string, typ.NumField())
	for i := range names {
		names[i] = typ.Field(i).Name
	}
	return names
}

// TestFingerprintPinned pins the composition of the artifact-cache
// fingerprint. The fingerprint is a total %+v rendering of the request
// options; this test (a) pins the exact rendered form of the zero
// value, (b) takes a census of the struct fields so that adding one
// forces a deliberate decision here, and (c) proves each field's value
// actually changes the fingerprint — no field can silently alias
// artifacts across, say, scheduling policies or degrade modes; (d) it
// does the same for the latency key, which only the latency fields
// reach.
func TestFingerprintPinned(t *testing.T) {
	wantOptFields := []string{
		"MaxCombinations", "ExactCriterion", "Flat", "Baseline",
		"NoCarryIn", "MaxQ", "Horizon", "MaxIterations", "NoDegrade", "Policy",
	}
	if got := fieldNames(reflect.TypeOf(reqOptions{})); !reflect.DeepEqual(got, wantOptFields) {
		t.Fatalf("reqOptions fields changed: %v\nwant %v\nIf a field was added it is now part of every cache key "+
			"(good — old artifacts cannot alias); update this census and the pinned rendering.", got, wantOptFields)
	}
	const wantZero = "{MaxCombinations:0 ExactCriterion:false Flat:false Baseline:false NoCarryIn:false MaxQ:0 Horizon:0 MaxIterations:0 NoDegrade:false Policy:}"
	if got := (reqOptions{}).fingerprint(); got != wantZero {
		t.Fatalf("zero reqOptions fingerprint = %q, want %q", got, wantZero)
	}
	base := (reqOptions{}).fingerprint()
	for i, name := range wantOptFields {
		var o reqOptions
		perturb(t, reflect.ValueOf(&o).Elem(), i)
		if o.fingerprint() == base {
			t.Errorf("reqOptions.%s does not reach the fingerprint — artifacts would alias across its values", name)
		}
	}

	// Latency artifacts are keyed on the fields a latency analysis
	// reads. Each of them changes the latency key; each DMM-only field
	// leaves it alone, and leaves the library's latency result
	// unchanged too, so sharing the key cannot serve a wrong answer.
	latencyFields := map[string]bool{"MaxQ": true, "Horizon": true, "MaxIterations": true, "NoDegrade": true, "Policy": true}
	if got := (reqOptions{}).latencyOnly().fingerprint(); got != wantZero {
		t.Fatalf("zero latency fingerprint = %q, want %q (all-default requests keep their key)", got, wantZero)
	}
	sys := casestudy.New()
	ctx := context.Background()
	want, err := repro.AnalysisRequest{System: sys, Chain: "sigma_c", Options: (reqOptions{}).twca()}.Latency(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range wantOptFields {
		var o reqOptions
		perturb(t, reflect.ValueOf(&o).Elem(), i)
		if changed := o.latencyOnly().fingerprint() != wantZero; changed != latencyFields[name] {
			t.Errorf("reqOptions.%s changes the latency key: %v, want %v", name, changed, latencyFields[name])
		}
		if latencyFields[name] {
			continue
		}
		got, err := repro.AnalysisRequest{System: sys, Chain: "sigma_c", Options: o.twca()}.Latency(ctx)
		if err != nil {
			t.Fatalf("latency with %s set: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("reqOptions.%s leaves the latency key alone but changes the latency result", name)
		}
	}
}

// TestArtifactKeyPinned pins the full key layout: kind, schema
// generation, model hash, chain, fingerprint — in that order, pipe
// separated. The schema version term means a wire-format bump
// invalidates every artifact fleet-wide instead of serving documents
// minted under the old generation.
func TestArtifactKeyPinned(t *testing.T) {
	want := fmt.Sprintf("dmm|v%d|h|c|fp", schema.Version)
	if got := artifactKey("dmm", "h", "c", "fp"); got != want {
		t.Fatalf("artifactKey = %q, want %q", got, want)
	}
	if schema.Version != 2 {
		t.Fatalf("schema.Version = %d; if this bump is intentional, every cached artifact is now "+
			"invalidated by design — update this pin to acknowledge it", schema.Version)
	}
	// Distinct option fingerprints must yield distinct keys even when
	// kind/hash/chain agree (the aliasing TestFingerprintPinned guards
	// against at the fingerprint layer).
	a := artifactKey("dmm", "h", "c", (reqOptions{}).fingerprint())
	b := artifactKey("dmm", "h", "c", (reqOptions{Policy: "edf"}).fingerprint())
	if a == b {
		t.Fatal("policy does not separate artifact keys")
	}
	// The dmm document key: artifact key, requested points, breakpoint
	// range.
	for _, ks := range [][]int64{nil, {1}, {1, 10, 100}, {-3, 9223372036854775807}} {
		want := fmt.Sprintf("doc|%s|%v|%d", a, ks, 260)
		if got := dmmDocKey(a, ks, 260); got != want {
			t.Errorf("dmmDocKey(%v) = %q, want %q", ks, got, want)
		}
	}
}
