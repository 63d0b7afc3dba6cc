package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"repro"
	"repro/internal/faultinject"
)

// warmCounts reads a replica's decoded and warm system counters.
func warmCounts(svc *Server) (decoded, warm int64) {
	svc.met.mu.Lock()
	defer svc.met.mu.Unlock()
	return svc.met.systemsDecoded, svc.met.systemsFromWarm
}

// sweepRequest is a sensitivity query on σc in the sensitivity-sweep
// shape, sent on the system bytes kept exactly as given.
func sweepRequest(sys []byte, m, k int64, noWarm bool) []byte {
	return rawRequest(sys, fmt.Sprintf(`"chain": "sigma_c", "sensitivity": {"m": %d, "k": %d,
		"scale_denom": 20, "max_scale": 40, "frontier_max_k": 10,
		"tasks": ["tau1d", "tau3c"], "no_warm_start": %t}`, m, k, noWarm))
}

// analysisDocument strips the service envelope from a sensitivity
// response and re-encodes the rest, so two answers compare as bytes.
func analysisDocument(t testing.TB, data []byte) []byte {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("bad response %q: %v", data, err)
	}
	for _, k := range []string{"system_hash", "cache", "warm_start", "elapsed_ms"} {
		delete(doc, k)
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// coldDocuments answers each constraint on a fresh server with
// no_warm_start: the reference documents warm answers must equal.
func coldDocuments(t *testing.T, sys []byte, constraints [][2]int64) [][]byte {
	t.Helper()
	_, ts := newTestServer(t, Config{})
	docs := make([][]byte, len(constraints))
	for i, c := range constraints {
		status, data := postBytes(t, ts.URL+"/v1/analyze/sensitivity", sweepRequest(sys, c[0], c[1], true))
		if status != http.StatusOK {
			t.Fatalf("cold (%d, %d): status %d: %s", c[0], c[1], status, data)
		}
		docs[i] = analysisDocument(t, data)
	}
	return docs
}

// sweepConstraints are (m, k) points feasible on σc (dmm(10) = 5,
// dmm(20) = 7, dmm(40) = 13, dmm(50) = 16).
var sweepConstraints = [][2]int64{{9, 20}, {20, 40}, {24, 50}}

// TestWarmNominalSkipsDecode: once a sensitivity query on system S has
// run, further warm queries on S's bytes with other (m, k) analyze the
// warm store's retained nominal system instead of decoding, and answer
// byte-for-byte what a fresh server answers with no_warm_start. A
// no_warm_start query still decodes.
func TestWarmNominalSkipsDecode(t *testing.T) {
	sys := thalesJSON(t)
	want := coldDocuments(t, sys, sweepConstraints)

	svc, ts := newTestServer(t, Config{})
	if status, data := postBytes(t, ts.URL+"/v1/analyze/sensitivity", sweepRequest(sys, 5, 10, false)); status != http.StatusOK {
		t.Fatalf("first query: status %d: %s", status, data)
	}
	decoded0, warm0 := warmCounts(svc)
	if warm0 != 0 {
		t.Fatalf("first query took %d systems from the warm store, want 0", warm0)
	}
	for i, c := range sweepConstraints {
		status, data := postBytes(t, ts.URL+"/v1/analyze/sensitivity", sweepRequest(sys, c[0], c[1], false))
		if status != http.StatusOK {
			t.Fatalf("warm (%d, %d): status %d: %s", c[0], c[1], status, data)
		}
		if got := analysisDocument(t, data); !bytes.Equal(got, want[i]) {
			t.Errorf("warm (%d, %d) document differs from the cold one:\n%s\n%s", c[0], c[1], got, want[i])
		}
	}
	decoded, warm := warmCounts(svc)
	if decoded != decoded0 {
		t.Errorf("warm queries decoded %d times, want 0", decoded-decoded0)
	}
	if warm != int64(len(sweepConstraints)) {
		t.Errorf("warm queries took %d systems from the warm store, want %d", warm, len(sweepConstraints))
	}

	status, data := postBytes(t, ts.URL+"/v1/analyze/sensitivity", sweepRequest(sys, 30, 60, true))
	if status != http.StatusOK {
		t.Fatalf("no_warm_start query: status %d: %s", status, data)
	}
	if d, w := warmCounts(svc); d != decoded+1 || w != warm {
		t.Errorf("no_warm_start query: decoded +%d, warm +%d; want +1, +0", d-decoded, w-warm)
	}
}

// TestWarmNominalSeamFallback arms the sensitivity.warmstore seam: the
// store then withholds its retained nominal, so each sensitivity store
// miss decodes as it would without a warm store, and the answers stay
// byte-identical to a fresh server's cold ones. Arms the process-global
// harness: no t.Parallel().
func TestWarmNominalSeamFallback(t *testing.T) {
	defer faultinject.Disarm()
	faultinject.Disarm()
	sys := thalesJSON(t)
	want := coldDocuments(t, sys, sweepConstraints)

	svc, ts := newTestServer(t, Config{})
	if status, data := postBytes(t, ts.URL+"/v1/analyze/sensitivity", sweepRequest(sys, 5, 10, false)); status != http.StatusOK {
		t.Fatalf("first query: status %d: %s", status, data)
	}
	if err := faultinject.Configure([]faultinject.Rule{
		{Point: faultinject.PointSensitivityWarmStore, Action: faultinject.ActionError},
	}); err != nil {
		t.Fatal(err)
	}
	decoded0, warm0 := warmCounts(svc)
	for i, c := range sweepConstraints {
		status, data := postBytes(t, ts.URL+"/v1/analyze/sensitivity", sweepRequest(sys, c[0], c[1], false))
		if status != http.StatusOK {
			t.Fatalf("seam-armed (%d, %d): status %d: %s", c[0], c[1], status, data)
		}
		if got := analysisDocument(t, data); !bytes.Equal(got, want[i]) {
			t.Errorf("seam-armed (%d, %d) document differs from the cold one:\n%s\n%s", c[0], c[1], got, want[i])
		}
	}
	decoded, warm := warmCounts(svc)
	if decoded-decoded0 != int64(len(sweepConstraints)) || warm != warm0 {
		t.Errorf("seam-armed queries: decoded +%d, warm +%d; want +%d, +0",
			decoded-decoded0, warm-warm0, len(sweepConstraints))
	}
}

// TestWarmNominalReadOnly runs sensitivity, dmm, latency and verify
// requests concurrently on the same bytes while the warm store shares
// one retained nominal system among the sensitivity queries (and, via
// the artifact cache, the dmm answers built on it); afterwards the
// retained system still hashes as before. Run it under -race.
func TestWarmNominalReadOnly(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	sys := thalesJSON(t)
	status, data := postBytes(t, ts.URL+"/v1/analyze/sensitivity", sweepRequest(sys, 5, 10, false))
	if status != http.StatusOK {
		t.Fatalf("first query: status %d: %s", status, data)
	}
	hash, _ := field(t, data, "system_hash").(string)
	retained := svc.warm.Nominal(hash)
	if retained == nil {
		t.Fatal("warm store retains no nominal system after a query")
	}
	before, err := repro.CanonicalHash(retained)
	if err != nil {
		t.Fatal(err)
	}

	requests := []struct {
		path string
		body []byte
	}{
		{"/v1/analyze/dmm", rawRequest(sys, `"chain": "sigma_c", "k": [1, 10, 50]`)},
		{"/v1/analyze/latency", rawRequest(sys, `"chain": "sigma_c"`)},
		{"/v1/verify", rawRequest(sys, `"chain": "sigma_c", "constraints": [{"m": 5, "k": 10}]`)},
	}
	for i, c := range sweepConstraints {
		requests = append(requests, struct {
			path string
			body []byte
		}{"/v1/analyze/sensitivity", sweepRequest(sys, c[0], c[1], i%2 == 1)})
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(requests))
	for round := 0; round < 2; round++ {
		for _, r := range requests {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(ts.URL+r.path, "application/json", bytes.NewReader(r.body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d", r.path, resp.StatusCode)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	after, err := repro.CanonicalHash(retained)
	if err != nil {
		t.Fatal(err)
	}
	if after != before || after != hash {
		t.Errorf("retained nominal system changed: hash %s → %s (request hash %s)", before, after, hash)
	}
}
