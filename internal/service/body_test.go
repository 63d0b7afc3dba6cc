package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// dmmBody is a valid /v1/analyze/dmm request body on the case study.
func dmmBody(t *testing.T) []byte {
	t.Helper()
	body, err := json.Marshal(analyzeRequest{System: thalesJSON(t), Chain: "sigma_c", K: []int64{10}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestReadBodyContentLength drives the handler with bodies whose
// declared Content-Length is right, short, long, absent or over the
// cap: only honest bodies within the cap are analyzed, everything else
// is a 400.
func TestReadBodyContentLength(t *testing.T) {
	body := dmmBody(t)
	svc, _ := newTestServer(t, Config{MaxBodyBytes: int64(len(body)) + 16})
	for _, tc := range []struct {
		name   string
		body   []byte
		length int64
		want   int
	}{
		{"exact length", body, int64(len(body)), http.StatusOK},
		{"no length", body, -1, http.StatusOK},
		{"body ends early", body, int64(len(body)) + 8, http.StatusBadRequest},
		{"body runs past its length", body, int64(len(body)) - 8, http.StatusBadRequest},
		{"declared over cap", append(bytes.Clone(body), make([]byte, 64)...), int64(len(body)) + 64, http.StatusBadRequest},
		{"no length, over cap", append(bytes.Clone(body), make([]byte, 64)...), -1, http.StatusBadRequest},
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze/dmm", bytes.NewReader(tc.body))
		req.ContentLength = tc.length
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.Bytes())
		}
	}
}

// TestReadBodyOverCapOnTheWire: through a real connection, a body over
// the cap is refused whether it declares its length or is chunked.
func TestReadBodyOverCapOnTheWire(t *testing.T) {
	body := dmmBody(t)
	_, ts := newTestServer(t, Config{MaxBodyBytes: int64(len(body)) - 1})
	for _, chunked := range []bool{false, true} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze/dmm", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if chunked {
			req.ContentLength = -1
			req.TransferEncoding = []string{"chunked"}
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("chunked=%v: over-cap body got status %d, want 400", chunked, resp.StatusCode)
		}
	}
}

// TestReadBodyOneBuffer: a body with a Content-Length is read into one
// buffer of that size, where reading to EOF grows one from 512 bytes.
func TestReadBodyOneBuffer(t *testing.T) {
	body := dmmBody(t)
	svc, _ := newTestServer(t, Config{})
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze/dmm", rd)
	rec := httptest.NewRecorder()
	allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(body)
		got, err := svc.readBody(rec, req)
		if err != nil || len(got) != len(body) {
			t.Fatalf("readBody = %d bytes, %v", len(got), err)
		}
	})
	// The buffer and the cap's reader wrapper.
	if allocs > 2 {
		t.Errorf("readBody of a %d-byte body allocates %.0f times, want at most 2", len(body), allocs)
	}
}
