package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/schema"
)

// decodeCounts reads a replica's twca_system_decodes_total counters.
func decodeCounts(svc *Server) (memo, decoded int64) {
	svc.met.mu.Lock()
	defer svc.met.mu.Unlock()
	return svc.met.systemsFromMemo, svc.met.systemsDecoded
}

// postBytes posts body verbatim — unlike post, which re-marshals and so
// compacts an embedded system — and returns the status and raw response.
func postBytes(t testing.TB, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// rawRequest renders a request envelope around system bytes kept
// exactly as given.
func rawRequest(system []byte, rest string) []byte {
	return []byte(fmt.Sprintf(`{"system": %s, %s}`, system, rest))
}

// field decodes one top-level field of a JSON response.
func field(t testing.TB, data []byte, name string) any {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("bad response %q: %v", data, err)
	}
	return doc[name]
}

// TestSystemMemoDecodeOnce: identical system bytes sent to the dmm,
// verify and latency endpoints decode once on the request path. The
// only other decode is the one the latency store miss needs to analyze
// the model; every repeat takes its hash from the memo.
func TestSystemMemoDecodeOnce(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	sys := thalesJSON(t)
	dmm := rawRequest(sys, `"chain": "sigma_c", "k": [1, 10]`)
	verify := rawRequest(sys, `"chain": "sigma_c", "constraints": [{"m": 5, "k": 10}]`)
	latency := rawRequest(sys, `"chain": "sigma_c"`)

	steps := []struct {
		path          string
		body          []byte
		memo, decoded int64
	}{
		{"/v1/analyze/dmm", dmm, 0, 1},         // new bytes: decoded, hashed, memoized
		{"/v1/verify", verify, 1, 1},           // same artifact: hash from the memo, store hit
		{"/v1/analyze/dmm", dmm, 2, 1},         // repeat
		{"/v1/analyze/latency", latency, 3, 2}, // memo hit; the latency store miss decodes to analyze
		{"/v1/analyze/latency", latency, 4, 2}, // repeat: store hit, no decode
		{"/v1/verify", verify, 5, 2},
	}
	hash := ""
	for i, st := range steps {
		status, data := postBytes(t, ts.URL+st.path, st.body)
		if status != http.StatusOK {
			t.Fatalf("step %d %s = %d: %s", i, st.path, status, data)
		}
		h, _ := field(t, data, "system_hash").(string)
		if hash == "" {
			hash = h
		}
		if h != hash {
			t.Errorf("step %d %s: system_hash %q, want %q", i, st.path, h, hash)
		}
		if memo, decoded := decodeCounts(svc); memo != st.memo || decoded != st.decoded {
			t.Errorf("step %d %s: decodes memo=%d decoded=%d, want memo=%d decoded=%d",
				i, st.path, memo, decoded, st.memo, st.decoded)
		}
	}
	if st := svc.StoreStats(); st.Misses != 2 {
		t.Errorf("store misses = %d, want 2 (one dmm, one latency artifact)", st.Misses)
	}
}

// TestSystemMemoEncodingsShareHash: two byte-different encodings of one
// system are two memo entries but one model — one system_hash and one
// artifact miss.
func TestSystemMemoEncodingsShareHash(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	indented := thalesJSON(t)
	var compact bytes.Buffer
	if err := json.Compact(&compact, indented); err != nil {
		t.Fatal(err)
	}
	spaced := strings.ReplaceAll(compact.String(), ",", " ,\t")
	var hashes []string
	for i, sys := range [][]byte{indented, compact.Bytes(), []byte(spaced)} {
		status, data := postBytes(t, ts.URL+"/v1/analyze/dmm", rawRequest(sys, `"chain": "sigma_c", "k": [1, 10]`))
		if status != http.StatusOK {
			t.Fatalf("encoding %d = %d: %s", i, status, data)
		}
		hashes = append(hashes, field(t, data, "system_hash").(string))
		want := "hit"
		if i == 0 {
			want = "miss"
		}
		if got := field(t, data, "cache"); got != want {
			t.Errorf("encoding %d: cache %v, want %s", i, got, want)
		}
	}
	if hashes[0] != hashes[1] || hashes[0] != hashes[2] {
		t.Errorf("encodings hashed differently: %v", hashes)
	}
	if st := svc.StoreStats(); st.Misses != 1 {
		t.Errorf("store misses = %d, want 1", st.Misses)
	}
	if memo, decoded := decodeCounts(svc); memo != 0 || decoded != 3 {
		t.Errorf("decodes memo=%d decoded=%d, want 0 and 3 (each new byte string decodes once)", memo, decoded)
	}
	if n := svc.memo.len(); n != 3 {
		t.Errorf("memo holds %d digests, want 3", n)
	}
}

// TestSystemMemoRejectsInvalid: a system that fails validation answers
// the same 400 on every repeat and is never memoized.
func TestSystemMemoRejectsInvalid(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	bad := bytes.Replace(thalesJSON(t), []byte(`"synchronous"`), []byte(`"bogus"`), 1)
	if bytes.Equal(bad, thalesJSON(t)) {
		t.Fatal("fixture did not change the chain kind")
	}
	body := rawRequest(bad, `"chain": "sigma_c"`)
	var first []byte
	for i := 0; i < 3; i++ {
		status, data := postBytes(t, ts.URL+"/v1/analyze/dmm", body)
		if status != http.StatusBadRequest || field(t, data, "kind") != "bad_request" {
			t.Fatalf("repeat %d = %d: %s", i, status, data)
		}
		if first == nil {
			first = data
		} else if !bytes.Equal(data, first) {
			t.Errorf("repeat %d answered %s, first %s", i, data, first)
		}
	}
	if n := svc.memo.len(); n != 0 {
		t.Errorf("memo holds %d digests after invalid bodies, want 0", n)
	}
	if memo, decoded := decodeCounts(svc); memo != 0 || decoded != 3 {
		t.Errorf("decodes memo=%d decoded=%d, want 0 and 3", memo, decoded)
	}
}

// TestSystemMemoBounded: more distinct systems than CacheSize keep the
// memo within CacheSize, the newest entry stays resolvable, and an entry
// in steady use survives the rotations.
func TestSystemMemoBounded(t *testing.T) {
	const size = 4
	svc, err := New(Config{CacheSize: size})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	systems := fleetSystems(t, 3*size)
	hot := &analyzeRequest{System: systems[0]}
	hotHash, _, err := svc.system(hot)
	if err != nil {
		t.Fatal(err)
	}
	for i, sys := range systems[1:] {
		if _, _, err := svc.system(&analyzeRequest{System: sys}); err != nil {
			t.Fatal(err)
		}
		if n := svc.memo.len(); n > size {
			t.Fatalf("after %d systems the memo holds %d digests, bound %d", i+2, n, size)
		}
		if h, _, err := svc.system(hot); err != nil || h != hotHash {
			t.Fatalf("hot system resolved to (%q, %v)", h, err)
		}
	}
	_, decodedBefore := decodeCounts(svc)
	svc.system(&analyzeRequest{System: systems[len(systems)-1]})
	svc.system(hot)
	if _, decoded := decodeCounts(svc); decoded != decodedBefore {
		t.Errorf("newest and hot systems decoded again (%d decodes) — evicted too early", decoded-decodedBefore)
	}
	// Every repeat lookup was answered by the memo: the hot system once
	// per loop round and once more, the newest system once.
	if memo, _ := decodeCounts(svc); memo != int64(len(systems)+1) {
		t.Errorf("memo answered %d lookups, want %d", memo, len(systems)+1)
	}

	one := newSystemMemo(1)
	for i := byte(0); i < 5; i++ {
		one.add(memoKey{digest: [sha256.Size]byte{i}}, "h")
		if n := one.len(); n != 1 {
			t.Fatalf("capacity-1 memo holds %d digests", n)
		}
	}
}

// TestSystemMemoDomains: a DSL body whose text equals an already
// memoized JSON body is looked up in its own domain — it is parsed as
// DSL and rejected, never answered with the JSON body's hash.
func TestSystemMemoDomains(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	var compact bytes.Buffer
	if err := json.Compact(&compact, thalesJSON(t)); err != nil {
		t.Fatal(err)
	}
	text := compact.String()
	status, data := post(t, ts.URL+"/v1/analyze/dmm", analyzeRequest{System: json.RawMessage(text), Chain: "sigma_c", K: []int64{1}})
	if status != http.StatusOK {
		t.Fatalf("json body = %d: %v", status, data)
	}
	status, data = post(t, ts.URL+"/v1/analyze/dmm", analyzeRequest{SystemDSL: text, Chain: "sigma_c", K: []int64{1}})
	if status != http.StatusBadRequest || data["kind"] != "bad_request" {
		t.Errorf("dsl body with the json text = %d: %v, want 400 bad_request", status, data)
	}
	if memo, _ := decodeCounts(svc); memo != 0 {
		t.Errorf("memo answered %d lookups, want 0", memo)
	}
	if (memoKey{digest: sha256.Sum256([]byte(text))}) == (memoKey{dsl: true, digest: sha256.Sum256([]byte(text))}) {
		t.Error("json and dsl keys of one text compare equal")
	}
}

// TestDeferredDecodeErrorIsBadRequest: if a memoized digest ever meets
// bytes that fail to decode inside a store-miss closure, every endpoint
// still answers 400 bad_request, as the eager decode would have. Real
// traffic cannot reach this — only bytes that decoded are memoized — so
// the test plants the entry.
func TestDeferredDecodeErrorIsBadRequest(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	bad := bytes.Replace(thalesJSON(t), []byte(`"synchronous"`), []byte(`"bogus"`), 1)
	var compact bytes.Buffer
	if err := json.Compact(&compact, bad); err != nil {
		t.Fatal(err)
	}
	svc.memo.add(memoKey{digest: sha256.Sum256(compact.Bytes())}, strings.Repeat("0", 64))
	req := analyzeRequest{System: compact.Bytes(), Chain: "sigma_c", K: []int64{1}}
	for _, path := range []string{"/v1/analyze/dmm", "/v1/analyze/latency", "/v1/verify", "/v1/analyze/sensitivity"} {
		r := req
		switch path {
		case "/v1/verify":
			r.Constraints = []wireConstraint{{M: 1, K: 2}}
		case "/v1/analyze/sensitivity":
			r.Sensitivity = &reqSensitivity{M: 5, K: 10}
		}
		status, data := post(t, ts.URL+path, r)
		if status != http.StatusBadRequest || data["kind"] != "bad_request" {
			t.Errorf("%s = %d: %v, want 400 bad_request", path, status, data)
		}
	}
	status, lines := postCampaign(t, ts.URL, campaignRequest{Items: []campaignItem{{analyzeRequest: req}}})
	if status != http.StatusOK || len(lines) != 2 || lines[0].Kind != schema.CampaignKindPartial || lines[0].Cause != "bad_request" {
		t.Errorf("campaign = %d: %+v, want one bad_request partial line", status, lines)
	}
}

// hotReadAllocsCeiling bounds the allocations of one warmed repeat dmm
// read through the handler. Measured at 37 on go1.24 linux/amd64, and
// 38 under -race; the ceiling leaves about 25% headroom for toolchain
// and stdlib drift. Decoding the envelope with encoding/json cost 55
// (56 under -race); re-encoding the retained document on every hit,
// with encoding/json's map encoder for each point's Ω, cost 82 (90); a
// request path that decodes and hashes the system on every read costs
// about 180.
const hotReadAllocsCeiling = 46

// TestHotReadAllocs is the host-independent allocation gate for the hot
// read path: envelope decode, memo lookup, store hit, document reuse and
// encode, with no system decode.
func TestHotReadAllocs(t *testing.T) {
	svc, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	body, err := json.Marshal(analyzeRequest{System: thalesJSON(t), Chain: "sigma_c", K: []int64{1, 10, 100}})
	if err != nil {
		t.Fatal(err)
	}
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze/dmm", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("dmm read = %d: %s", rec.Code, rec.Body)
		}
	}
	serve() // warm: decode, analyze, memoize
	allocs := testing.AllocsPerRun(50, serve)
	t.Logf("warm dmm read: %.0f allocs (ceiling %d)", allocs, hotReadAllocsCeiling)
	if allocs > hotReadAllocsCeiling {
		t.Errorf("warm dmm read allocates %.0f times, ceiling %d", allocs, hotReadAllocsCeiling)
	}
	if _, decoded := decodeCounts(svc); decoded != 1 {
		t.Errorf("system decoded %d times, want once (the warming read)", decoded)
	}
}
