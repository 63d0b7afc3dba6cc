package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/schema"
)

// assertDocsMatchTruth byte-compares every DMM document in lines
// against the ground-truth campaign run on an isolated single node.
func assertDocsMatchTruth(t testing.TB, lines, truth []schema.CampaignLine, what string) {
	t.Helper()
	for i, line := range lines {
		if line.Kind != schema.CampaignKindDMM || line.Analysis == nil {
			t.Fatalf("%s: line %d = kind %q error %q cause %q", what, i, line.Kind, line.Error, line.Cause)
		}
		got, err := json.Marshal(*line.Analysis)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(*truth[i].Analysis)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: item %d document differs from ground truth:\ngot:  %s\nwant: %s", what, i, got, want)
		}
	}
}

// getCluster fetches and decodes GET /v1/cluster.
func getCluster(t testing.TB, url string) clusterResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/cluster = %d", resp.StatusCode)
	}
	var view clusterResponse
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

// TestClusterAdminAuth: membership mutations require loopback or the
// shared cluster secret; the spoofable relay forward header is never
// sufficient. The read-only view is open like /healthz.
func TestClusterAdminAuth(t *testing.T) {
	svc, err := New(Config{
		Self:              "http://a",
		Peers:             []string{"http://a", "http://b"},
		ClusterSecret:     "fleet-credential",
		HeartbeatInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	h := svc.Handler()

	do := func(h http.Handler, remoteAddr, relayFrom, secret, peer string) *httptest.ResponseRecorder {
		body, err := json.Marshal(clusterRequest{Peer: peer, LocalOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/cluster/join", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if remoteAddr != "" {
			req.RemoteAddr = remoteAddr
		}
		if relayFrom != "" {
			req.Header.Set(forwardHeader, relayFrom)
		}
		if secret != "" {
			req.Header.Set(clusterSecretHeader, secret)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	// httptest.NewRequest's default RemoteAddr is 192.0.2.1 -- off-host.
	if rec := do(h, "", "", "", "http://c"); rec.Code != http.StatusForbidden {
		t.Errorf("off-host mutation = %d, want 403", rec.Code)
	}
	// The relay forward header is a loop guard any client can set, not
	// a credential: an off-host "relay" must NOT authorize a mutation.
	if rec := do(h, "198.51.100.7:4", "http://b", "", "http://c"); rec.Code != http.StatusForbidden {
		t.Errorf("off-host mutation with spoofed forward header = %d, want 403", rec.Code)
	}
	if rec := do(h, "198.51.100.7:4", "", "wrong-credential", "http://c"); rec.Code != http.StatusForbidden {
		t.Errorf("off-host mutation with wrong secret = %d, want 403", rec.Code)
	}
	if got := len(svc.store.Membership().Peers); got != 2 {
		t.Error("forbidden mutation still changed the membership")
	}
	if rec := do(h, "127.0.0.1:9999", "", "", "http://c"); rec.Code != http.StatusOK {
		t.Errorf("loopback mutation = %d, want 200: %s", rec.Code, rec.Body)
	}
	if rec := do(h, "[::1]:9999", "", "", "http://d"); rec.Code != http.StatusOK {
		t.Errorf("IPv6 loopback mutation = %d, want 200: %s", rec.Code, rec.Body)
	}
	if rec := do(h, "198.51.100.7:4", "", "fleet-credential", "http://e"); rec.Code != http.StatusOK {
		t.Errorf("off-host mutation with the cluster secret = %d, want 200: %s", rec.Code, rec.Body)
	}
	if got := len(svc.store.Membership().Peers); got != 5 {
		t.Errorf("membership has %d peers after three joins, want 5", got)
	}

	// With no secret configured, mutations are loopback-only: a secret
	// header (any value) must not open the door.
	bare, err := New(Config{
		Self:              "http://a",
		Peers:             []string{"http://a", "http://b"},
		HeartbeatInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bare.Close)
	if rec := do(bare.Handler(), "198.51.100.7:4", "", "anything", "http://c"); rec.Code != http.StatusForbidden {
		t.Errorf("secretless server accepted an off-host mutation: %d, want 403", rec.Code)
	}
	if got := len(bare.store.Membership().Peers); got != 2 {
		t.Error("secretless server's membership changed off-host")
	}

	// The read-only view is served to anyone who can reach the port.
	req := httptest.NewRequest(http.MethodGet, "/v1/cluster", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("off-host GET /v1/cluster = %d, want 200", rec.Code)
	}
}

// TestClusterNoIdentityMutationRejected: a server started without a
// fleet identity (no -self) refuses membership mutations with 409 --
// joining peers anyway would build a ring that excludes self and void
// the one-hop relay loop guard (the forward header would be empty).
func TestClusterNoIdentityMutationRejected(t *testing.T) {
	svc, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)

	body, err := json.Marshal(clusterRequest{Peer: "http://b"})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/cluster/join", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.RemoteAddr = "127.0.0.1:9" // even a local operator is refused
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusConflict {
		t.Fatalf("identity-less join = %d, want 409: %s", rec.Code, rec.Body)
	}
	var e map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e["kind"] != "no_fleet_identity" {
		t.Errorf("error kind = %v, want no_fleet_identity", e["kind"])
	}
	if m := svc.store.Membership(); len(m.Peers) != 0 || m.Version != 0 {
		t.Errorf("rejected mutation changed membership: %+v", m)
	}
}

// TestClusterPropagationCarriesSecret: propagated membership mutations
// authenticate themselves with the cluster secret; ordinary analysis
// relays never carry it.
func TestClusterPropagationCarriesSecret(t *testing.T) {
	var mu sync.Mutex
	headers := map[string]string{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		headers[r.URL.Path] = r.Header.Get(clusterSecretHeader)
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	svc, err := New(Config{
		Self:              "http://a",
		Peers:             []string{"http://a", "http://b"},
		ClusterSecret:     "fleet-credential",
		HeartbeatInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)

	for _, path := range []string{"/v1/cluster/join", "/v1/analyze/dmm"} {
		resp, err := svc.forward(context.Background(), ts.URL, path, []byte(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	mu.Lock()
	defer mu.Unlock()
	if got := headers["/v1/cluster/join"]; got != "fleet-credential" {
		t.Errorf("propagated mutation carried secret %q, want the configured credential", got)
	}
	if got := headers["/v1/analyze/dmm"]; got != "" {
		t.Errorf("analysis relay leaked the cluster secret %q", got)
	}
}

// TestClusterAdminValidation: malformed mutation bodies are rejected at
// the door with 400, and membership never changes.
func TestClusterAdminValidation(t *testing.T) {
	svc, err := New(Config{
		Self:              "http://a",
		Peers:             []string{"http://a", "http://b"},
		HeartbeatInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	h := svc.Handler()

	bad := []string{
		`{`,                                   // not JSON
		`{"peer": "http://c", "bogus": true}`, // unknown field (strict decode)
		`{"peer": ""}`,                        // empty
		`{"peer": "ftp://c"}`,                 // wrong scheme
		`{"peer": "http://"}`,                 // no host
		`{"peer": "http://c/api"}`,            // path
		`{"peer": "http://c?x=1"}`,            // query
		`{"peer": "http://c#frag"}`,           // fragment
		`{"peer": "::not a url::"}`,           // garbage
	}
	for _, body := range bad {
		req := httptest.NewRequest(http.MethodPost, "/v1/cluster/leave", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.RemoteAddr = "127.0.0.1:9"
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %q = %d, want 400 (%s)", body, rec.Code, rec.Body)
		}
	}
	if m := svc.store.Membership(); m.Version != 0 || len(m.Peers) != 2 {
		t.Errorf("rejected mutations changed membership to %+v", m)
	}
}

// TestClusterJoinLeavePropagation: one loopback POST to one replica
// reshapes the whole fleet's rings -- leave reaches the leaving replica
// too (which drains: it owns nothing but keeps serving), and a later
// join restores it everywhere.
func TestClusterJoinLeavePropagation(t *testing.T) {
	c := newCluster(t, 3, Config{HeartbeatInterval: time.Hour})

	view := getCluster(t, c.url(0))
	if !view.Fleet || len(view.Peers) != 3 || view.MembershipVersion != 0 {
		t.Fatalf("initial view = %+v", view)
	}
	states := map[string]int{}
	for _, p := range view.Peers {
		states[p.State]++
	}
	if states["self"] != 1 || states["up"] != 2 {
		t.Fatalf("initial peer states = %v", states)
	}

	// Leave: node 2 departs, announced to node 0 only.
	status, doc := post(t, c.url(0)+"/v1/cluster/leave", clusterRequest{Peer: c.url(2)})
	if status != http.StatusOK || doc["changed"] != true {
		t.Fatalf("leave = %d %v", status, doc)
	}
	for i := 0; i < 3; i++ {
		m := c.svcs[i].store.Membership()
		if len(m.Peers) != 2 || m.Version != 1 {
			t.Fatalf("replica %d membership after propagated leave = %+v", i, m)
		}
		for _, p := range m.Peers {
			if p == c.url(2) {
				t.Fatalf("replica %d still routes to the departed peer", i)
			}
		}
	}
	// The departed replica drained: in the fleet as a relay, owns nothing.
	if !c.svcs[2].store.Fleet() {
		t.Fatal("departed replica dropped out of the fleet instead of draining")
	}
	for i := 0; i < 20; i++ {
		if _, local := c.svcs[2].store.Route(fmt.Sprintf("k%d", i)); local {
			t.Fatal("drained replica still owns keys")
		}
	}

	// Join it back through a different member.
	status, doc = post(t, c.url(1)+"/v1/cluster/join", clusterRequest{Peer: c.url(2)})
	if status != http.StatusOK || doc["changed"] != true {
		t.Fatalf("join = %d %v", status, doc)
	}
	for i := 0; i < 3; i++ {
		if m := c.svcs[i].store.Membership(); len(m.Peers) != 3 || m.Version != 2 {
			t.Fatalf("replica %d membership after propagated join = %+v", i, m)
		}
	}

	// Idempotence: re-joining an existing member (with a trailing slash,
	// which validation normalizes away) changes nothing.
	status, doc = post(t, c.url(1)+"/v1/cluster/join", clusterRequest{Peer: c.url(2) + "/"})
	if status != http.StatusOK || doc["changed"] == true {
		t.Fatalf("repeat join = %d %v, want changed=false", status, doc)
	}
	if m := c.svcs[1].store.Membership(); m.Version != 2 {
		t.Errorf("no-op join bumped the version to %d", m.Version)
	}
}

// TestClusterRelayRetry pins the relay loop: a failed attempt reports
// its peer down and moves to the next ring arc after backoff; each
// candidate is tried at most once, so a lone candidate falls back at
// once; a deadline budget too short for the backoff gives up instead
// of outliving the caller's patience; and a slow owner that answers
// within budget is not reported down -- slowness is not death.
func TestClusterRelayRetry(t *testing.T) {
	defer faultinject.Disarm()
	body, err := json.Marshal(analyzeRequest{System: thalesJSON(t), Chain: "sigma_c", K: []int64{1, 10}})
	if err != nil {
		t.Fatal(err)
	}
	arm := func(t *testing.T, rules ...faultinject.Rule) {
		t.Helper()
		faultinject.Disarm()
		if err := faultinject.Configure(rules); err != nil {
			t.Fatal(err)
		}
	}
	retries := func(s *Server) int64 {
		s.met.mu.Lock()
		defer s.met.mu.Unlock()
		return s.met.relayRetries
	}
	relay := func(t *testing.T, s *Server, ctx context.Context, cands ...string) (int, string, error) {
		t.Helper()
		resp, peer, err := s.relay(ctx, cands, "/v1/analyze/dmm", body)
		if err != nil {
			return 0, "", err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, peer, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	t.Run("next arc after a failure", func(t *testing.T) {
		c := newCluster(t, 3, Config{HeartbeatInterval: time.Hour})
		arm(t, faultinject.Rule{Point: faultinject.PointServiceRelay, Action: faultinject.ActionError, Times: 1})
		status, peer, err := relay(t, c.svcs[0], ctx, c.url(1), c.url(2))
		if err != nil {
			t.Fatalf("relay with one injected failure: %v", err)
		}
		if status != http.StatusOK || peer != c.url(2) {
			t.Fatalf("relay answered %d via %q, want 200 via the second arc %q", status, peer, c.url(2))
		}
		if got := retries(c.svcs[0]); got != 1 {
			t.Errorf("relayRetries = %d, want 1", got)
		}
		if !c.svcs[0].store.Down(c.url(1)) {
			t.Error("failed arc not marked down")
		}
	})

	t.Run("lone candidate falls back at once", func(t *testing.T) {
		c := newCluster(t, 3, Config{HeartbeatInterval: time.Hour})
		arm(t, faultinject.Rule{Point: faultinject.PointServiceRelay, Action: faultinject.ActionError, Times: 1})
		_, _, err := relay(t, c.svcs[0], ctx, c.url(1))
		if !errors.Is(err, ErrPeerUnavailable) {
			t.Fatalf("relay to a failed lone candidate = %v, want ErrPeerUnavailable (local fallback)", err)
		}
		if got := retries(c.svcs[0]); got != 0 {
			t.Errorf("relayRetries = %d, want 0: the failed peer was retried", got)
		}
		if !c.svcs[0].store.Down(c.url(1)) {
			t.Error("failed candidate not marked down")
		}
	})

	t.Run("budget too short for the backoff", func(t *testing.T) {
		c := newCluster(t, 3, Config{HeartbeatInterval: time.Hour})
		arm(t, faultinject.Rule{Point: faultinject.PointServiceRelay, Action: faultinject.ActionError})
		start := time.Now()
		bctx, bcancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer bcancel()
		_, _, err := relay(t, c.svcs[0], bctx, c.url(1), c.url(2))
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("budget-starved relay took %v -- retried past the deadline", elapsed)
		}
		if !errors.Is(err, ErrPeerUnavailable) {
			t.Errorf("relay error = %v, want ErrPeerUnavailable", err)
		}
		if got := retries(c.svcs[0]); got != 0 {
			t.Errorf("budget-starved relay recorded %d retries, want 0", got)
		}
	})

	t.Run("slow owner within budget is not down", func(t *testing.T) {
		c := newCluster(t, 3, Config{HeartbeatInterval: time.Hour})
		arm(t, faultinject.Rule{Point: faultinject.PointServiceRelay, Action: faultinject.ActionDelay, Delay: 300 * time.Millisecond, Times: 1})
		status, peer, err := relay(t, c.svcs[0], ctx, c.url(1), c.url(2))
		if err != nil {
			t.Fatalf("slow relay: %v", err)
		}
		if status != http.StatusOK || peer != c.url(1) {
			t.Fatalf("slow relay answered %d via %q, want 200 via the owner %q", status, peer, c.url(1))
		}
		if got := retries(c.svcs[0]); got != 0 {
			t.Errorf("relayRetries = %d, want 0", got)
		}
		if c.svcs[0].store.Down(c.url(1)) {
			t.Error("slow-but-alive owner was reported down")
		}
	})
}

// TestClusterChurn is the membership-churn chaos round: mid-campaign, a
// fourth replica joins, one replica drains and leaves, and one is
// killed and evicted by the heartbeat prober -- and the stream still
// finishes with every document byte-identical to a single-node ground
// truth. Churn is a performance event, never a correctness event.
func TestClusterChurn(t *testing.T) {
	req := fleetCampaign(fleetSystems(t, 40))

	// Ground truth, computed before any chaos.
	_, truthTS := newTestServer(t, Config{})
	truth := runCampaign(t, truthTS.URL, req)

	cfg := Config{CampaignWorkers: 2, HeartbeatInterval: 25 * time.Millisecond}
	c := newCluster(t, 3, cfg)
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.url(0)+"/v1/campaign", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// The first line proves the campaign is in flight; all churn below
	// happens while items are still streaming.
	reader := bufio.NewReader(resp.Body)
	first, err := reader.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}

	// Churn 1: a fourth replica joins. One loopback POST to replica 0
	// propagates the new ring fleet-wide before returning.
	joiner := c.expand(t, cfg)
	status, doc := post(t, c.url(0)+"/v1/cluster/join", clusterRequest{Peer: c.url(joiner)})
	if status != http.StatusOK || doc["changed"] != true {
		t.Fatalf("mid-campaign join = %d %v", status, doc)
	}
	for i := 0; i < 3; i++ {
		if got := len(c.svcs[i].store.Membership().Peers); got != 4 {
			t.Fatalf("replica %d sees %d peers after join, want 4", i, got)
		}
	}

	// Churn 2: replica 2 drains and leaves -- it keeps serving in-flight
	// and relayed work but owns no arcs.
	status, doc = post(t, c.url(0)+"/v1/cluster/leave", clusterRequest{Peer: c.url(2)})
	if status != http.StatusOK || doc["changed"] != true {
		t.Fatalf("mid-campaign leave = %d %v", status, doc)
	}
	if _, local := c.svcs[2].store.Route("probe-key"); local {
		t.Fatal("drained replica still owns keys")
	}

	// Churn 3: replica 1 dies hard. No admin call -- the heartbeat
	// prober has to notice and evict it.
	c.kill(1)

	rest, err := io.ReadAll(reader)
	if err != nil {
		t.Fatalf("stream died during membership churn: %v", err)
	}
	lines := decodeNDJSON(t, bytes.NewReader(append(first, rest...)))
	if len(lines) != len(req.Items)+1 {
		t.Fatalf("stream has %d lines, want %d + summary -- items lost in the churn", len(lines), len(req.Items))
	}
	if sum := lines[len(req.Items)]; sum.Kind != schema.CampaignKindSummary || sum.Failed != 0 {
		t.Fatalf("summary = %+v, want zero failed items", sum)
	}
	assertDocsMatchTruth(t, lines[:len(req.Items)], truth, "churn campaign")

	// The heartbeat prober must evict the corpse: state-machine
	// transition recorded and the store routing around it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.svcs[0].met.mu.Lock()
		downs := c.svcs[0].met.heartbeatDowns
		c.svcs[0].met.mu.Unlock()
		if downs >= 1 && c.svcs[0].store.Down(c.url(1)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("heartbeat never evicted the killed replica (transitions=%d, down=%v)",
				downs, c.svcs[0].store.Down(c.url(1)))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The shrunken, churned fleet still answers the whole campaign
	// byte-exactly (warm where artifacts survived, recomputed where
	// they died with replica 1).
	wlines := runCampaign(t, c.url(0), req)
	assertDocsMatchTruth(t, wlines, truth, "post-churn campaign")

	view := getCluster(t, c.url(0))
	if len(view.Peers) != 3 {
		t.Errorf("post-churn view has %d peers, want 3 (joiner in, leaver out)", len(view.Peers))
	}
	if view.MembershipVersion != 2 {
		t.Errorf("post-churn membership version = %d, want 2", view.MembershipVersion)
	}
}

// TestClusterJoinTeachesNewcomer: a joiner booted knowing only itself
// and one sponsor learns the rest of the fleet from the join
// propagation -- the single operator POST converges every ring,
// including the newcomer's.
func TestClusterJoinTeachesNewcomer(t *testing.T) {
	c := newCluster(t, 3, Config{HeartbeatInterval: time.Hour})

	ts, hv := clusterListener()
	defer ts.Close()
	svc, err := New(Config{Self: ts.URL, Peers: []string{ts.URL, c.url(0)}, HeartbeatInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	hv.Store(http.HandlerFunc(svc.Handler().ServeHTTP))

	status, doc := post(t, c.url(0)+"/v1/cluster/join", clusterRequest{Peer: ts.URL})
	if status != http.StatusOK || doc["changed"] != true {
		t.Fatalf("join = %d %v", status, doc)
	}
	// Every incumbent admitted the newcomer...
	for i := 0; i < 3; i++ {
		if m := c.svcs[i].store.Membership(); len(m.Peers) != 4 {
			t.Fatalf("replica %d membership after join = %+v", i, m)
		}
	}
	// ...and the newcomer learned every incumbent, not just its sponsor.
	m := svc.store.Membership()
	if len(m.Peers) != 4 {
		t.Fatalf("newcomer membership = %+v, want the full fleet", m)
	}
	want := map[string]bool{ts.URL: true, c.url(0): true, c.url(1): true, c.url(2): true}
	for _, p := range m.Peers {
		if !want[p] {
			t.Fatalf("newcomer routes to unknown peer %q", p)
		}
		delete(want, p)
	}
	if len(want) != 0 {
		t.Fatalf("newcomer never learned %v", want)
	}
}
