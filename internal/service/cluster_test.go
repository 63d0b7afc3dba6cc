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
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/faultinject"
	"repro/internal/schema"
	"repro/internal/store"
)

// cluster is an in-process fleet: n real Servers, each fronted by a
// real httptest listener, all configured with the same peer set so the
// consistent-hash ring shards artifact ownership across them. The
// handler indirection (atomic.Value) exists because each Server's
// Config needs every listener URL before the Server can be built — and
// because chaos tests swap a replica's handler for a corpse mid-run.
type cluster struct {
	svcs     []*Server
	servers  []*httptest.Server
	handlers []*atomic.Value // each always holds an http.HandlerFunc
}

// listener spawns one httptest server whose handler is swappable
// through the returned atomic.Value (chaos tests store a corpse there).
func clusterListener() (*httptest.Server, *atomic.Value) {
	hv := &atomic.Value{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h, _ := hv.Load().(http.HandlerFunc)
		if h == nil {
			http.Error(w, "starting", http.StatusServiceUnavailable)
			return
		}
		h(w, r)
	}))
	return ts, hv
}

func newCluster(t testing.TB, n int, cfg Config) *cluster {
	t.Helper()
	c := &cluster{
		svcs:     make([]*Server, n),
		servers:  make([]*httptest.Server, n),
		handlers: make([]*atomic.Value, n),
	}
	urls := make([]string, n)
	for i := range c.servers {
		c.servers[i], c.handlers[i] = clusterListener()
		urls[i] = c.servers[i].URL
	}
	for i := range c.svcs {
		rcfg := cfg
		rcfg.Self = urls[i]
		rcfg.Peers = urls
		svc, err := New(rcfg)
		if err != nil {
			t.Fatal(err)
		}
		c.svcs[i] = svc
		c.handlers[i].Store(http.HandlerFunc(svc.Handler().ServeHTTP))
	}
	t.Cleanup(func() {
		for i := range c.servers {
			c.servers[i].Close()
			c.svcs[i].Close()
		}
	})
	return c
}

func (c *cluster) url(i int) string { return c.servers[i].URL }

// kill makes replica i behave like a dead or draining node: existing
// connections are severed mid-flight and every new request answers 503.
// (A plain httptest Close would block on in-flight requests — a real
// crash does not wait politely.)
func (c *cluster) kill(i int) {
	c.handlers[i].Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "killed", http.StatusServiceUnavailable)
	}))
	c.servers[i].CloseClientConnections()
}

// fleetStats sums the store counters across every replica.
func (c *cluster) fleetStats() store.Stats {
	var sum store.Stats
	for _, svc := range c.svcs {
		st := svc.StoreStats()
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Coalesced += st.Coalesced
		sum.PeerHits += st.PeerHits
		sum.SharedServes += st.SharedServes
		sum.PeerUnavailable += st.PeerUnavailable
		sum.LocalFallbacks += st.LocalFallbacks
	}
	return sum
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

// fleetSystems builds n distinct thales-scale systems: the case-study
// document with a perturbed sigma_d deadline (and name) per index, so
// every system hashes differently but costs a real analysis.
func fleetSystems(t testing.TB, n int) []json.RawMessage {
	t.Helper()
	base := thalesJSON(t)
	out := make([]json.RawMessage, n)
	for i := range out {
		var doc map[string]any
		if err := json.Unmarshal(base, &doc); err != nil {
			t.Fatal(err)
		}
		doc["name"] = fmt.Sprintf("thales-%03d", i)
		chains := doc["chains"].([]any)
		chain0 := chains[0].(map[string]any)
		chain0["deadline"] = 200 + float64(i)
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = data
	}
	return out
}

func fleetCampaign(systems []json.RawMessage) campaignRequest {
	// A wide dmm sweep (80 points up to k≈160000) makes each cold item
	// a real analysis — tens of milliseconds — while the resulting
	// document stays small, so the warm path is cache lookup and
	// transport, which TestClusterSharing's allocation ceiling bounds.
	ks := make([]int64, 80)
	for i := range ks {
		ks[i] = int64(i)*1997 + 1
	}
	items := make([]campaignItem, len(systems))
	for i, sys := range systems {
		items[i] = campaignItem{
			ID:             fmt.Sprintf("s%03d", i),
			analyzeRequest: analyzeRequest{System: sys, Chain: "sigma_c", K: ks},
		}
	}
	return campaignRequest{Items: items}
}

// runCampaign posts the campaign to a replica and returns the result
// lines (summary excluded, after checking it).
func runCampaign(t testing.TB, url string, req campaignRequest) []schema.CampaignLine {
	t.Helper()
	status, lines := postCampaign(t, url, req)
	if status != http.StatusOK {
		t.Fatalf("campaign status = %d", status)
	}
	if len(lines) != len(req.Items)+1 {
		t.Fatalf("campaign returned %d lines, want %d + summary", len(lines), len(req.Items))
	}
	sum := lines[len(req.Items)]
	if sum.Kind != schema.CampaignKindSummary || sum.Items != len(req.Items) {
		t.Fatalf("summary = %+v", sum)
	}
	return lines[:len(req.Items)]
}

// scrapeFleet sums the named /metrics series over every replica.
func (c *cluster) scrapeFleet(t *testing.T, series ...string) map[string]float64 {
	t.Helper()
	sum := make(map[string]float64, len(series))
	for i := range c.servers {
		for name, v := range scrapeMetrics(t, c.url(i), series...) {
			sum[name] += v
		}
	}
	return sum
}

// warmCampaignAllocsCeiling bounds the allocations of one warm repeat
// of TestClusterSharing's 50-item campaign, counted in the whole test
// process: the client, the replica it posts to, and the relays to the
// two owners. Measured at 35,300–41,100 on go1.24 linux/amd64, -race
// or not; the cold campaign costs about 115,000. Most of it is
// decoding and re-encoding 50 documents of 80 points each on the relay
// and client sides. Decoding the retained head of each locally served
// item and re-encoding it by reflection cost 45,700–46,800 (49,600
// under -race); decoding each point's Ω through a map cost
// 74,500–77,800 (80,700). The ceiling leaves about 25% headroom.
const warmCampaignAllocsCeiling = 51_000

// TestClusterSharing is the fleet acceptance test: a 50-system campaign
// against a 3-replica cluster computes every artifact exactly once
// fleet-wide (the store misses across all replicas account for each
// system once, with no duplicate computation on non-owners), and a warm
// repeat answers entirely from the sharded stores. Summed over the
// replicas, the warm repeats add no store miss
// (twca_store_misses_total +0), no ILP node (twca_ilp_nodes_total +0)
// and no decode (twca_system_decodes_total{source="decoded"} +0), and
// one stays under warmCampaignAllocsCeiling. These are counters, not a
// warm/cold wall-clock ratio, which depends on host load and on how
// cheap the cold analysis is.
func TestClusterSharing(t *testing.T) {
	c := newCluster(t, 3, Config{})
	req := fleetCampaign(fleetSystems(t, 50))

	lines := runCampaign(t, c.url(0), req)
	hashes := map[string]bool{}
	for i, line := range lines {
		if line.Kind != schema.CampaignKindDMM || line.Analysis == nil {
			t.Fatalf("cold line %d = kind %q error %q", i, line.Kind, line.Error)
		}
		hashes[line.SystemHash] = true
	}
	if len(hashes) != len(req.Items) {
		t.Fatalf("only %d distinct system hashes across %d systems — fixture is degenerate", len(hashes), len(req.Items))
	}

	// Exactly-once: each system costs exactly one analysis-artifact
	// computation, on its owning replica only. (The rendered-document
	// sidecar is a Peek/Add cache and never counts a miss.) Any
	// duplicated computation — a non-owner analyzing instead of
	// relaying, or singleflight failing to coalesce — shows up here as
	// an extra miss.
	st := c.fleetStats()
	if want := int64(len(req.Items)); st.Misses != want {
		t.Errorf("fleet-wide misses = %d, want exactly %d (one artifact per system)", st.Misses, want)
	}
	if st.SharedServes == 0 || st.PeerHits == 0 {
		t.Errorf("no cross-replica traffic (shared %d, peer hits %d) — ring is not sharding", st.SharedServes, st.PeerHits)
	}
	if st.PeerUnavailable != 0 || st.LocalFallbacks != 0 {
		t.Errorf("healthy cluster recorded %d peer failures, %d local fallbacks", st.PeerUnavailable, st.LocalFallbacks)
	}

	// Warm repeats: zero new computation anywhere in the fleet.
	series := []string{
		"twca_store_misses_total",
		"twca_ilp_nodes_total",
		`twca_system_decodes_total{source="decoded"}`,
	}
	cold := c.scrapeFleet(t, series...)
	for run := 0; run < 3; run++ {
		for i, line := range runCampaign(t, c.url(0), req) {
			if line.Kind != schema.CampaignKindDMM || line.Analysis == nil {
				t.Fatalf("warm line %d = kind %q", i, line.Kind)
			}
			if line.Cache == string(store.OutcomeMiss) {
				t.Errorf("warm run %d line %d recomputed (cache=miss)", run, i)
			}
		}
	}
	warm := c.scrapeFleet(t, series...)
	for _, name := range series {
		if warm[name] != cold[name] {
			t.Errorf("fleet-wide %s moved from %v to %v over the warm repeats, want +0", name, cold[name], warm[name])
		}
	}

	allocs := testing.AllocsPerRun(3, func() { runCampaign(t, c.url(0), req) })
	t.Logf("warm campaign: %.0f allocs (ceiling %d)", allocs, warmCampaignAllocsCeiling)
	if allocs > warmCampaignAllocsCeiling {
		t.Errorf("warm campaign allocates %.0f times, ceiling %d", allocs, warmCampaignAllocsCeiling)
	}
}

// TestClusterSingleflight: concurrent identical requests sprayed across
// every replica still compute the artifact exactly once — non-owners
// relay to the owner, and the owner's in-flight coalescing absorbs the
// stampede. This is the fleet-wide singleflight property.
func TestClusterSingleflight(t *testing.T) {
	c := newCluster(t, 3, Config{})
	sys := thalesJSON(t)
	req := analyzeRequest{System: sys, Chain: "sigma_c", K: []int64{1, 10, 100}}

	const n = 12
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, doc := post(t, c.url(i%3)+"/v1/analyze/dmm", req)
			if status != http.StatusOK {
				errs[i] = fmt.Errorf("request %d: status %d body %v", i, status, doc)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := c.fleetStats()
	if st.Misses != 1 {
		t.Errorf("fleet-wide misses = %d, want 1 (the artifact computed once, ever) — singleflight leaked", st.Misses)
	}
	if st.SharedServes == 0 {
		t.Error("owner served no relayed requests — everything computed locally")
	}
}

// TestClusterChaosKillReplica kills one replica mid-campaign and
// requires the stream to finish anyway with every document exactly
// right: items owned by the dead replica re-route (next ring arc or
// local compute), costing duplicated work but never a wrong or missing
// bound. Ground truth is the same campaign on an isolated single-node
// server — documents must match byte for byte. The heartbeat sleeps
// out its hour, so only relay reports write the down set.
func TestClusterChaosKillReplica(t *testing.T) {
	req := fleetCampaign(fleetSystems(t, 40))

	// Ground truth, computed before any chaos.
	_, truthTS := newTestServer(t, Config{})
	truth := runCampaign(t, truthTS.URL, req)

	c := newCluster(t, 3, Config{CampaignWorkers: 2, HeartbeatInterval: time.Hour})
	// The probe item is one the doomed replica owns. The ring owner is a
	// pure function of the peer set, so it is picked before the kill.
	ring := store.NewRing(c.svcs[0].store.Peers(), 0)
	probe := -1
	for i, line := range truth[:len(req.Items)] {
		if ring.Owner(routeKey(line.SystemHash)) == c.url(1) {
			probe = i
			break
		}
	}
	if probe < 0 {
		t.Fatal("no campaign item is owned by the replica to kill — fixture is degenerate")
	}

	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.url(0)+"/v1/campaign", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Read the first line — the campaign is demonstrably in flight —
	// then kill a replica that is not the one we are streaming from.
	reader := bufio.NewReader(resp.Body)
	first, err := reader.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	c.kill(1)

	rest, err := io.ReadAll(reader)
	if err != nil {
		t.Fatalf("stream died after replica kill: %v", err)
	}
	lines := decodeNDJSON(t, bytes.NewReader(append(first, rest...)))
	if len(lines) != len(req.Items)+1 {
		t.Fatalf("stream has %d lines, want %d + summary — items lost in the kill", len(lines), len(req.Items))
	}
	if sum := lines[len(req.Items)]; sum.Kind != schema.CampaignKindSummary || sum.Failed != 0 {
		t.Fatalf("summary = %+v, want zero failed items", sum)
	}
	for i, line := range lines[:len(req.Items)] {
		if line.Kind != schema.CampaignKindDMM || line.Analysis == nil {
			t.Fatalf("line %d = kind %q error %q cause %q", i, line.Kind, line.Error, line.Cause)
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
			t.Errorf("item %d document differs from ground truth after replica kill:\ngot:  %s\nwant: %s", i, got, want)
		}
	}
	// Observe the kill deterministically (whether the campaign itself
	// raced the kill is timing): restore the corpse into replica 0's
	// routing, as a successful probe would, then send the item it owns —
	// the relay attempt must fail, report it down again, and still
	// answer 200 via the next arc or local fallback.
	c.svcs[0].store.MarkUp(c.url(1))
	before := c.svcs[0].StoreStats()
	if status, doc := post(t, c.url(0)+"/v1/analyze/dmm", req.Items[probe].analyzeRequest); status != http.StatusOK {
		t.Fatalf("request owned by dead replica answered %d %v — failover broken", status, doc)
	}
	if st := c.svcs[0].StoreStats(); st.PeerUnavailable == before.PeerUnavailable {
		t.Error("no peer failure recorded for a relay to the killed replica")
	}
	if !c.svcs[0].store.Down(c.url(1)) {
		t.Error("killed replica not marked down after the failed relay")
	}
	for _, p := range getCluster(t, c.url(0)).Peers {
		if p.URL == c.url(1) && p.State != "down" {
			t.Errorf("GET /v1/cluster reports the killed replica %q, want down", p.State)
		}
	}
}

// TestClusterDecodeOnce: on a 3-replica fleet, a repeated relayed read
// decodes the system on neither hop — the entry replica routes on the
// memoized hash, and the owner resolves the relayed bytes from its own
// memo before its store hit — and the relayed body is byte-identical to
// a single-node server's answer to the same read.
func TestClusterDecodeOnce(t *testing.T) {
	c := newCluster(t, 3, Config{})
	body := rawRequest(thalesJSON(t), `"chain": "sigma_c", "constraints": [{"m": 5, "k": 10}, {"m": 1, "k": 3}]`)
	sys, err := (&analyzeRequest{System: thalesJSON(t)}).decodeSystem()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := repro.CanonicalHash(sys)
	if err != nil {
		t.Fatal(err)
	}
	owner := -1
	for i, svc := range c.svcs {
		if _, local := svc.store.Route(routeKey(hash)); local {
			owner = i
		}
	}
	if owner < 0 {
		t.Fatal("no replica owns the system")
	}
	entry := (owner + 1) % len(c.svcs)

	status, cold := postBytes(t, c.url(entry)+"/v1/verify", body)
	if status != http.StatusOK {
		t.Fatalf("cold read = %d: %s", status, cold)
	}
	type counts struct{ memo, decoded int64 }
	before := make([]counts, len(c.svcs))
	for i, svc := range c.svcs {
		before[i].memo, before[i].decoded = decodeCounts(svc)
	}
	misses := c.fleetStats().Misses

	status, warm := postBytes(t, c.url(entry)+"/v1/verify", body)
	if status != http.StatusOK {
		t.Fatalf("repeat read = %d: %s", status, warm)
	}
	for i, svc := range c.svcs {
		memo, decoded := decodeCounts(svc)
		if decoded != before[i].decoded {
			t.Errorf("replica %d decoded the repeat %d times, want 0", i, decoded-before[i].decoded)
		}
		want := int64(0)
		if i == entry || i == owner {
			want = 1
		}
		if got := memo - before[i].memo; got != want {
			t.Errorf("replica %d resolved %d memo hits on the repeat, want %d", i, got, want)
		}
	}
	if after := c.fleetStats(); after.Misses != misses || after.PeerHits == 0 {
		t.Errorf("repeat read: %d new misses, %d peer hits — want a relayed store hit", after.Misses-misses, after.PeerHits)
	}

	_, single := newTestServer(t, Config{})
	postBytes(t, single.URL+"/v1/verify", body)
	status, want := postBytes(t, single.URL+"/v1/verify", body)
	if status != http.StatusOK || !bytes.Equal(warm, want) {
		t.Errorf("relayed repeat differs from the single-node answer:\n%s\nwant\n%s", warm, want)
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
