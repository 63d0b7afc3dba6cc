package service

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/store"
)

// metrics is the service's observability surface, exposed in
// Prometheus text exposition format at /metrics. It is deliberately
// dependency-free: a handful of mutex-guarded counters and fixed-bucket
// histograms cover request accounting, cache effectiveness and
// analysis cost without pulling a client library into the module.
type metrics struct {
	start time.Time

	mu sync.Mutex
	// requests counts finished HTTP requests by "endpoint|status".
	requests map[string]int64
	// campaign item outcomes: ok lines versus campaign_partial lines
	// across all /v1/campaign streams.
	campaignOK, campaignFailed int64
	// systemsFromMemo counts requests whose system hash came from the
	// digest memo without a decode; systemsDecoded counts every decode of
	// a request system, whether to learn its hash or to analyze it, and
	// whether it succeeded or not; systemsFromWarm counts sensitivity
	// queries that analyzed the warm store's retained nominal system
	// instead of decoding.
	systemsFromMemo, systemsDecoded, systemsFromWarm int64
	// ilpNodes accumulates branch-and-bound nodes across all DMM
	// queries — the "how hard is the solver working" counter.
	ilpNodes int64
	// bisectionSteps accumulates predicate evaluations across
	// sensitivity queries.
	bisectionSteps int64
	// degradedResults counts responses answered below Exact quality,
	// keyed by the exhausted budget ("deadline", "ilp-nodes",
	// "combinations", "injected", ...).
	degradedResults map[string]int64
	// workerPanics counts analyses that failed because a worker task
	// panicked (recovered to an error; the process survived).
	workerPanics int64
	// fleet relay resilience counters: retries walked to the next ring
	// arc, responses truncated mid-stream by a dying peer, and 429
	// throttles propagated instead of being treated as peer death.
	relayRetries, relayTruncations, relayThrottles int64
	// heartbeat counters: probes by result and the up/down edges of the
	// store's down set (from probes and relay reports).
	heartbeatOK, heartbeatFail   int64
	heartbeatUps, heartbeatDowns int64
	// membership samples the store's membership view at scrape time.
	membership func() store.Membership
	// analysis duration histograms by kind ("dmm", "latency",
	// "sensitivity").
	durations map[string]*histogram
	// inflight is sampled from the admission gate at scrape time.
	inflight func() int
	// storeStats is sampled from the two-tier artifact store at scrape
	// time (local LRU counters plus fleet routing counters); it also
	// renders the cache outcome series.
	storeStats func() store.Stats
	// warmStats is sampled from the process-wide sensitivity warm store
	// at scrape time: hits are probes answered from a stored artifact at
	// the exact perturbation coordinate, misses fell through to a cold or
	// warm-seeded solve, and injected counts fault-injected store outages
	// (see faultinject.PointSensitivityWarmStore).
	warmStats func() (hits, misses, injected int64)
}

func newMetrics(inflight func() int) *metrics {
	return &metrics{
		start:           time.Now(),
		requests:        make(map[string]int64),
		durations:       make(map[string]*histogram),
		degradedResults: make(map[string]int64),
		inflight:        inflight,
	}
}

// histogram is a fixed-bucket cumulative histogram of seconds.
type histogram struct {
	counts [len(histBuckets) + 1]int64 // +1 for the +Inf bucket
	sum    float64
	total  int64
}

// histBuckets spans 100µs (a cache-hit response) to 10s (a pathological
// combination space), upper bounds in seconds.
var histBuckets = [...]float64{0.0001, 0.001, 0.01, 0.1, 1, 10}

func (h *histogram) observe(seconds float64) {
	i := 0
	for ; i < len(histBuckets); i++ {
		if seconds <= histBuckets[i] {
			break
		}
	}
	h.counts[i]++
	h.sum += seconds
	h.total++
}

func (m *metrics) request(endpoint string, status int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[endpoint+"|"+strconv.Itoa(status)]++
}

// campaignItem accounts one streamed campaign line: a result document
// (ok) or a campaign_partial error line.
func (m *metrics) campaignItem(ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ok {
		m.campaignOK++
	} else {
		m.campaignFailed++
	}
}

func (m *metrics) observeAnalysis(kind string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.durations[kind]
	if h == nil {
		h = &histogram{}
		m.durations[kind] = h
	}
	h.observe(d.Seconds())
}

// systemSource is how a request system was materialized.
type systemSource int

const (
	fromMemo   systemSource = iota // hash from the digest memo, no decode
	fromDecode                     // a full decode
	fromWarm                       // the warm store's retained nominal system
)

// systemDecode records how a request system was materialized.
func (m *metrics) systemDecode(src systemSource) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch src {
	case fromMemo:
		m.systemsFromMemo++
	case fromDecode:
		m.systemsDecoded++
	case fromWarm:
		m.systemsFromWarm++
	}
}

func (m *metrics) addILPNodes(n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ilpNodes += n
}

func (m *metrics) addBisectionSteps(n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.bisectionSteps += n
}

// degraded accounts n results answered below Exact quality under the
// named exhausted budget.
func (m *metrics) degraded(budget string, n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.degradedResults[budget] += n
}

// workerPanic accounts one recovered worker-task panic.
func (m *metrics) workerPanic() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.workerPanics++
}

// relayRetry accounts one relay attempt retried onto the next ring arc.
func (m *metrics) relayRetry() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.relayRetries++
}

// relayTruncated accounts one relayed response cut off mid-stream by a
// dying peer (the bytes already sent are short; the peer is marked
// down by the caller).
func (m *metrics) relayTruncated() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.relayTruncations++
}

// relayThrottle accounts one 429 answered by a peer — admission
// control propagated, never counted as peer death.
func (m *metrics) relayThrottle() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.relayThrottles++
}

// heartbeatProbe accounts one health probe round-trip.
func (m *metrics) heartbeatProbe(ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ok {
		m.heartbeatOK++
	} else {
		m.heartbeatFail++
	}
}

// heartbeatTransition accounts one probe-driven peer state edge.
func (m *metrics) heartbeatTransition(up bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if up {
		m.heartbeatUps++
	} else {
		m.heartbeatDowns++
	}
}

// write renders the Prometheus text exposition. Keys are emitted in
// sorted order so scrapes (and tests) are deterministic.
func (m *metrics) write(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP twca_uptime_seconds Time since the service started.\n")
	fmt.Fprintf(w, "# TYPE twca_uptime_seconds gauge\n")
	fmt.Fprintf(w, "twca_uptime_seconds %g\n", time.Since(m.start).Seconds())

	fmt.Fprintf(w, "# HELP twca_requests_total Finished HTTP requests by endpoint and status.\n")
	fmt.Fprintf(w, "# TYPE twca_requests_total counter\n")
	keys := make([]string, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		endpoint, status := k, ""
		for i := range k {
			if k[i] == '|' {
				endpoint, status = k[:i], k[i+1:]
				break
			}
		}
		fmt.Fprintf(w, "twca_requests_total{endpoint=%q,status=%q} %d\n", endpoint, status, m.requests[k])
	}

	if m.storeStats != nil {
		st := m.storeStats()
		fmt.Fprintf(w, "# HELP twca_cache_requests_total Analysis cache lookups by outcome.\n")
		fmt.Fprintf(w, "# TYPE twca_cache_requests_total counter\n")
		fmt.Fprintf(w, "twca_cache_requests_total{outcome=\"hit\"} %d\n", st.Hits)
		fmt.Fprintf(w, "twca_cache_requests_total{outcome=\"miss\"} %d\n", st.Misses)
		fmt.Fprintf(w, "twca_cache_requests_total{outcome=\"coalesced\"} %d\n", st.Coalesced)
		fmt.Fprintf(w, "twca_cache_requests_total{outcome=\"peer\"} %d\n", st.PeerHits)

		ratio := 0.0
		if total := st.Hits + st.Misses + st.Coalesced; total > 0 {
			ratio = float64(st.Hits) / float64(total)
		}
		fmt.Fprintf(w, "# HELP twca_cache_hit_ratio Fraction of cacheable requests answered from the LRU.\n")
		fmt.Fprintf(w, "# TYPE twca_cache_hit_ratio gauge\n")
		fmt.Fprintf(w, "twca_cache_hit_ratio %g\n", ratio)

		fmt.Fprintf(w, "# HELP twca_store_local_hits_total Artifact requests answered from this replica's LRU.\n")
		fmt.Fprintf(w, "# TYPE twca_store_local_hits_total counter\n")
		fmt.Fprintf(w, "twca_store_local_hits_total %d\n", st.Hits)
		fmt.Fprintf(w, "# HELP twca_store_misses_total Artifact requests that ran an analysis on this replica.\n")
		fmt.Fprintf(w, "# TYPE twca_store_misses_total counter\n")
		fmt.Fprintf(w, "twca_store_misses_total %d\n", st.Misses)
		fmt.Fprintf(w, "# HELP twca_store_shared_hits_total Requests this replica served to peers as the artifact owner.\n")
		fmt.Fprintf(w, "# TYPE twca_store_shared_hits_total counter\n")
		fmt.Fprintf(w, "twca_store_shared_hits_total %d\n", st.SharedServes)
		fmt.Fprintf(w, "# HELP twca_store_peer_hits_total Requests this replica relayed to the owning peer and got answered.\n")
		fmt.Fprintf(w, "# TYPE twca_store_peer_hits_total counter\n")
		fmt.Fprintf(w, "twca_store_peer_hits_total %d\n", st.PeerHits)
		fmt.Fprintf(w, "# HELP twca_store_peer_unavailable_total Relays that failed because the owning peer was unreachable or refusing.\n")
		fmt.Fprintf(w, "# TYPE twca_store_peer_unavailable_total counter\n")
		fmt.Fprintf(w, "twca_store_peer_unavailable_total %d\n", st.PeerUnavailable)
		fmt.Fprintf(w, "# HELP twca_store_local_fallbacks_total Requests computed locally after their owning peer was unreachable.\n")
		fmt.Fprintf(w, "# TYPE twca_store_local_fallbacks_total counter\n")
		fmt.Fprintf(w, "twca_store_local_fallbacks_total %d\n", st.LocalFallbacks)
	}

	fmt.Fprintf(w, "# HELP twca_campaign_items_total Streamed campaign lines by result.\n")
	fmt.Fprintf(w, "# TYPE twca_campaign_items_total counter\n")
	fmt.Fprintf(w, "twca_campaign_items_total{result=\"ok\"} %d\n", m.campaignOK)
	fmt.Fprintf(w, "twca_campaign_items_total{result=\"partial\"} %d\n", m.campaignFailed)

	fmt.Fprintf(w, "# HELP twca_system_decodes_total Request systems by source: hashes answered from the digest memo, full decodes, or the warm store's retained nominal system.\n")
	fmt.Fprintf(w, "# TYPE twca_system_decodes_total counter\n")
	fmt.Fprintf(w, "twca_system_decodes_total{source=\"memo\"} %d\n", m.systemsFromMemo)
	fmt.Fprintf(w, "twca_system_decodes_total{source=\"decoded\"} %d\n", m.systemsDecoded)
	fmt.Fprintf(w, "twca_system_decodes_total{source=\"warm\"} %d\n", m.systemsFromWarm)

	fmt.Fprintf(w, "# HELP twca_ilp_nodes_total Branch-and-bound nodes explored by DMM queries.\n")
	fmt.Fprintf(w, "# TYPE twca_ilp_nodes_total counter\n")
	fmt.Fprintf(w, "twca_ilp_nodes_total %d\n", m.ilpNodes)

	fmt.Fprintf(w, "# HELP twca_sensitivity_bisection_steps_total Predicate evaluations across sensitivity bisection searches.\n")
	fmt.Fprintf(w, "# TYPE twca_sensitivity_bisection_steps_total counter\n")
	fmt.Fprintf(w, "twca_sensitivity_bisection_steps_total %d\n", m.bisectionSteps)

	if m.warmStats != nil {
		hits, misses, injected := m.warmStats()
		fmt.Fprintf(w, "# HELP twca_sensitivity_warm_store_total Warm-store lookups by sensitivity probes, by outcome.\n")
		fmt.Fprintf(w, "# TYPE twca_sensitivity_warm_store_total counter\n")
		fmt.Fprintf(w, "twca_sensitivity_warm_store_total{outcome=\"hit\"} %d\n", hits)
		fmt.Fprintf(w, "twca_sensitivity_warm_store_total{outcome=\"miss\"} %d\n", misses)
		fmt.Fprintf(w, "twca_sensitivity_warm_store_total{outcome=\"injected\"} %d\n", injected)
	}

	fmt.Fprintf(w, "# HELP twca_degraded_results_total Results answered below exact quality, by exhausted budget.\n")
	fmt.Fprintf(w, "# TYPE twca_degraded_results_total counter\n")
	budgets := make([]string, 0, len(m.degradedResults))
	for b := range m.degradedResults {
		budgets = append(budgets, b)
	}
	sort.Strings(budgets)
	for _, b := range budgets {
		fmt.Fprintf(w, "twca_degraded_results_total{budget=%q} %d\n", b, m.degradedResults[b])
	}

	fmt.Fprintf(w, "# HELP twca_worker_panics_total Analyses failed by a recovered worker-task panic.\n")
	fmt.Fprintf(w, "# TYPE twca_worker_panics_total counter\n")
	fmt.Fprintf(w, "twca_worker_panics_total %d\n", m.workerPanics)

	fmt.Fprintf(w, "# HELP twca_fleet_relay_retries_total Relay attempts retried onto the next ring arc.\n")
	fmt.Fprintf(w, "# TYPE twca_fleet_relay_retries_total counter\n")
	fmt.Fprintf(w, "twca_fleet_relay_retries_total %d\n", m.relayRetries)

	fmt.Fprintf(w, "# HELP twca_fleet_relay_truncated_total Relayed responses cut off mid-stream by a dying peer.\n")
	fmt.Fprintf(w, "# TYPE twca_fleet_relay_truncated_total counter\n")
	fmt.Fprintf(w, "twca_fleet_relay_truncated_total %d\n", m.relayTruncations)

	fmt.Fprintf(w, "# HELP twca_fleet_relay_throttled_total Relays answered 429 by a live peer (propagated, not a failure).\n")
	fmt.Fprintf(w, "# TYPE twca_fleet_relay_throttled_total counter\n")
	fmt.Fprintf(w, "twca_fleet_relay_throttled_total %d\n", m.relayThrottles)

	fmt.Fprintf(w, "# HELP twca_heartbeat_probes_total Peer health probes by result.\n")
	fmt.Fprintf(w, "# TYPE twca_heartbeat_probes_total counter\n")
	fmt.Fprintf(w, "twca_heartbeat_probes_total{result=\"ok\"} %d\n", m.heartbeatOK)
	fmt.Fprintf(w, "twca_heartbeat_probes_total{result=\"fail\"} %d\n", m.heartbeatFail)

	fmt.Fprintf(w, "# HELP twca_heartbeat_transitions_total Peer down-state transitions, from probes and relay failure reports.\n")
	fmt.Fprintf(w, "# TYPE twca_heartbeat_transitions_total counter\n")
	fmt.Fprintf(w, "twca_heartbeat_transitions_total{to=\"up\"} %d\n", m.heartbeatUps)
	fmt.Fprintf(w, "twca_heartbeat_transitions_total{to=\"down\"} %d\n", m.heartbeatDowns)

	if m.membership != nil {
		mb := m.membership()
		fmt.Fprintf(w, "# HELP twca_cluster_peers Members of this replica's ring view by state.\n")
		fmt.Fprintf(w, "# TYPE twca_cluster_peers gauge\n")
		fmt.Fprintf(w, "twca_cluster_peers{state=\"up\"} %d\n", len(mb.Peers)-len(mb.Down))
		fmt.Fprintf(w, "twca_cluster_peers{state=\"down\"} %d\n", len(mb.Down))
	}

	if m.inflight != nil {
		fmt.Fprintf(w, "# HELP twca_analyses_inflight Analyses currently holding an admission slot.\n")
		fmt.Fprintf(w, "# TYPE twca_analyses_inflight gauge\n")
		fmt.Fprintf(w, "twca_analyses_inflight %d\n", m.inflight())
	}

	fmt.Fprintf(w, "# HELP twca_analysis_duration_seconds End-to-end analysis time by kind.\n")
	fmt.Fprintf(w, "# TYPE twca_analysis_duration_seconds histogram\n")
	kinds := make([]string, 0, len(m.durations))
	for k := range m.durations {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		h := m.durations[kind]
		cum := int64(0)
		for i, ub := range histBuckets {
			cum += h.counts[i]
			fmt.Fprintf(w, "twca_analysis_duration_seconds_bucket{kind=%q,le=%q} %d\n", kind, strconv.FormatFloat(ub, 'g', -1, 64), cum)
		}
		cum += h.counts[len(histBuckets)]
		fmt.Fprintf(w, "twca_analysis_duration_seconds_bucket{kind=%q,le=\"+Inf\"} %d\n", kind, cum)
		fmt.Fprintf(w, "twca_analysis_duration_seconds_sum{kind=%q} %g\n", kind, h.sum)
		fmt.Fprintf(w, "twca_analysis_duration_seconds_count{kind=%q} %d\n", kind, h.total)
	}
}
