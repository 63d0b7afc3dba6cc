// Package service implements the long-running TWCA analysis daemon
// behind cmd/twca-serve: an HTTP/JSON API (versioned under /v1/) that
// accepts a system description (native JSON or the DSL), runs the
// latency / deadline-miss-model / weakly-hard-verify analyses of the
// paper plus sensitivity queries (WCET slack, breakdown jitter and
// distance, (m,k) frontiers), and answers dmm(k) and breakpoint-sweep
// queries — one at a time, or many per request over the streaming
// /v1/campaign endpoint.
//
// Four properties make it a service rather than a CGI wrapper around
// the library:
//
//   - Content-addressed caching, fleet-wide. The canonical hash of the
//     system (model.CanonicalHash) plus the analysis kind, target chain
//     and option fingerprint addresses a completed analysis artifact in
//     a two-tier store (internal/store): a per-node LRU in front of a
//     consistent-hash-sharded fleet of replicas. A repeat query skips
//     the analysis entirely; on a multi-replica deployment (Config.Self
//     / Config.Peers) the replica owning the model hash computes and
//     caches each artifact once while the others relay its responses.
//     In-flight analyses are coalesced: N concurrent identical requests
//     — on any mix of replicas — cost one analysis.
//
//   - Bounded concurrency and cancellation. Analyses are admitted
//     through a parallel.Gate; beyond the limit, requests queue
//     (FIFO-ish) instead of piling up goroutines. Every analysis runs
//     under a context canceled by client disconnect, the per-request
//     deadline, or server shutdown — and the analysis engine
//     cooperates (see repro.AnalysisRequest).
//
//   - Batch streaming. POST /v1/campaign accepts many systems in one
//     request and streams one NDJSON result line per item as analyses
//     complete, through the same worker pool, cache tier and
//     degradation ladder as the unary endpoints; item failures become
//     campaign_partial lines instead of aborting the stream.
//
//   - Observability. /healthz for liveness, /metrics in Prometheus
//     text format (request counts, store hit ratios per tier, analysis
//     latency histograms, ILP node counters), optional net/http/pprof.
//
// See docs/SERVICE.md for the endpoint reference and a worked curl
// session.
package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/parallel"
	"repro/internal/schema"
	"repro/internal/store"
)

// Config tunes the service. The zero value picks sensible defaults.
type Config struct {
	// CacheSize bounds the number of retained analysis artifacts
	// (default 128). Each artifact is a completed analysis of one
	// (system, chain, options) triple. It also bounds the memo that maps
	// the digest of a request's system bytes to their canonical hash.
	CacheSize int
	// RequestTimeout is the per-request analysis deadline (default
	// 30s). Requests exceeding it fail with 504. Campaign requests
	// apply it per item, not to the whole stream.
	RequestTimeout time.Duration
	// MaxInflight bounds concurrently running analyses (default
	// GOMAXPROCS). Excess requests wait at the admission gate.
	MaxInflight int
	// MaxBodyBytes bounds request bodies (default 8 MiB).
	MaxBodyBytes int64
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// DrainTimeout bounds graceful shutdown (default 30s): after
	// StartDrain, new analysis requests are refused with 503 +
	// Retry-After immediately, and in-flight requests that outlive the
	// timeout are canceled and also answered 503 (the work is lost to
	// the restart, not to the system — a retry after Retry-After hits a
	// healthy instance).
	DrainTimeout time.Duration
	// Self and Peers configure the sharded analysis tier: Peers is the
	// fixed set of replica base URLs (e.g. "http://10.0.0.1:8443", a
	// scheme and host with no path), Self this replica's own entry in
	// it. Artifact ownership is consistent-hashed on the model hash
	// across the peer set; requests for models owned elsewhere are
	// relayed to the owner, with local fallback when it is
	// unreachable. Fewer than two peers disables routing. The ring is
	// built once at start-up: a new peer list takes a restart (see
	// docs/SERVICE.md, "Changing the peer list").
	Self  string
	Peers []string
	// HeartbeatInterval is the period of the active peer health probe
	// (jittered ±20% per round; default 2s). The prober runs whenever
	// the replica is on a multi-peer ring: it is the one failure
	// detector, and its probes are the only way a downed peer returns
	// to routing (see heartbeat.go).
	HeartbeatInterval time.Duration
	// MaxCampaignItems bounds the items of one /v1/campaign request
	// (default 1024).
	MaxCampaignItems int
	// CampaignWorkers bounds how many campaign items one request
	// evaluates concurrently (default MaxInflight's resolved value).
	// Item analyses still pass the global admission gate, so a
	// campaign cannot starve unary requests.
	CampaignWorkers int
}

func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.MaxCampaignItems <= 0 {
		c.MaxCampaignItems = 1024
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 2 * time.Second
	}
	// Normalize into a fresh slice: the caller's Peers stay untouched.
	c.Self = trimPeerURL(c.Self)
	peers := make([]string, len(c.Peers))
	for i, p := range c.Peers {
		peers[i] = trimPeerURL(p)
	}
	c.Peers = peers
	return c
}

// Validate rejects nonsensical configurations (negative sizes or
// timeouts, a peer URL that is not a bare http(s) base URL, a fleet
// without a self identity); zero values select the defaults.
func (c Config) Validate() error {
	if c.CacheSize < 0 {
		return errNegative("CacheSize", int64(c.CacheSize))
	}
	if c.MaxInflight < 0 {
		return errNegative("MaxInflight", int64(c.MaxInflight))
	}
	if c.RequestTimeout < 0 {
		return errNegative("RequestTimeout", int64(c.RequestTimeout))
	}
	if c.MaxBodyBytes < 0 {
		return errNegative("MaxBodyBytes", c.MaxBodyBytes)
	}
	if c.DrainTimeout < 0 {
		return errNegative("DrainTimeout", int64(c.DrainTimeout))
	}
	if c.MaxCampaignItems < 0 {
		return errNegative("MaxCampaignItems", int64(c.MaxCampaignItems))
	}
	if c.CampaignWorkers < 0 {
		return errNegative("CampaignWorkers", int64(c.CampaignWorkers))
	}
	if c.HeartbeatInterval < 0 {
		return errNegative("HeartbeatInterval", int64(c.HeartbeatInterval))
	}
	if c.Self != "" {
		if _, err := validatePeerURL(c.Self); err != nil {
			return fmt.Errorf("%w: service config: Self: %v", repro.ErrInvalidOptions, err)
		}
	}
	if len(c.Peers) > 0 {
		if c.Self == "" {
			return fmt.Errorf("%w: service config: Peers set without Self", repro.ErrInvalidOptions)
		}
		self := trimPeerURL(c.Self)
		found := false
		for _, p := range c.Peers {
			peer, err := validatePeerURL(p)
			if err != nil {
				return fmt.Errorf("%w: service config: Peers: %v", repro.ErrInvalidOptions, err)
			}
			found = found || peer == self
		}
		if !found {
			return fmt.Errorf("%w: service config: Self %q is not in Peers", repro.ErrInvalidOptions, c.Self)
		}
	}
	return nil
}

// Server is the analysis service. Construct with New, mount Handler on
// an http.Server, and call Close during shutdown to cancel outstanding
// analyses.
type Server struct {
	cfg      Config
	store    *store.Store
	gate     *parallel.Gate
	met      *metrics
	memo     *systemMemo
	warm     *repro.SensitivityWarmStore
	client   *http.Client
	mux      *http.ServeMux
	root     context.Context
	stop     context.CancelFunc
	draining atomic.Bool
	// relaySeq feeds the deterministic splitmix64 stream behind relay
	// backoff jitter.
	relaySeq atomic.Uint64
	// hb is the peer health prober (nil off a multi-peer ring);
	// hbStopped is closed when its loop has exited, so Close can wait
	// for it.
	hb        *heartbeat
	hbStopped chan struct{}
}

// New builds a Server from cfg (zero value is fine).
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	root, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		gate:   parallel.NewGate(cfg.MaxInflight),
		client: &http.Client{},
		root:   root,
		stop:   stop,
		mux:    http.NewServeMux(),
	}
	s.store = store.New(store.Config{
		Base:     root,
		Capacity: cfg.CacheSize,
		Self:     cfg.Self,
		Peers:    cfg.Peers,
	})
	s.relaySeq.Store(splitmix64(hashSeed(cfg.Self)))
	// The system memo shares the artifact store's bound: a replica that
	// keeps N artifacts keeps the hashes of at most N request bodies.
	s.memo = newSystemMemo(cfg.CacheSize)
	// One process-wide warm store: sensitivity queries across requests
	// reuse each other's probe outcomes (purely an optimization —
	// responses are byte-identical whether the store is hot or cold).
	s.warm = repro.NewSensitivityWarmStore()
	s.met = newMetrics(s.gate.InUse)
	s.met.storeStats = s.store.Stats
	s.met.membership = s.store.Membership
	s.met.warmStats = func() (hits, misses, injected int64) {
		st := s.warm.Stats()
		return st.Hits, st.Misses, st.Injected
	}

	s.mux.HandleFunc("POST /v1/analyze/dmm", s.handleDMM)
	s.mux.HandleFunc("POST /v1/analyze/latency", s.handleLatency)
	s.mux.HandleFunc("POST /v1/analyze/sensitivity", s.handleSensitivity)
	s.mux.HandleFunc("POST /v1/verify", s.handleVerify)
	s.mux.HandleFunc("POST /v1/campaign", s.handleCampaign)
	s.mux.HandleFunc("GET /v1/cluster", s.handleClusterGet)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	// Active health checking runs whenever this replica routes across
	// a multi-peer ring.
	if s.store.Fleet() {
		s.hb = newHeartbeat(s.store, s.met, cfg.HeartbeatInterval, hashSeed(cfg.Self))
		s.hb.probe = s.probePeer
		s.hbStopped = make(chan struct{})
		go func(hb *heartbeat) {
			defer close(s.hbStopped)
			hb.loop(root)
		}(s.hb)
	}
	return s, nil
}

// hashSeed derives a stable per-identity seed for the jitter streams
// (FNV-1a 64 over the replica's name).
func hashSeed(name string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return h
}

// Handler returns the service's HTTP handler. While draining, new
// analysis requests are refused with 503 + Retry-After (health and
// metrics stay reachable so orchestrators can watch the drain).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() && len(r.URL.Path) >= 4 && r.URL.Path[:4] == "/v1/" {
			s.refuseDraining(w, "draining")
			return
		}
		s.mux.ServeHTTP(w, r)
	})
}

// StartDrain puts the server into draining mode: new analysis requests
// are refused with 503 + Retry-After, while in-flight ones continue.
// The caller (cmd/twca-serve) follows with http.Server.Shutdown bounded
// by Config.DrainTimeout and calls Close when the bound expires, which
// cancels the stragglers — their requests also answer 503. Peers that
// relay to a draining replica treat the 503 as peer_unavailable and
// fall back, so a rolling restart drains out of the fleet
// automatically. Idempotent.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// refuseDraining answers one request refused by the drain gate.
func (s *Server) refuseDraining(w http.ResponseWriter, endpoint string) {
	w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.DrainTimeout))
	s.met.request(endpoint, http.StatusServiceUnavailable)
	s.writeJSON(w, http.StatusServiceUnavailable, errorResponse{
		SchemaVersion: schema.Version,
		Error:         "service is draining for shutdown; retry against a healthy instance",
		Kind:          "draining",
	})
}

// Close cancels the server's root context: in-flight analyses stop at
// their next cooperative check and their requests fail with the
// cancellation mapping (or 503 when draining). It then waits for the
// heartbeat loop to exit. Idempotent.
func (s *Server) Close() {
	s.stop()
	if s.hbStopped != nil {
		<-s.hbStopped
	}
}

// requestCtx derives the analysis context for one request: the client's
// context (canceled on disconnect) bounded by the per-request deadline.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
}

// StoreStats exposes the artifact store's counters (cluster tests and
// smoke tooling read them without scraping /metrics).
func (s *Server) StoreStats() store.Stats { return s.store.Stats() }
