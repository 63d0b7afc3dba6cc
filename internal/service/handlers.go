package service

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro"
	"repro/internal/degrade"
	"repro/internal/faultinject"
	"repro/internal/schema"
	"repro/internal/store"
)

// StatusClientClosedRequest is the (nginx-convention) status reported
// when the client went away before the analysis finished. No client
// sees it — it exists for the request log and /metrics.
const StatusClientClosedRequest = 499

// ErrPeerUnavailable reports that the replica owning an artifact could
// not be reached (connection refused, draining 503, relay timeout).
// The service treats it as a routing event, not a request failure — the
// artifact is recomputed locally — so clients only ever see it wrapped
// in an error whose primary cause is something else. errors.Is-able.
var ErrPeerUnavailable = store.ErrPeerUnavailable

// ErrCampaignPartial reports that a campaign stream completed but some
// items failed (their lines carry kind "campaign_partial"). The stream
// itself stays 200 — the sentinel exists so programmatic consumers of
// the summary line have an errors.Is-able class, mirroring the wire
// taxonomy. errors.Is-able.
var ErrCampaignPartial = errors.New("campaign completed with failed items")

func errNegative(field string, v int64) error {
	return fmt.Errorf("%w: service config: %s %d is negative", repro.ErrInvalidOptions, field, v)
}

// artifactKey addresses one analysis artifact in the two-tier store.
// Every key embeds the wire schema version: a version bump changes what
// documents derive from an artifact, and a key carrying the version
// makes it structurally impossible for a new binary to serve artifacts
// a different schema generation cached — across a mixed-version fleet
// as much as across a local restart. The fingerprint term must include
// everything that changes the artifact (policy, degrade policy, every
// option); TestFingerprintPinned pins that composition.
func artifactKey(kind, hash, chain, fp string) string {
	return kind + versionTerm + hash + "|" + chain + "|" + fp
}

// versionTerm is the schema-version part of every artifact key.
var versionTerm = "|v" + strconv.Itoa(schema.Version) + "|"

// routeKey is the consistent-hashing key for a system: ownership is by
// model content hash alone, so every artifact kind, chain and option
// set of one system lives on (and warms) the same replica.
func routeKey(hash string) string { return "m:" + hash }

// reqOptions is the wire form of the analysis options, a strict subset
// of repro.Options/LatencyOptions with snake_case keys. Zero values
// select the library defaults.
type reqOptions struct {
	MaxCombinations int  `json:"max_combinations,omitempty"`
	ExactCriterion  bool `json:"exact_criterion,omitempty"`
	Flat            bool `json:"flat,omitempty"`
	// Baseline requests the chain-agnostic baseline analysis of §VI
	// (every task its own chain); equivalent to Flat, and folded into it
	// by canonicalize.
	Baseline      bool  `json:"baseline,omitempty"`
	NoCarryIn     bool  `json:"no_carry_in,omitempty"`
	MaxQ          int64 `json:"max_q,omitempty"`
	Horizon       int64 `json:"horizon,omitempty"`
	MaxIterations int   `json:"max_iterations,omitempty"`
	// NoDegrade opts this request out of the graceful-degradation
	// ladder: budget exhaustion (deadline, combination blow-up, ILP node
	// cap) fails the request instead of answering with a sound
	// over-approximation tagged "safe-upper-bound"/"trivial". By default
	// the service degrades rather than 504s an analyzable system.
	NoDegrade bool `json:"no_degrade,omitempty"`
	// Policy selects the scheduling policy ("spp", "np-spp", "edf";
	// absent or empty means "spp"). Simulation-only policies ("jcl")
	// fail analysis requests with 422 policy_unsupported; unknown names
	// are 400 invalid_options.
	Policy string `json:"policy,omitempty"`
}

// canonicalize folds the "baseline" spelling into "flat". Both select
// the same analysis, so they must share one fingerprint and one cached
// artifact.
func (o *reqOptions) canonicalize() {
	if o.Baseline {
		o.Flat, o.Baseline = true, false
	}
}

func (o reqOptions) latency() repro.LatencyOptions {
	return repro.LatencyOptions{
		MaxQ:          o.MaxQ,
		Horizon:       repro.Time(o.Horizon),
		MaxIterations: o.MaxIterations,
		Policy:        o.Policy,
		Degrade:       repro.DegradePolicy{Allow: !o.NoDegrade},
	}
}

// latencyOnly keeps the fields a latency analysis reads (MaxQ, Horizon,
// MaxIterations, Policy, NoDegrade) and zeroes the DMM-only ones.
// All-default options stay all-default, so their latency key is the
// one every other artifact kind uses.
func (o reqOptions) latencyOnly() reqOptions {
	return reqOptions{MaxQ: o.MaxQ, Horizon: o.Horizon, MaxIterations: o.MaxIterations, NoDegrade: o.NoDegrade, Policy: o.Policy}
}

func (o reqOptions) twca() repro.Options {
	return repro.Options{
		MaxCombinations: o.MaxCombinations,
		ExactCriterion:  o.ExactCriterion,
		Flat:            o.Flat,
		NoCarryIn:       o.NoCarryIn,
		Latency:         o.latency(),
		Degrade:         repro.DegradePolicy{Allow: !o.NoDegrade},
	}
}

// fingerprint is the options part of the cache key. The struct has no
// reference fields, so %+v is a stable, total rendering: every field —
// including Policy and the NoDegrade degrade-policy switch — is part of
// the key, and adding a field automatically extends it. The rendered
// composition is pinned by TestFingerprintPinned so an accidental move
// to a partial rendering cannot alias artifacts across policies. The
// all-default options most requests carry are rendered once.
func (o reqOptions) fingerprint() string {
	if o == (reqOptions{}) {
		return zeroFingerprint
	}
	return fmt.Sprintf("%+v", o)
}

var zeroFingerprint = fmt.Sprintf("%+v", reqOptions{})

// analyzeRequest is the common request envelope: a system in exactly
// one of the two formats, a target chain, and options.
type analyzeRequest struct {
	// System is a native JSON system document (the model package
	// schema, as in examples/data/thales.json).
	System json.RawMessage `json:"system,omitempty"`
	// SystemDSL is the textual DSL form (internal/dsl grammar).
	SystemDSL string `json:"system_dsl,omitempty"`
	Chain     string `json:"chain"`
	// K lists the dmm(k) points to evaluate (DMM endpoint; default
	// 1,10,100).
	K []int64 `json:"k,omitempty"`
	// BreakpointsMaxK, when > 0, additionally sweeps dmm breakpoints in
	// [1, BreakpointsMaxK] (the paper's Table II representation).
	BreakpointsMaxK int64 `json:"breakpoints_max_k,omitempty"`
	// Constraints are the weakly-hard (m, k) requirements to verify
	// (verify endpoint only).
	Constraints []wireConstraint `json:"constraints,omitempty"`
	// Sensitivity carries the sensitivity-query parameters (sensitivity
	// endpoint only).
	Sensitivity *reqSensitivity `json:"sensitivity,omitempty"`
	Options     reqOptions      `json:"options"`
}

type wireConstraint struct {
	M int64 `json:"m"`
	K int64 `json:"k"`
}

// reqSensitivity is the wire form of the sensitivity options: the
// weakly-hard constraint to defend plus the search bounds of
// repro.SensitivityOptions. Zero values select the library defaults.
type reqSensitivity struct {
	M            int64    `json:"m"`
	K            int64    `json:"k"`
	FrontierMaxK int64    `json:"frontier_max_k,omitempty"`
	ScaleDenom   int64    `json:"scale_denom,omitempty"`
	MaxScale     int64    `json:"max_scale,omitempty"`
	MaxJitter    int64    `json:"max_jitter,omitempty"`
	Tasks        []string `json:"tasks,omitempty"`
	// NoWarmStart bypasses the server's shared warm store for this
	// query: every probe is solved. The result document is byte-identical
	// either way (the store changes only the work spent); the option
	// exists to measure the difference and to rule the store out when
	// debugging.
	NoWarmStart bool `json:"no_warm_start,omitempty"`
}

func (rs reqSensitivity) options() repro.SensitivityOptions {
	return repro.SensitivityOptions{
		Constraint:   repro.Constraint{M: rs.M, K: rs.K},
		ScaleDenom:   rs.ScaleDenom,
		MaxScale:     rs.MaxScale,
		MaxJitter:    repro.Time(rs.MaxJitter),
		FrontierMaxK: rs.FrontierMaxK,
		Tasks:        rs.Tasks,
		NoWarmStart:  rs.NoWarmStart,
	}
}

// decodeSystem materializes the request's system description: parsed
// from the DSL or decoded from JSON, and validated either way. Callers
// go through Server.system, which has already checked that exactly one
// of the two forms is set.
func (req *analyzeRequest) decodeSystem() (*repro.System, error) {
	if req.SystemDSL != "" {
		s, err := repro.ParseDSL(req.SystemDSL)
		if err != nil {
			return nil, fmt.Errorf("bad system_dsl: %w", err)
		}
		return s, nil
	}
	// The envelope decoder has checked that System is one JSON value,
	// so encoding/json's outer validity scan would be a second one.
	var s repro.System
	if err := s.UnmarshalJSON(req.System); err != nil {
		return nil, fmt.Errorf("bad system: %w", err)
	}
	return &s, nil
}

// lazySystem is a request's system model, decoded on first use. The
// request path needs only the canonical hash — to route and to build
// store keys — so a request whose bytes the memo knows never decodes
// unless a store miss or a sensitivity query runs an analysis on the
// model.
type lazySystem struct {
	req *analyzeRequest
	met *metrics
	sys *repro.System
}

// get returns the decoded system. A decode failure is the client's
// fault wherever it surfaces, so it is a badRequestError even when it
// is returned from inside a store closure.
func (l *lazySystem) get() (*repro.System, error) {
	if l.sys == nil {
		sys, err := l.req.decodeSystem()
		l.met.systemDecode(fromDecode)
		if err != nil {
			return nil, badRequestError{err}
		}
		l.sys = sys
	}
	return l.sys, nil
}

// getNominal is get for a sensitivity query: a system not decoded
// yet is taken from the warm store's retained nominal for hash when it
// has one (then it is shared and read-only), and decoded otherwise.
func (l *lazySystem) getNominal(warm *repro.SensitivityWarmStore, hash string) (*repro.System, error) {
	if l.sys == nil {
		if sys := warm.Nominal(hash); sys != nil {
			l.met.systemDecode(fromWarm)
			return sys, nil
		}
	}
	return l.get()
}

// system resolves the request's system to its canonical content hash
// plus the lazily decoded model. Bytes seen before take the hash from
// the memo and skip decoding, validation and hashing; new bytes are
// decoded here, and memoized once they have hashed. Errors are the
// client's fault (callers answer them 400). Every analysis path passes
// through here before it keys or runs anything, so this is also where
// the request's options are canonicalized.
func (s *Server) system(req *analyzeRequest) (string, *lazySystem, error) {
	req.Options.canonicalize()
	var key memoKey
	switch {
	case len(req.System) > 0 && req.SystemDSL != "":
		return "", nil, fmt.Errorf("request has both system and system_dsl")
	case len(req.System) > 0:
		key.digest = sha256.Sum256(req.System)
	case req.SystemDSL != "":
		key = memoKey{dsl: true, digest: sha256.Sum256([]byte(req.SystemDSL))}
	default:
		return "", nil, fmt.Errorf("request needs a system or system_dsl")
	}
	lazy := &lazySystem{req: req, met: s.met}
	if hash, ok := s.memo.get(key); ok {
		s.met.systemDecode(fromMemo)
		return hash, lazy, nil
	}
	sys, err := lazy.get()
	if err != nil {
		return "", nil, err
	}
	hash, err := repro.CanonicalHash(sys)
	if err != nil {
		return "", nil, fmt.Errorf("system not hashable: %w", err)
	}
	s.memo.add(key, hash)
	return hash, lazy, nil
}

// errorResponse is the JSON error body.
type errorResponse struct {
	SchemaVersion int    `json:"schema_version"`
	Error         string `json:"error"`
	// Kind is the facade sentinel class the error matched, e.g.
	// "no_chain", "unschedulable" — programmatic without string
	// matching on Error.
	Kind string `json:"kind,omitempty"`
}

// classify maps a facade or service error to its HTTP status and
// sentinel name.
func classify(err error) (int, string) {
	switch {
	case errors.Is(err, repro.ErrNoChain):
		return http.StatusNotFound, "no_chain"
	case errors.Is(err, repro.ErrInvalidOptions):
		return http.StatusBadRequest, "invalid_options"
	case errors.Is(err, repro.ErrNoDeadline):
		return http.StatusUnprocessableEntity, "no_deadline"
	case errors.Is(err, repro.ErrTooManyCombinations):
		return http.StatusUnprocessableEntity, "too_many_combinations"
	case errors.Is(err, repro.ErrUnschedulable):
		return http.StatusUnprocessableEntity, "unschedulable"
	case errors.Is(err, repro.ErrInfeasibleConstraint):
		return http.StatusUnprocessableEntity, "infeasible_constraint"
	case errors.Is(err, repro.ErrPolicyUnsupported):
		return http.StatusUnprocessableEntity, "policy_unsupported"
	case errors.Is(err, ErrCampaignPartial):
		return http.StatusMultiStatus, "campaign_partial"
	case errors.Is(err, repro.ErrWorkerPanic):
		return http.StatusInternalServerError, "worker_panic"
	case errors.Is(err, faultinject.ErrInjected):
		return http.StatusInternalServerError, "injected"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, repro.ErrCanceled) || errors.Is(err, context.Canceled):
		return StatusClientClosedRequest, "canceled"
	case errors.Is(err, ErrPeerUnavailable):
		// Checked after the cancellation classes: a relay abandoned
		// because the *client* left must read as canceled, not as a peer
		// outage.
		return http.StatusBadGateway, "peer_unavailable"
	}
	return http.StatusInternalServerError, ""
}

type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// retryAfterSeconds renders d as a Retry-After header value (whole
// seconds, at least 1).
func retryAfterSeconds(d time.Duration) string {
	secs := int64(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// fail renders err and accounts the request. Decode/parse failures
// (wrapped in badRequestError) are 400 regardless of their cause.
// During a drain, cancellation and timeout failures are reported as 503
// + Retry-After: the work was lost to the shutdown, not to the system,
// and a retry hits a healthy instance.
func (s *Server) fail(w http.ResponseWriter, endpoint string, err error) {
	status, kind := classify(err)
	var bad badRequestError
	if errors.As(err, &bad) {
		status, kind = http.StatusBadRequest, "bad_request"
	}
	if s.draining.Load() && (status == StatusClientClosedRequest || status == http.StatusGatewayTimeout) {
		status, kind = http.StatusServiceUnavailable, "draining"
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.DrainTimeout))
	}
	if kind == "worker_panic" {
		s.met.workerPanic()
	}
	s.met.request(endpoint, status)
	s.writeJSON(w, status, errorResponse{SchemaVersion: schema.Version, Error: err.Error(), Kind: kind})
}

// readBody slurps the request body under the configured size cap. The
// raw bytes are kept because a fleet relay forwards them verbatim —
// re-encoding the parsed struct could normalize the JSON and change
// what the owner hashes. A Content-Length within the cap sizes one
// buffer exactly, where reading to EOF would grow one in steps; a body
// that ends before its declared length or runs past it is rejected.
// Without a usable length the body is read to EOF under the cap.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	n := r.ContentLength
	if n <= 0 || n > s.cfg.MaxBodyBytes {
		data, err := io.ReadAll(body)
		if err != nil {
			return nil, badRequestError{fmt.Errorf("bad request body: %w", err)}
		}
		return data, nil
	}
	// The spare byte of capacity catches a body longer than declared.
	data := make([]byte, n, n+1)
	if _, err := io.ReadFull(body, data); err != nil {
		return nil, badRequestError{fmt.Errorf("bad request body: %w", err)}
	}
	if extra, _ := body.Read(data[n : n+1]); extra > 0 {
		return nil, badRequestError{fmt.Errorf("bad request body: longer than its Content-Length %d", n)}
	}
	return data, nil
}

// decode reads and strictly parses the request body, returning the raw
// bytes alongside for relaying; req.System is a slice of them.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, req *analyzeRequest) ([]byte, error) {
	body, err := s.readBody(w, r)
	if err != nil {
		return nil, err
	}
	return body, decodeRequest(body, req)
}

// dmmArtifact returns the prepared DMM analysis for the request's
// (system, chain, options), from the store's LRU, an in-flight twin, or
// a fresh gate-admitted analysis. An analysis whose construction was
// degraded by a transient budget (a deadline, an injected fault) is
// served to the requests that waited for it and then forgotten, so the
// retry its Retry-After invites analyzes again (see
// degrade.Info.Reproducible).
func (s *Server) dmmArtifact(ctx context.Context, req *analyzeRequest, sys *lazySystem, hash string) (*repro.Analysis, string, string, error) {
	key := artifactKey("dmm", hash, req.Chain, req.Options.fingerprint())
	opts := req.Options.twca()
	val, state, err := s.store.Do(ctx, key, func(fctx context.Context) (any, error) {
		model, err := sys.get()
		if err != nil {
			return nil, err
		}
		if err := s.gate.Acquire(fctx); err != nil {
			return nil, err
		}
		defer s.gate.Release()
		t0 := time.Now()
		an, err := repro.AnalysisRequest{System: model, Chain: req.Chain, Options: opts}.DMM(fctx)
		s.met.observeAnalysis("dmm", time.Since(t0))
		return an, err
	})
	if err != nil {
		return nil, key, state, err
	}
	an := val.(*repro.Analysis)
	if !an.Degraded.Reproducible() || !an.Latency.Quality.Reproducible() {
		s.store.Forget(key)
	}
	return an, key, state, nil
}

// dmmDoc is a DMM response retained in the LRU alongside the analysis
// artifact it came from, encoded up to its per-request envelope: head
// is the indented dmmResponse without "cache", "elapsed_ms" and the
// closing brace (appendDMMTail writes those). Documents are
// deterministic functions of (artifact key, ks, breakpoint range), so
// serving a retained one is byte-identical to re-deriving it — warmth
// stays invisible in the body while repeat queries skip both the sweep
// and the encode.
type dmmDoc struct {
	head  []byte
	stats schema.Stats
}

// dmmHead is the part of dmmResponse a dmmDoc retains: every field
// but the per-request envelope.
type dmmHead struct {
	schema.Analysis
	SystemHash string `json:"system_hash"`
}

// appendDMMTail completes a dmmDoc head into the bytes writeJSON would
// write for the whole dmmResponse. state is a store outcome, a plain
// identifier that needs no escaping; AppendFloat's 'f' form is
// encoding/json's for every value in [1e-6, 1e21), which holds every
// elapsed time counted in whole microseconds.
func appendDMMTail(dst []byte, state string, elapsedMS float64) []byte {
	dst = append(dst, ",\n  \"cache\": \""...)
	dst = append(dst, state...)
	dst = append(dst, "\",\n  \"elapsed_ms\": "...)
	dst = strconv.AppendFloat(dst, elapsedMS, 'f', -1, 64)
	return append(dst, "\n}\n"...)
}

// dmmKs resolves the requested dmm(k) points (default 1, 10, 100 when
// neither points nor a breakpoint sweep were asked for).
func (req *analyzeRequest) dmmKs() []int64 {
	if len(req.K) == 0 && req.BreakpointsMaxK == 0 {
		return []int64{1, 10, 100}
	}
	return req.K
}

// dmmDocKey addresses the dmmDoc of an artifact key, requested points
// and breakpoint range: "doc|<key>|[k1 k2 ...]|<breakpoints max k>".
func dmmDocKey(key string, ks []int64, breakpointsMaxK int64) string {
	b := make([]byte, 0, len("doc|")+len(key)+len("|[]|")+8*len(ks)+20)
	b = append(b, "doc|"...)
	b = append(b, key...)
	b = append(b, "|["...)
	for i, k := range ks {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, k, 10)
	}
	b = append(b, "]|"...)
	b = strconv.AppendInt(b, breakpointsMaxK, 10)
	return string(b)
}

// dmmDocument produces the DMM response for a request, encoded up to
// its envelope — artifact (cached/coalesced/fresh) plus the assembled
// dmm sweep — and is the one path shared by /v1/analyze/dmm and
// campaign items, so a campaign line is byte-identical to the unary
// document. A document with a point degraded by a transient budget
// (say, a query-time deadline on an exact artifact) is not retained:
// the retry sweeps again and can answer exactly.
func (s *Server) dmmDocument(ctx context.Context, req *analyzeRequest, sys *lazySystem, hash string) (dmmDoc, string, error) {
	an, key, state, err := s.dmmArtifact(ctx, req, sys, hash)
	if err != nil {
		return dmmDoc{}, state, err
	}
	ks := req.dmmKs()
	// The response document is a deterministic function of the artifact
	// and the requested points, so repeat queries reuse the encoded
	// document instead of re-sweeping the dmm curve.
	docKey := dmmDocKey(key, ks, req.BreakpointsMaxK)
	if v, ok := s.store.Peek(docKey); ok {
		return v.(dmmDoc), state, nil
	}
	// The sweep's knapsack solves take an admission slot, like the
	// analysis did, so -inflight bounds them too.
	if err := s.gate.Acquire(ctx); err != nil {
		return dmmDoc{}, state, err
	}
	doc, stats, err := func() (schema.Analysis, schema.Stats, error) {
		defer s.gate.Release()
		return schema.FromAnalysisStats(ctx, an, ks, req.BreakpointsMaxK)
	}()
	if err != nil {
		return dmmDoc{}, state, err
	}
	s.met.addILPNodes(stats.ILPNodes)
	d := dmmDoc{head: encodeDMMHead(doc, hash), stats: stats}
	for budget := range stats.Degraded {
		if !(degrade.Info{Budget: budget}).Reproducible() {
			return d, state, nil
		}
	}
	s.store.Add(docKey, d)
	return d, state, nil
}

// degradedRetryAfter is the Retry-After a transiently degraded answer
// advertises: a later retry may meet less budget pressure and earn an
// exact answer.
const degradedRetryAfter = "30"

// noteDegraded counts n results of the response w degraded by budget in
// /metrics, and sets Retry-After when a retry can help: when budget is
// not reproducible (see degrade.Info.Reproducible). A reproducible
// degradation (a diverging busy window, the combination cap) is a
// function of the system and options, so the store keeps it and a
// retry would get the same answer.
func (s *Server) noteDegraded(w http.ResponseWriter, budget string, n int64) {
	s.met.degraded(budget, n)
	if !(degrade.Info{Budget: budget}).Reproducible() {
		w.Header().Set("Retry-After", degradedRetryAfter)
	}
}

// dmmResponse is schema.Analysis plus service envelope fields. The
// handler writes it as a dmmDoc head plus appendDMMTail; relayed
// campaign items decode it.
type dmmResponse struct {
	dmmHead
	Cache     string  `json:"cache"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func (s *Server) handleDMM(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req analyzeRequest
	body, err := s.decode(w, r, &req)
	if err != nil {
		s.fail(w, "dmm", err)
		return
	}
	hash, sys, err := s.system(&req)
	if err != nil {
		s.fail(w, "dmm", badRequestError{err})
		return
	}
	if s.relayToOwner(w, r, "dmm", hash, body) {
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	doc, state, err := s.dmmDocument(ctx, &req, sys, hash)
	if err != nil {
		s.fail(w, "dmm", err)
		return
	}
	for budget, n := range doc.stats.Degraded {
		s.noteDegraded(w, budget, n)
	}
	s.met.request("dmm", http.StatusOK)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(doc.head)
	var tail [64]byte
	w.Write(appendDMMTail(tail[:0], state, float64(time.Since(start).Microseconds())/1000))
}

type latencyResponse struct {
	schema.Latency
	SystemHash string  `json:"system_hash"`
	Cache      string  `json:"cache"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

// latencyResult returns the latency analysis for the request, from the
// store or a fresh gate-admitted run — the path shared by
// /v1/analyze/latency and campaign items. The artifact is keyed on, and
// computed from, the latency options alone, so requests that differ
// only in DMM options share it; like a dmm artifact, one degraded by a
// transient budget is not retained.
func (s *Server) latencyResult(ctx context.Context, req *analyzeRequest, sys *lazySystem, hash string) (*repro.LatencyResult, string, error) {
	lopts := req.Options.latencyOnly()
	key := artifactKey("latency", hash, req.Chain, lopts.fingerprint())
	opts := lopts.twca()
	val, state, err := s.store.Do(ctx, key, func(fctx context.Context) (any, error) {
		model, err := sys.get()
		if err != nil {
			return nil, err
		}
		if err := s.gate.Acquire(fctx); err != nil {
			return nil, err
		}
		defer s.gate.Release()
		t0 := time.Now()
		res, err := repro.AnalysisRequest{System: model, Chain: req.Chain, Options: opts}.Latency(fctx)
		s.met.observeAnalysis("latency", time.Since(t0))
		return res, err
	})
	if err != nil {
		return nil, state, err
	}
	res := val.(*repro.LatencyResult)
	if !res.Quality.Reproducible() {
		s.store.Forget(key)
	}
	return res, state, nil
}

func (s *Server) handleLatency(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req analyzeRequest
	body, err := s.decode(w, r, &req)
	if err != nil {
		s.fail(w, "latency", err)
		return
	}
	hash, sys, err := s.system(&req)
	if err != nil {
		s.fail(w, "latency", badRequestError{err})
		return
	}
	if s.relayToOwner(w, r, "latency", hash, body) {
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	res, state, err := s.latencyResult(ctx, &req, sys, hash)
	if err != nil {
		s.fail(w, "latency", err)
		return
	}
	if q := res.Quality; q.Degraded() {
		s.noteDegraded(w, q.Budget, 1)
	}
	s.met.request("latency", http.StatusOK)
	s.writeJSON(w, http.StatusOK, latencyResponse{
		Latency:    schema.FromLatency(res),
		SystemHash: hash,
		Cache:      state,
		ElapsedMS:  float64(time.Since(start).Microseconds()) / 1000,
	})
}

type verifyResponse struct {
	SchemaVersion int            `json:"schema_version"`
	Chain         string         `json:"chain"`
	Results       []verifyResult `json:"results"`
	SystemHash    string         `json:"system_hash"`
	Cache         string         `json:"cache"`
}

type verifyResult struct {
	M int64 `json:"m"`
	K int64 `json:"k"`
	// Holds is a guarantee when true; false only means the analysis
	// cannot prove the constraint. A degraded dmm keeps that reading: it
	// over-approximates, so Holds can only flip from true to false.
	Holds bool  `json:"holds"`
	DMM   int64 `json:"dmm"`
	// Quality/Budget tag degraded verifications as in schema.DMMPoint.
	Quality string `json:"quality"`
	Budget  string `json:"budget,omitempty"`
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req analyzeRequest
	body, err := s.decode(w, r, &req)
	if err != nil {
		s.fail(w, "verify", err)
		return
	}
	if len(req.Constraints) == 0 {
		s.fail(w, "verify", badRequestError{fmt.Errorf("request needs constraints")})
		return
	}
	for _, c := range req.Constraints {
		if !(repro.Constraint{M: c.M, K: c.K}).Valid() {
			s.fail(w, "verify", badRequestError{fmt.Errorf("invalid constraint (m=%d, k=%d): need 0 ≤ m < k", c.M, c.K)})
			return
		}
	}
	hash, sys, err := s.system(&req)
	if err != nil {
		s.fail(w, "verify", badRequestError{err})
		return
	}
	// Verification rides the DMM artifact, so it routes to the replica
	// owning the system like the DMM endpoint does.
	if s.relayToOwner(w, r, "verify", hash, body) {
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	// Same artifact key as the DMM endpoint: verifying after analyzing
	// (or vice versa) is a cache hit.
	an, _, state, err := s.dmmArtifact(ctx, &req, sys, hash)
	if err != nil {
		s.fail(w, "verify", err)
		return
	}
	resp := verifyResponse{SchemaVersion: schema.Version, Chain: req.Chain, SystemHash: hash, Cache: state}
	degraded, err := s.verifyAll(ctx, an, req.Constraints, &resp)
	if err != nil {
		s.fail(w, "verify", err)
		return
	}
	for budget, n := range degraded {
		s.noteDegraded(w, budget, n)
	}
	s.met.request("verify", http.StatusOK)
	s.writeJSON(w, http.StatusOK, resp)
}

// verifyAll appends the verdict on each constraint to resp.Results and
// counts the degraded ones by budget. Its dmm(k) solves hold an
// admission slot, so -inflight bounds them.
func (s *Server) verifyAll(ctx context.Context, an *repro.Analysis, cs []wireConstraint, resp *verifyResponse) (map[string]int64, error) {
	if err := s.gate.Acquire(ctx); err != nil {
		return nil, err
	}
	defer s.gate.Release()
	var degraded map[string]int64
	for _, c := range cs {
		r, err := an.DMMValueCtx(ctx, c.K)
		if err != nil {
			return nil, err
		}
		s.met.addILPNodes(r.ILPNodes)
		if r.Quality.Degraded() {
			if degraded == nil {
				degraded = make(map[string]int64)
			}
			degraded[r.Quality.Budget]++
		}
		resp.Results = append(resp.Results, verifyResult{
			M: c.M, K: c.K, Holds: r.Value <= c.M, DMM: r.Value,
			Quality: r.Quality.Quality.String(), Budget: r.Quality.Budget,
		})
	}
	return degraded, nil
}

// sensitivityResponse is schema.Sensitivity plus service envelope
// fields. Warm tags whether the query was allowed to use the
// server's shared warm store — an envelope echo of the request option,
// NOT part of the analysis document: cache warmth stays wire-invisible
// (the schema.Sensitivity body is byte-identical warm or cold, which
// the golden contract pins).
type sensitivityResponse struct {
	schema.Sensitivity
	SystemHash string  `json:"system_hash"`
	Cache      string  `json:"cache"`
	Warm       bool    `json:"warm_start"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

// gatedProbe is the ProbeFunc a sensitivity query's probes run
// through: every probe the warm store cannot answer takes an admission
// slot for its solve, like any other analysis, so -inflight bounds the
// solves in the process however wide a query fans out. The query itself
// holds no slot, so its probes cannot deadlock against it, and a warm
// repeat whose probes all hit the warm store takes none.
func (s *Server) gatedProbe(ctx context.Context, sys *repro.System, _, chain string, opts repro.Options) (*repro.Analysis, error) {
	if err := s.gate.Acquire(ctx); err != nil {
		return nil, err
	}
	defer s.gate.Release()
	return repro.AnalysisRequest{System: sys, Chain: chain, Options: opts}.DMM(ctx)
}

func (s *Server) handleSensitivity(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req analyzeRequest
	body, err := s.decode(w, r, &req)
	if err != nil {
		s.fail(w, "sensitivity", err)
		return
	}
	if req.Sensitivity == nil {
		s.fail(w, "sensitivity", badRequestError{fmt.Errorf("request needs a sensitivity block")})
		return
	}
	hash, sys, err := s.system(&req)
	if err != nil {
		s.fail(w, "sensitivity", badRequestError{err})
		return
	}
	if s.relayToOwner(w, r, "sensitivity", hash, body) {
		return
	}
	// A warm query analyzes the system the warm store already holds for
	// this hash, skipping the decode here and the re-hash in the engine;
	// a no_warm_start query decodes, keeping the cold path cold.
	var model *repro.System
	if req.Sensitivity.NoWarmStart {
		model, err = sys.get()
	} else {
		model, err = sys.getNominal(s.warm, hash)
	}
	if err != nil {
		s.fail(w, "sensitivity", err)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	t0 := time.Now()
	res, err := repro.AnalysisRequest{System: model, Chain: req.Chain, Options: req.Options.twca(), SystemHash: hash}.
		SensitivityWarm(ctx, req.Sensitivity.options(), s.gatedProbe, s.warm)
	s.met.observeAnalysis("sensitivity", time.Since(t0))
	if err != nil {
		s.fail(w, "sensitivity", err)
		return
	}
	s.met.addBisectionSteps(res.Probes)
	if res.Quality.Degraded() {
		s.noteDegraded(w, res.Quality.Budget, 1)
	}
	s.met.request("sensitivity", http.StatusOK)
	s.writeJSON(w, http.StatusOK, sensitivityResponse{
		Sensitivity: schema.FromSensitivity(res),
		SystemHash:  hash,
		Cache:       store.OutcomeMiss,
		Warm:        !req.Sensitivity.NoWarmStart,
		ElapsedMS:   float64(time.Since(start).Microseconds()) / 1000,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	s.met.request("healthz", http.StatusOK)
	resp := map[string]any{
		"status":         status,
		"uptime_seconds": time.Since(s.met.start).Seconds(),
		"cache_entries":  s.store.Len(),
	}
	if s.store.Fleet() {
		resp["fleet_self"] = s.store.Self()
		resp["fleet_peers"] = len(s.store.Peers())
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.met.request("metrics", http.StatusOK)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.write(w)
}
