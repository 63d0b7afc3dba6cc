package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/faultinject"
	"repro/internal/schema"
)

// The fleet layer shards the analysis tier across the peer set by
// relaying whole requests: the replica owning a system's model hash
// (store.Route over the consistent-hash ring) computes and caches its
// artifacts; every other replica forwards the original request body to
// the owner's same endpoint and streams the response back verbatim.
// Relaying requests instead of shipping artifacts keeps the store a
// plain in-memory structure holding live analysis values — nothing is
// ever serialized except what the public API already serializes — and
// makes fleet-wide singleflight fall out for free: all replicas funnel
// one key to one owner, and the owner's store coalesces concurrent
// twins.
//
// Relays are resilient, safe by construction because every replica
// computes byte-identical documents:
//
//   - Retry: a failed attempt (unreachable, or answering 502/503/504)
//     reports the peer to the heartbeat, which marks it down, and the
//     relay tries the next ring arc after a decorrelated-jitter
//     backoff. Each candidate is tried at most once per relay, at most
//     relayRetries times over, and never past the request's remaining
//     deadline budget.
//   - Throttle propagation: a 429 from the owner is admission control,
//     not death — it is never a reason to mark the peer down. Unary
//     relays stream the 429 (with its Retry-After) to the client;
//     campaign items fall back to local compute.
//
// Running out of candidates is still only a performance event: the
// requester recomputes locally, and the ring re-hashes the reported
// owner's keys to the next arc until a heartbeat probe finds it alive
// again. Bounds stay sound either way — a fallback costs duplicated
// work, never a wrong-side answer.

// forwardHeader marks a relayed request with the sender's identity. Its
// presence is the loop guard: an owner never re-forwards a relayed
// request, even if its ring disagrees about ownership — which is what
// makes a rolling restart onto a new peer list safe: while replicas
// hold different peer lists, the worst case is one extra hop ending in
// a local compute.
const forwardHeader = "X-Twca-Forward"

// servedByHeader names the replica whose store actually answered a
// relayed request — observability for multi-replica deployments.
const servedByHeader = "X-Twca-Served-By"

const (
	// relayHeadroom pads the relay deadline over the owner's own
	// analysis budget, so an owner that degrades-and-answers right at
	// its deadline beats the requester's timeout instead of racing it.
	relayHeadroom = 2 * time.Second
	// relayRetries bounds the attempts after the first, each on the
	// next ring arc.
	relayRetries = 2
	// relayBackoff is the sleep before the first retry; later sleeps
	// are drawn from [relayBackoff, 3·prev).
	relayBackoff = 25 * time.Millisecond
)

// relayed reports whether r is a relay from a peer replica.
func relayed(r *http.Request) bool { return r.Header.Get(forwardHeader) != "" }

// relayToOwner routes one unary request by its system hash. It returns
// true when the request was fully answered by a peer (the response has
// been streamed to w); false means the caller must handle the request
// locally — because this replica owns the key, the request is already
// a relay, the fleet is disabled, or every candidate owner is
// unreachable and local fallback is in order.
func (s *Server) relayToOwner(w http.ResponseWriter, r *http.Request, endpoint, hash string, body []byte) bool {
	if !s.store.Fleet() {
		return false
	}
	if relayed(r) {
		// This replica is the owner serving a peer's relay (or the
		// peer's ring disagreed — either way the loop stops here).
		s.store.CountSharedServe()
		return false
	}
	cands := s.store.RemoteCandidates(routeKey(hash))
	if len(cands) == 0 {
		return false
	}
	// The relay budget mirrors the local-compute budget (plus headroom
	// for the wire), bounded by the client's own context: retries never
	// outlive what the caller was willing to wait for a local analysis.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout+relayHeadroom)
	defer cancel()
	resp, peer, err := s.relay(ctx, cands, r.URL.Path, body)
	if err != nil {
		if r.Context().Err() != nil {
			// The client went away mid-relay; the local path will fail
			// with the cancellation mapping. Not the peers' fault.
			return false
		}
		s.store.CountLocalFallback()
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		s.met.relayThrottle()
	} else {
		// Answered by the owner: a relayed artifact document.
		s.store.CountPeerHit()
	}
	// Stream the body through byte-for-byte so a relayed document is
	// indistinguishable from a locally served one.
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set(servedByHeader, peer)
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil && r.Context().Err() == nil {
		// The peer died mid-stream. The status line is already on the
		// wire, so the client sees a short body — all we can do is
		// refuse to count it as a healthy peer serve and report the
		// peer down.
		s.met.relayTruncated()
		s.attemptFailed(peer)
	}
	s.met.request(endpoint, resp.StatusCode)
	return true
}

// relay sends body to the candidates in ring order, each at most once:
// an attempt that fails reports its peer down, sleeps the
// decorrelated-jitter backoff if the deadline budget allows, and moves
// on to the next arc. It returns the first usable response and the
// peer that served it. Otherwise it returns the last attempt's error
// (cands must be non-empty) and the caller falls back to local
// compute.
func (s *Server) relay(ctx context.Context, cands []string, path string, body []byte) (*http.Response, string, error) {
	if len(cands) > 1+relayRetries {
		cands = cands[:1+relayRetries]
	}
	backoff := relayBackoff
	var err error
	for i, peer := range cands {
		if i > 0 {
			if !budgetAllows(ctx, backoff) {
				break
			}
			s.met.relayRetry()
			if !sleep(ctx, backoff) {
				break
			}
			backoff = s.nextBackoff(backoff)
		}
		var resp *http.Response
		if resp, err = s.attempt(ctx, peer, path, body); err == nil {
			return resp, peer, nil
		}
		if ctx.Err() != nil {
			break
		}
	}
	return nil, "", err
}

// sleep waits d or until ctx is done, reporting whether the full sleep
// elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// budgetAllows reports whether ctx's deadline leaves room to sleep d
// and still make an attempt worth starting.
func budgetAllows(ctx context.Context, d time.Duration) bool {
	deadline, ok := ctx.Deadline()
	if !ok {
		return true
	}
	return time.Until(deadline) > d+10*time.Millisecond
}

// nextBackoff advances the decorrelated-jitter schedule: each sleep is
// drawn from [base, 3·prev), capped, with the draw taken from a
// splitmix64 stream (deterministic per process, no math/rand).
func (s *Server) nextBackoff(prev time.Duration) time.Duration {
	base := relayBackoff
	span := 3*prev - base
	if span <= 0 {
		return base
	}
	d := base + time.Duration(splitmix64(s.relaySeq.Add(1))%uint64(span))
	if cap := 50 * base; d > cap {
		d = cap
	}
	return d
}

// attempt performs one relay attempt against peer. Transport errors
// and 502/503/504 answers report the peer down (its keys re-hash to the
// next arc) and return ErrPeerUnavailable; every other status — 200,
// client errors, 429 — is the peer's answer and is returned for the
// caller to interpret.
func (s *Server) attempt(ctx context.Context, peer, path string, body []byte) (*http.Response, error) {
	// Fault-injection seam: an injected error makes this attempt fail
	// as if the peer were unreachable (exercising retry and fallback
	// without killing a listener); an injected delay simulates a slow
	// peer.
	if f := faultinject.At(faultinject.PointServiceRelay); f != nil {
		if err := f.Apply(); err != nil {
			s.attemptFailed(peer)
			return nil, fmt.Errorf("%w: %s: %v", ErrPeerUnavailable, peer, err)
		}
	}
	resp, err := s.forward(ctx, peer, path, body)
	if err != nil {
		if ctx.Err() == nil {
			s.attemptFailed(peer)
		}
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		// The peer is draining, overloaded or itself cut off — treat
		// like unreachable so the next arc (or local compute) takes the
		// key.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		s.attemptFailed(peer)
		return nil, fmt.Errorf("%w: %s answered %d", ErrPeerUnavailable, peer, resp.StatusCode)
	}
	return resp, nil
}

// forward POSTs body to the peer's endpoint at path, tagged as a relay.
func (s *Server) forward(ctx context.Context, peer, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+path, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrPeerUnavailable, peer, err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardHeader, s.store.Self())
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrPeerUnavailable, peer, err)
	}
	return resp, nil
}

// attemptFailed records one failed relay attempt: the heartbeat marks
// the peer down until a probe finds it alive (its keys re-hash to the
// next ring arc). Unlike a local fallback this is per-attempt
// accounting — the relay as a whole may still succeed on another arc.
func (s *Server) attemptFailed(peer string) {
	s.hb.report(peer)
	s.store.CountPeerUnavailable()
}

// relayItemDMM evaluates one campaign item on the owning peer (or its
// retry arcs) via the unary DMM endpoint, returning the analysis
// document and the peer's cache outcome. A store.ErrPeerUnavailable-
// wrapped error asks the caller to fall back to local compute; any
// other error is the item's real outcome as classified by the owner.
func (s *Server) relayItemDMM(ctx context.Context, cands []string, req *analyzeRequest) (schema.Analysis, string, error) {
	var out dmmResponse
	if err := s.relayItem(ctx, cands, "/v1/analyze/dmm", req, &out); err != nil {
		return schema.Analysis{}, "", err
	}
	return out.Analysis, out.Cache, nil
}

// relayItemLatency is relayItemDMM for latency items.
func (s *Server) relayItemLatency(ctx context.Context, cands []string, req *analyzeRequest) (schema.Latency, string, error) {
	var out latencyResponse
	if err := s.relayItem(ctx, cands, "/v1/analyze/latency", req, &out); err != nil {
		return schema.Latency{}, "", err
	}
	return out.Latency, out.Cache, nil
}

// relayItem performs one item relay — with the same retry resilience
// as unary relays — and decodes the 200 response into out.
// Non-200 answers from the serving peer are returned as
// remoteItemError so the campaign line preserves the owner's error
// classification; a 429 asks for local fallback without marking the
// peer down (it is alive, just shedding load).
func (s *Server) relayItem(ctx context.Context, cands []string, path string, req *analyzeRequest, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, peer, err := s.relay(ctx, cands, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			// A half-written or garbled body is a peer failure, not an
			// item failure: recompute locally rather than guess.
			s.met.relayTruncated()
			s.attemptFailed(peer)
			return fmt.Errorf("%w: %s: bad relay body: %v", ErrPeerUnavailable, peer, err)
		}
		s.store.CountPeerHit()
		return nil
	case http.StatusTooManyRequests:
		io.Copy(io.Discard, resp.Body)
		s.met.relayThrottle()
		return fmt.Errorf("%w: %s throttled the relay", ErrPeerUnavailable, peer)
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		return remoteItemError{kind: "", msg: fmt.Sprintf("peer %s answered status %d", peer, resp.StatusCode)}
	}
	return remoteItemError{kind: e.Kind, msg: e.Error}
}

// remoteItemError carries a peer's error classification through to a
// campaign_partial line without re-deriving it from a local error
// chain.
type remoteItemError struct {
	kind string
	msg  string
}

func (e remoteItemError) Error() string { return e.msg }

// splitmix64 is the finalizer from Vigna's splitmix64 generator — the
// same mixer internal/faultinject uses for deterministic probability
// draws. It feeds backoff jitter and heartbeat phase without math/rand,
// so test runs that pin a seed see identical schedules.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
