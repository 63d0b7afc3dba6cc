package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/store"
)

// The heartbeat is the fleet's one failure detector: it alone decides
// whether a peer is down, and it is the only writer of the store's
// down set (which Route, RemoteCandidates and GET /v1/cluster read).
// Two kinds of evidence feed it:
//
//   - Relay reports. A relay attempt that fails calls report, which
//     marks the peer down at once: traffic already paid for the
//     failure, so the next request must not pay again.
//   - Probes. Every peer's /healthz is probed on a jittered interval.
//     heartbeatDownAfter consecutive failures mark a peer down (a
//     single blip does not flap the ring); one successful probe marks
//     it up. A downed peer keeps being probed, and a probe is the only
//     way back into routing — there is no cooldown.
//
// The store's down set is the only record of who is down, so reports
// and probe outcomes cannot drift apart: whichever lands last decides.
//
// Determinism contract: the store's routing stays a pure function of
// the peer and down sets (no wall clock — internal/store is in
// the determinism lint scope). The heartbeat lives here in the service
// layer, where time belongs, and keeps its own time injectable: the
// probe function, the timer source (after) and the jitter stream are
// all seams, so the state machine and the loop are tested on a fake
// clock with scripted probe outcomes.

const (
	// heartbeatProbeTimeout bounds one /healthz probe round-trip.
	heartbeatProbeTimeout = 2 * time.Second
	// heartbeatDownAfter is the number of consecutive failed probes
	// that mark a peer down.
	heartbeatDownAfter = 2
)

// heartbeat probes the fleet's peers and owns their down state in the
// store. Construct with newHeartbeat; loop runs runOnce on a jittered
// interval.
type heartbeat struct {
	store    *store.Store
	met      *metrics
	interval time.Duration
	seed     uint64

	// probe checks one peer ("" error = healthy). The default probes
	// GET peer/healthz through the server's HTTP client; tests script
	// it.
	probe func(ctx context.Context, peer string) error
	// after is the timer source for the loop (time.After in
	// production, a fake channel in tests).
	after func(d time.Duration) <-chan time.Time

	mu    sync.Mutex
	fails map[string]int // consecutive probe failures per peer
}

func newHeartbeat(st *store.Store, met *metrics, interval time.Duration, seed uint64) *heartbeat {
	return &heartbeat{
		store:    st,
		met:      met,
		interval: interval,
		seed:     seed,
		after:    time.After,
		fails:    make(map[string]int),
	}
}

// jittered returns the sleep before probe round n: the configured
// interval ±20%, drawn from the deterministic splitmix64 stream. The
// jitter desynchronizes replicas that started together so a fleet's
// probes don't arrive as a synchronized pulse.
func (h *heartbeat) jittered(round uint64) time.Duration {
	span := h.interval / 5 * 2
	if span <= 0 {
		return h.interval
	}
	return h.interval - span/2 + time.Duration(splitmix64(h.seed^round)%uint64(span))
}

// runOnce probes every remote peer once and applies the outcomes.
// Probes run without holding the state lock (they are HTTP
// round-trips); each outcome is applied as its probe returns.
func (h *heartbeat) runOnce(ctx context.Context) {
	for _, peer := range h.store.Peers() {
		if peer != h.store.Self() {
			h.record(peer, h.probe(ctx, peer))
		}
	}
}

// record applies one probe outcome to peer's failure streak and the
// store's down set.
func (h *heartbeat) record(peer string, probeErr error) {
	h.met.heartbeatProbe(probeErr == nil)
	h.mu.Lock()
	defer h.mu.Unlock()
	if probeErr == nil {
		delete(h.fails, peer)
		if h.store.MarkUp(peer) {
			h.met.heartbeatTransition(true)
		}
		return
	}
	h.fails[peer]++
	if h.fails[peer] >= heartbeatDownAfter && h.store.MarkDown(peer) {
		h.met.heartbeatTransition(false)
	}
}

// report marks peer down after a failed relay attempt. Only a later
// successful probe brings it back.
func (h *heartbeat) report(peer string) {
	if h.store.MarkDown(peer) {
		h.met.heartbeatTransition(false)
	}
}

// probePeer is the production probe: GET peer/healthz with a bounded
// deadline. Any transport error, a non-200 status, or a body whose
// status is not "ok" (a draining replica answers "draining") counts as
// a failed probe — a draining peer should leave routing just like a
// dead one, it simply does so gracefully.
func (s *Server) probePeer(ctx context.Context, peer string) error {
	// Fault-injection seam: an injected error fails this probe as if
	// the peer were unreachable, letting chaos tests drive the state
	// machine to eviction without killing a listener.
	if f := faultinject.At(faultinject.PointServiceHeartbeat); f != nil {
		if err := f.Apply(); err != nil {
			return fmt.Errorf("heartbeat: %s: %w", peer, err)
		}
	}
	pctx, cancel := context.WithTimeout(ctx, heartbeatProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, peer+"/healthz", nil)
	if err != nil {
		return fmt.Errorf("heartbeat: %s: %v", peer, err)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return fmt.Errorf("heartbeat: %s: %v", peer, err)
	}
	defer resp.Body.Close()
	var h struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4<<10)).Decode(&h); err != nil {
		return fmt.Errorf("heartbeat: %s: bad healthz body: %v", peer, err)
	}
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		return fmt.Errorf("heartbeat: %s: status %d %q", peer, resp.StatusCode, h.Status)
	}
	return nil
}

// loop runs the prober until ctx is canceled. Each round sleeps the
// jittered interval first, so a just-started replica doesn't
// immediately declare silent peers dead while they are still binding
// their listeners.
func (h *heartbeat) loop(ctx context.Context) {
	for round := uint64(0); ; round++ {
		select {
		case <-ctx.Done():
			return
		case <-h.after(h.jittered(round)):
		}
		h.runOnce(ctx)
	}
}
