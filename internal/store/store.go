// Package store is the two-tier analysis-artifact store behind the
// twca-serve analysis tier.
//
// Tier 1 is a per-node LRU of completed artifacts with single-flight
// request coalescing — the in-process cache the service has always had
// (promoted here from internal/service). Tier 2 is the fleet: artifact
// keys are consistent-hashed onto a peer set (Ring), each replica is
// the authority for the keys it owns, and non-owners route requests to
// the owner instead of computing cold. Together the owned shards form
// a shared, content-addressed backend; combined with each owner's
// single-flight coalescing, an artifact is computed at most once
// fleet-wide no matter how many replicas receive the same query
// concurrently.
//
// Membership is fixed at start-up: New builds the ring once from
// Config.Peers and never rebuilds it, so ownership is a pure function
// of (peer set, key). To change the fleet, restart the replicas with a
// new peer list. The service layer's heartbeat prober is the only
// writer of the down set. The store itself stays a pure data structure
// with no clock: LRU + flights + ring + the down set.
//
// The store holds live Go values and never serializes them; the
// transport between replicas is the service's own HTTP API (a
// non-owner forwards the original request to the owner and relays the
// response). Peer failures are strictly a performance event, never a
// correctness one — a requester that cannot reach an owner reports it
// down, re-hashes to the next arc on the ring, and in the worst case
// computes locally, which is exactly the pre-fleet behavior.
package store

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/parallel"
)

// Lookup outcome labels, reported per response and counted in
// /metrics. Hit, Miss and Coalesced are the per-node outcomes of Do;
// Peer is stamped by the service's fleet layer on responses relayed
// from the owning replica.
const (
	OutcomeHit       = "hit"       // answered from this node's retained artifacts
	OutcomeMiss      = "miss"      // this request ran the computation
	OutcomeCoalesced = "coalesced" // piggybacked on an identical in-flight computation
	OutcomePeer      = "peer"      // relayed from the owning replica
)

// ErrPeerUnavailable reports that the replica owning an artifact could
// not serve it (connection refused, draining, or mid-shutdown). It is
// advisory: the caller falls back to the next owner on the ring or to
// a local computation, so the error surfaces to clients only wrapped
// around a subsequent failure — match with errors.Is.
var ErrPeerUnavailable = errors.New("store: peer unavailable")

// Config parameterizes a Store. The zero value is a single-node store
// with the default capacity.
type Config struct {
	// Base is the lifecycle context computations run under: a flight
	// must not die with its first requester (coalesced followers still
	// want the result) but must die with the node. nil means
	// context.Background().
	Base context.Context
	// Capacity bounds retained artifacts (default 128).
	Capacity int
	// Self is this node's name on the ring; Peers is the fixed peer
	// set (including Self). Fewer than two distinct peers disables
	// routing: every key is owned locally.
	Self  string
	Peers []string
	// Replicas is the virtual-node count per peer (≤ 0 selects the
	// ring default).
	Replicas int
}

// Store is one node's view of the artifact tier. All methods are safe
// for concurrent use.
type Store struct {
	base context.Context
	self string
	// ring is the consistent-hash view over the peer set, built once by
	// New (nil when the peer set routes everything locally).
	ring *Ring

	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used
	items   map[string]*list.Element
	flights map[string]*flight
	// down holds the peers currently routed around. It has no expiry:
	// a peer leaves it only by MarkUp, so routing is a pure function of
	// the peer set and this set.
	down map[string]bool

	// Counters are atomics so the fleet layer can account outcomes
	// without taking the LRU lock.
	hits, misses, coalesced         atomic.Int64
	peerHits, sharedServes          atomic.Int64
	peerUnavailable, localFallbacks atomic.Int64
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	// Hits/Misses/Coalesced are tier-1 outcomes of Do on this node.
	Hits, Misses, Coalesced int64
	// PeerHits counts requests this node answered by relaying the
	// owning replica's response; SharedServes counts requests this node
	// served to other replicas as the owner (its shard earning its keep
	// fleet-wide).
	PeerHits, SharedServes int64
	// PeerUnavailable counts owner-routing attempts that failed;
	// LocalFallbacks counts requests that ended up computed locally
	// because no owner was reachable.
	PeerUnavailable, LocalFallbacks int64
}

// Membership is a snapshot of this node's view of the fleet: the peer
// set the ring is built over and the peers currently routed around.
type Membership struct {
	Self  string
	Peers []string // sorted
	Down  []string // sorted subset of Peers
}

type lruEntry struct {
	key string
	val any
}

// flight is one in-progress computation shared by all requests that
// arrived while it ran. waiters counts the requests still interested;
// when the last one gives up, the flight's context is canceled so the
// computation stops burning CPU for nobody.
type flight struct {
	ctx     context.Context
	cancel  context.CancelFunc
	done    chan struct{}
	val     any
	err     error
	waiters int
}

// New builds a Store from cfg, with its ring over cfg.Peers.
func New(cfg Config) *Store {
	if cfg.Base == nil {
		cfg.Base = context.Background()
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 128
	}
	s := &Store{
		base:    cfg.Base,
		self:    cfg.Self,
		max:     cfg.Capacity,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		flights: make(map[string]*flight),
		down:    make(map[string]bool),
	}
	if ring := NewRing(cfg.Peers, cfg.Replicas); len(ring.Peers()) > 1 {
		s.ring = ring
	}
	return s
}

// Self returns this node's ring name ("" on a single-node store).
func (s *Store) Self() string { return s.self }

// Fleet reports whether the store routes across a multi-peer ring.
func (s *Store) Fleet() bool { return s.ring != nil }

// Peers returns the ring's peer set (nil on a single-node store).
func (s *Store) Peers() []string {
	if s.ring == nil {
		return nil
	}
	return s.ring.Peers()
}

// member reports whether peer is on the ring.
func (s *Store) member(peer string) bool {
	peers := s.Peers()
	i := sort.SearchStrings(peers, peer)
	return i < len(peers) && peers[i] == peer
}

// Membership snapshots the membership view.
func (s *Store) Membership() Membership {
	m := Membership{Self: s.self, Peers: s.Peers()}
	s.mu.Lock()
	defer s.mu.Unlock()
	down := make([]string, 0, len(s.down))
	for p := range s.down {
		down = append(down, p)
	}
	sort.Strings(down)
	m.Down = down
	return m
}

// Route returns the peer that should serve key and whether that is
// this node. Downed peers are skipped in ring order (the consistent
// re-hash: the next arc over takes the key); when every remote owner
// is down — or the store is single-node — the answer is local.
func (s *Store) Route(key string) (owner string, local bool) {
	if s.ring == nil {
		return s.self, true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.ring.Owners(key) {
		if p == s.self {
			return p, true
		}
		if !s.down[p] {
			return p, false
		}
	}
	return s.self, true
}

// RemoteCandidates returns the remote peers that may serve key, in
// ring preference order, stopping at this node's own arc and skipping
// downed peers. An empty slice means the key is served locally. The
// first candidate is the owner; the rest are the arcs a resilient
// relay walks on retry.
func (s *Store) RemoteCandidates(key string) []string {
	if s.ring == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, p := range s.ring.Owners(key) {
		if p == s.self {
			break
		}
		if !s.down[p] {
			out = append(out, p)
		}
	}
	return out
}

// MarkDown routes requests around peer until MarkUp restores it, and
// reports whether the down set changed. The service's heartbeat is its
// only caller: it marks a peer down on a failed relay or on
// consecutive failed probes. Non-members are ignored, so
// Membership.Down stays a subset of Peers.
func (s *Store) MarkDown(peer string) bool {
	if peer == "" || peer == s.self || !s.member(peer) {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down[peer] {
		return false
	}
	s.down[peer] = true
	return true
}

// MarkUp restores peer to routing and reports whether it was down. The
// heartbeat calls it when a downed peer answers a probe again.
func (s *Store) MarkUp(peer string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.down[peer] {
		return false
	}
	delete(s.down, peer)
	return true
}

// Down reports whether peer is currently routed around.
func (s *Store) Down(peer string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down[peer]
}

// CountPeerHit accounts one request answered by relaying the owning
// replica's response.
func (s *Store) CountPeerHit() { s.peerHits.Add(1) }

// CountSharedServe accounts one request this node served to another
// replica as the key's owner.
func (s *Store) CountSharedServe() { s.sharedServes.Add(1) }

// CountPeerUnavailable accounts one failed owner-routing attempt.
func (s *Store) CountPeerUnavailable() { s.peerUnavailable.Add(1) }

// CountLocalFallback accounts one request computed locally because no
// owner was reachable.
func (s *Store) CountLocalFallback() { s.localFallbacks.Add(1) }

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:            s.hits.Load(),
		Misses:          s.misses.Load(),
		Coalesced:       s.coalesced.Load(),
		PeerHits:        s.peerHits.Load(),
		SharedServes:    s.sharedServes.Load(),
		PeerUnavailable: s.peerUnavailable.Load(),
		LocalFallbacks:  s.localFallbacks.Load(),
	}
}

// Do returns the artifact for key, computing it with fn at most once
// per concurrent batch of identical requests on this node. The second
// result is the lookup outcome (OutcomeHit, OutcomeMiss or
// OutcomeCoalesced). fn runs under a context that outlives any single
// requester but is canceled when every interested requester has gone
// or the node shuts down; errored computations are never retained.
func (s *Store) Do(ctx context.Context, key string, fn func(context.Context) (any, error)) (any, string, error) {
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		val := el.Value.(lruEntry).val
		s.mu.Unlock()
		s.hits.Add(1)
		return val, OutcomeHit, nil
	}
	if f, ok := s.flights[key]; ok && f.ctx.Err() == nil {
		f.waiters++
		s.mu.Unlock()
		s.coalesced.Add(1)
		return s.wait(ctx, f, OutcomeCoalesced)
	}
	// Leader: start the flight. A dead flight under the same key (all
	// of its waiters canceled) is simply replaced; its goroutine only
	// deletes the map entry if it still owns it.
	fctx, cancel := context.WithCancel(s.base)
	f := &flight{ctx: fctx, cancel: cancel, done: make(chan struct{}), waiters: 1}
	s.flights[key] = f
	s.mu.Unlock()
	s.misses.Add(1)

	go func() {
		// A panicking computation must fail its flight, not the process:
		// every coalesced waiter gets the recovered error, and the dead
		// flight is never retained.
		defer func() {
			if r := recover(); r != nil {
				s.mu.Lock()
				f.val, f.err = nil, fmt.Errorf("%w: store flight: %v\n%s", parallel.ErrWorkerPanic, r, debug.Stack())
				if s.flights[key] == f {
					delete(s.flights, key)
				}
				s.mu.Unlock()
				close(f.done)
				cancel()
			}
		}()
		// Fault-injection seam: inside the flight, before the
		// computation. An injected panic lands in the recover above and
		// fails the flight with ErrWorkerPanic; an injected error fails
		// it directly. ActionBudget has no meaning here (the store holds
		// no budget) and lets the flight proceed.
		var val any
		var err error
		if f := faultinject.At(faultinject.PointServiceCache); f != nil {
			err = f.Apply()
		}
		if err != nil {
			err = fmt.Errorf("store: flight: %w", err)
		} else {
			val, err = fn(fctx)
		}
		s.mu.Lock()
		f.val, f.err = val, err
		if s.flights[key] == f {
			delete(s.flights, key)
		}
		if err == nil {
			s.addLocked(key, val)
		}
		s.mu.Unlock()
		close(f.done)
		cancel()
	}()
	return s.wait(ctx, f, OutcomeMiss)
}

// wait blocks until the flight completes or the requester's own
// context is done. A requester abandoning the flight decrements the
// interest count; the last one out cancels the computation.
func (s *Store) wait(ctx context.Context, f *flight, state string) (any, string, error) {
	select {
	case <-f.done:
		return f.val, state, f.err
	case <-ctx.Done():
		s.mu.Lock()
		f.waiters--
		if f.waiters == 0 {
			f.cancel()
		}
		s.mu.Unlock()
		return nil, state, ctx.Err()
	}
}

// addLocked inserts a completed artifact, evicting the least recently
// used entry beyond capacity. Caller holds s.mu.
func (s *Store) addLocked(key string, val any) {
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		el.Value = lruEntry{key: key, val: val}
		return
	}
	s.items[key] = s.ll.PushFront(lruEntry{key: key, val: val})
	for s.ll.Len() > s.max {
		last := s.ll.Back()
		s.ll.Remove(last)
		delete(s.items, last.Value.(lruEntry).key)
	}
}

// Peek returns the retained artifact for key without starting a flight
// (it still refreshes the entry's recency) and without touching the
// outcome counters. The service's response-document cache rides on it.
func (s *Store) Peek(key string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(lruEntry).val, true
}

// Add retains a completed artifact computed outside a flight (e.g. an
// assembled response document derived from a cached analysis).
func (s *Store) Add(key string, val any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.addLocked(key, val)
}

// Forget drops the retained artifact for key, if any. In-flight
// computations are unaffected.
func (s *Store) Forget(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.ll.Remove(el)
		delete(s.items, key)
	}
}

// Len reports the number of retained artifacts.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}
