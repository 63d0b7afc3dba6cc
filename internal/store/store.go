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
// Membership is dynamic: AddPeer and RemovePeer swap the immutable
// ring for a rebuilt one under a versioned membership view, moving
// only the joining or leaving peer's keys (the consistent-hashing
// property the ring tests pin). The service layer drives those
// mutations from its cluster admin surface; its heartbeat prober is
// the only writer of the down set. The store itself stays a pure data
// structure with no clock: LRU + flights + ring + the down set.
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
	// Self is this node's name on the ring; Peers is the initial peer
	// set (including Self). Fewer than two peers disables routing until
	// AddPeer grows the membership; every key is owned locally.
	Self  string
	Peers []string
	// Replicas is the virtual-node count per peer (≤ 0 selects the
	// ring default).
	Replicas int
}

// Store is one node's view of the artifact tier. All methods are safe
// for concurrent use.
type Store struct {
	base     context.Context
	self     string
	replicas int

	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used
	items   map[string]*list.Element
	flights map[string]*flight
	// ring is the current consistent-hash view over members (nil when
	// membership routes everything locally); members is the mutable
	// peer set the ring is rebuilt from, version its mutation counter.
	ring    *Ring
	members map[string]bool
	version uint64
	// down holds the peers currently routed around. It has no expiry:
	// a peer leaves it only by MarkUp or by leaving the membership, so
	// routing is a pure function of the peer set and this set.
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

// Membership is a versioned snapshot of this node's view of the fleet:
// the peer set the ring is built over and the peers currently routed
// around. Version increments on every AddPeer/RemovePeer mutation, so
// operators (and tests) can tell two views apart without diffing peer
// lists.
type Membership struct {
	Version uint64
	Self    string
	Peers   []string // sorted
	Down    []string // sorted subset of Peers
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

// New builds a Store from cfg.
func New(cfg Config) *Store {
	if cfg.Base == nil {
		cfg.Base = context.Background()
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 128
	}
	s := &Store{
		base:     cfg.Base,
		self:     cfg.Self,
		replicas: cfg.Replicas,
		max:      cfg.Capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		flights:  make(map[string]*flight),
		members:  make(map[string]bool),
		down:     make(map[string]bool),
	}
	for _, p := range cfg.Peers {
		if p != "" {
			s.members[p] = true
		}
	}
	s.rebuildRingLocked()
	return s
}

// rebuildRingLocked recomputes the ring from the member set. A
// membership of fewer than two peers — or of exactly the self node —
// disables routing: every key is owned locally. Caller holds s.mu.
func (s *Store) rebuildRingLocked() {
	if len(s.members) < 2 && (len(s.members) == 0 || s.members[s.self]) {
		s.ring = nil
		return
	}
	peers := make([]string, 0, len(s.members))
	for p := range s.members {
		peers = append(peers, p)
	}
	sort.Strings(peers)
	s.ring = NewRing(peers, s.replicas)
}

// Self returns this node's ring name ("" on a single-node store).
func (s *Store) Self() string { return s.self }

// Fleet reports whether the store routes across a multi-peer ring.
func (s *Store) Fleet() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring != nil
}

// Peers returns the ring's peer set (nil on a single-node store).
func (s *Store) Peers() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ring == nil {
		return nil
	}
	return s.ring.Peers()
}

// Membership snapshots the versioned membership view.
func (s *Store) Membership() Membership {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := Membership{Version: s.version, Self: s.self}
	if s.ring != nil {
		m.Peers = append(m.Peers, s.ring.Peers()...)
	}
	down := make([]string, 0, len(s.down))
	for p := range s.down {
		down = append(down, p)
	}
	sort.Strings(down)
	m.Down = down
	return m
}

// AddPeer joins peer to the membership, rebuilding the ring so that
// only keys on the joining peer's arcs change owner. It reports
// whether the membership changed (an empty name or an existing member
// is a no-op); any change bumps the membership version.
func (s *Store) AddPeer(peer string) bool {
	if peer == "" {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.members[peer] {
		return false
	}
	s.members[peer] = true
	s.version++
	s.rebuildRingLocked()
	return true
}

// RemovePeer drops peer from the membership, rebuilding the ring so
// that only the leaving peer's keys re-home (to the next arcs over).
// Removing the self node is allowed and means this replica owns
// nothing — the ownership-handoff half of a drain — while it keeps
// serving relayed requests. Reports whether the membership changed.
func (s *Store) RemovePeer(peer string) bool {
	if peer == "" {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.members[peer] {
		return false
	}
	delete(s.members, peer)
	s.version++
	delete(s.down, peer)
	s.rebuildRingLocked()
	return true
}

// Route returns the peer that should serve key and whether that is
// this node. Downed peers are skipped in ring order (the consistent
// re-hash: the next arc over takes the key); when every remote owner
// is down — or the store is single-node — the answer is local.
func (s *Store) Route(key string) (owner string, local bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ring == nil {
		return s.self, true
	}
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
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ring == nil {
		return nil
	}
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
// consecutive failed probes. Non-members are ignored — a relay attempt
// or probe that was already in flight when its peer left the
// membership must not re-insert it into the down set (Membership.Down
// stays a subset of Peers; RemovePeer already cleared any existing
// down state).
func (s *Store) MarkDown(peer string) bool {
	if peer == "" || peer == s.self {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down[peer] || !s.members[peer] {
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
