package store

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func single(capacity int) *Store {
	return New(Config{Capacity: capacity})
}

// TestCoalescing floods one key with concurrent requests against a
// gated fn: exactly one execution, one miss, and everyone else
// piggybacks on it.
func TestCoalescing(t *testing.T) {
	s := single(8)
	var calls atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})
	fn := func(ctx context.Context) (any, error) {
		calls.Add(1)
		close(started)
		<-release
		return "artifact", nil
	}

	const n = 16
	states := make([]string, n)
	vals := make([]any, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		vals[0], states[0], _ = s.Do(context.Background(), "k", fn)
	}()
	<-started // leader is inside fn; everyone else must coalesce
	wg.Add(n - 1)
	for i := 1; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			vals[i], states[i], _ = s.Do(context.Background(), "k", fn)
		}(i)
	}
	// Give the followers a moment to reach the flight, then finish it.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
	misses := 0
	for i, st := range states {
		if vals[i] != "artifact" {
			t.Errorf("request %d got %v", i, vals[i])
		}
		switch st {
		case OutcomeMiss:
			misses++
		case OutcomeCoalesced, OutcomeHit:
		default:
			t.Errorf("request %d state %q", i, st)
		}
	}
	if misses != 1 {
		t.Errorf("%d misses, want exactly 1", misses)
	}
	// And the artifact is now retained: a late request is a pure hit.
	v, st, err := s.Do(context.Background(), "k", fn)
	if err != nil || v != "artifact" || st != OutcomeHit {
		t.Errorf("late request = (%v, %q, %v), want (artifact, hit, nil)", v, st, err)
	}
	// Counter bookkeeping agrees with the observed outcomes.
	stats := s.Stats()
	if stats.Misses != 1 || stats.Hits < 1 {
		t.Errorf("stats = %+v, want 1 miss and ≥1 hit", stats)
	}
	if stats.Misses+stats.Hits+stats.Coalesced != n+1 {
		t.Errorf("outcome counters sum to %d, want %d", stats.Misses+stats.Hits+stats.Coalesced, n+1)
	}
}

// TestAbandonmentCancelsFlight verifies the refcount: when every
// requester gives up, the in-flight computation context is canceled so
// the work can stop mid-way.
func TestAbandonmentCancelsFlight(t *testing.T) {
	s := single(8)
	flightCanceled := make(chan struct{})
	started := make(chan struct{})
	fn := func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done() // the computation observing cooperative cancellation
		close(flightCanceled)
		return nil, fmt.Errorf("canceled after %w", ctx.Err())
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.Do(ctx, "k", fn)
		errc <- err
	}()
	<-started
	cancel() // the only requester walks away

	select {
	case <-flightCanceled:
	case <-time.After(5 * time.Second):
		t.Fatal("flight context never canceled after last requester left")
	}
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Errorf("requester error = %v, want context.Canceled", err)
	}

	// The errored flight must not be retained and must not poison the
	// key: a fresh request recomputes.
	v, st, err := s.Do(context.Background(), "k", func(ctx context.Context) (any, error) {
		return "fresh", nil
	})
	if err != nil || v != "fresh" || st != OutcomeMiss {
		t.Errorf("post-cancel request = (%v, %q, %v), want (fresh, miss, nil)", v, st, err)
	}
}

// TestErrorsNotRetained: a failing computation is reported to its
// waiters but never enters the LRU.
func TestErrorsNotRetained(t *testing.T) {
	s := single(8)
	boom := errors.New("boom")
	calls := 0
	fn := func(ctx context.Context) (any, error) { calls++; return nil, boom }
	if _, _, err := s.Do(context.Background(), "k", fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, _, err := s.Do(context.Background(), "k", fn); !errors.Is(err, boom) {
		t.Fatalf("second err = %v, want boom", err)
	}
	if calls != 2 {
		t.Errorf("fn ran %d times, want 2 (errors must not be retained)", calls)
	}
	if s.Len() != 0 {
		t.Errorf("store holds %d entries, want 0", s.Len())
	}
}

// TestLRUEviction: capacity is enforced and eviction is
// least-recently-used.
func TestLRUEviction(t *testing.T) {
	s := single(2)
	mk := func(v string) func(context.Context) (any, error) {
		return func(ctx context.Context) (any, error) { return v, nil }
	}
	s.Do(context.Background(), "a", mk("A"))
	s.Do(context.Background(), "b", mk("B"))
	s.Do(context.Background(), "a", mk("A2")) // touch a: b becomes LRU
	s.Do(context.Background(), "c", mk("C"))  // evicts b
	if s.Len() != 2 {
		t.Fatalf("store holds %d entries, want 2", s.Len())
	}
	if v, st, _ := s.Do(context.Background(), "a", mk("A3")); st != OutcomeHit || v != "A" {
		t.Errorf("a = (%v, %q), want retained (A, hit)", v, st)
	}
	if _, st, _ := s.Do(context.Background(), "b", mk("B2")); st != OutcomeMiss {
		t.Errorf("b state %q, want miss (evicted)", st)
	}
}

// TestNodeShutdown: the base context dying cancels in-flight
// computations.
func TestNodeShutdown(t *testing.T) {
	base, stop := context.WithCancel(context.Background())
	s := New(Config{Base: base, Capacity: 8})
	started := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.Do(context.Background(), "k", func(ctx context.Context) (any, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		})
		errc <- err
	}()
	<-started
	stop()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown did not release the waiter")
	}
}

// TestRouteSingleNode: without a multi-peer ring every key is local.
func TestRouteSingleNode(t *testing.T) {
	for _, s := range []*Store{single(8), New(Config{Self: "a", Peers: []string{"a"}})} {
		owner, local := s.Route("any-key")
		if !local || owner != s.Self() {
			t.Errorf("Route = (%q, %v), want local self", owner, local)
		}
		if s.Fleet() {
			t.Error("single-node store reports Fleet() = true")
		}
	}
}

// TestRouteAgreement: every replica of the same peer set routes every
// key to the same owner — ownership is a pure function of (peers, key).
func TestRouteAgreement(t *testing.T) {
	peers := []string{"http://a", "http://b", "http://c"}
	nodes := make([]*Store, len(peers))
	for i, self := range peers {
		nodes[i] = New(Config{Self: self, Peers: peers})
	}
	perOwner := map[string]int{}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("dmm|hash%03d|chain", i)
		owner, _ := nodes[0].Route(key)
		perOwner[owner]++
		for _, n := range nodes[1:] {
			got, local := n.Route(key)
			if got != owner {
				t.Fatalf("node %s routes %q to %q, node %s to %q", n.Self(), key, got, nodes[0].Self(), owner)
			}
			if local != (got == n.Self()) {
				t.Errorf("node %s: local = %v for owner %q", n.Self(), local, got)
			}
		}
	}
	// The ring must spread keys: no peer owns everything or nothing.
	for _, p := range peers {
		if perOwner[p] == 0 || perOwner[p] == 200 {
			t.Errorf("owner distribution %v is degenerate", perOwner)
		}
	}
}

// TestRouteReHashOnDown: marking the owner down re-hashes the key to
// the next arc on the ring, and with every remote owner down the key
// is served locally.
func TestRouteReHashOnDown(t *testing.T) {
	peers := []string{"http://a", "http://b", "http://c"}
	s := New(Config{Self: "http://a", Peers: peers})

	// Find a key owned by a remote peer.
	key, owner := "", ""
	for i := 0; ; i++ {
		key = fmt.Sprintf("k%d", i)
		if o, local := s.Route(key); !local {
			owner = o
			break
		}
	}
	s.MarkDown(owner)
	second, _ := s.Route(key)
	if second == owner {
		t.Fatalf("downed owner %q still routed", owner)
	}
	// Ring order is deterministic: the fallback owner is the next
	// distinct peer after the primary.
	ring := NewRing(peers, 0)
	owners := ring.Owners(key)
	if owners[0] != owner || owners[1] != second {
		t.Errorf("fallback order = %v, Route gave %q then %q", owners, owner, second)
	}
	// Both remote peers down: the key falls back to self.
	s.MarkDown(second)
	if o, local := s.Route(key); !local || o != "http://a" {
		t.Errorf("all-owners-down Route = (%q, %v), want local self", o, local)
	}
}

// TestRingMembershipStability: removing one peer remaps only the keys
// it owned — every key owned by a surviving peer keeps its owner. This
// is the property that keeps warm artifacts warm across a replica
// death.
func TestRingMembershipStability(t *testing.T) {
	peers := []string{"n1", "n2", "n3", "n4"}
	full := NewRing(peers, 0)
	without := NewRing([]string{"n1", "n2", "n4"}, 0)
	moved := 0
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("artifact-%d", i)
		before := full.Owner(key)
		after := without.Owner(key)
		if before == "n3" {
			if after == "n3" {
				t.Fatalf("key %q still owned by removed peer", key)
			}
			moved++
			continue
		}
		if after != before {
			t.Errorf("key %q moved %q -> %q though its owner survived", key, before, after)
		}
	}
	if moved == 0 {
		t.Error("removed peer owned no keys out of 500 — ring is degenerate")
	}
}

// TestRingDeterminism: construction is order-insensitive and repeated
// construction is identical — replicas configured with permuted peer
// lists still agree.
func TestRingDeterminism(t *testing.T) {
	a := NewRing([]string{"x", "y", "z"}, 32)
	b := NewRing([]string{"z", "x", "y", "x"}, 32)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("permuted ring disagrees on %q: %q vs %q", key, a.Owner(key), b.Owner(key))
		}
	}
	if len(a.Peers()) != 3 {
		t.Errorf("Peers() = %v, want 3 distinct", a.Peers())
	}
	if NewRing(nil, 0).Owner("k") != "" {
		t.Error("empty ring Owner != \"\"")
	}
}

// TestMarkUpRestoresImmediately: a peer stays down until MarkUp, which
// returns it to routing at once; both calls report whether they changed
// the down set.
func TestMarkUpRestoresImmediately(t *testing.T) {
	s := New(Config{Self: "n1", Peers: []string{"n1", "n2", "n3"}})
	key, owner := "", ""
	for i := 0; ; i++ {
		key = fmt.Sprintf("k%d", i)
		if o, local := s.Route(key); !local {
			owner = o
			break
		}
	}
	if !s.MarkDown(owner) || !s.Down(owner) {
		t.Fatal("MarkDown did not take")
	}
	if s.MarkDown(owner) {
		t.Error("repeat MarkDown reported a change")
	}
	if got := s.Membership().Down; len(got) != 1 || got[0] != owner {
		t.Errorf("Membership().Down = %v, want [%s]", got, owner)
	}
	if !s.MarkUp(owner) || s.Down(owner) {
		t.Fatal("MarkUp left the peer down")
	}
	if s.MarkUp(owner) {
		t.Error("MarkUp of an up peer reported a change")
	}
	if o, _ := s.Route(key); o != owner {
		t.Errorf("Route(%q) = %q after MarkUp, want %q", key, o, owner)
	}
}

// TestMarkDownIgnoresNonMembers: a relay report or heartbeat probe
// naming a peer that is not on the ring must not insert it into the
// down set -- Membership.Down stays a subset of Peers.
func TestMarkDownIgnoresNonMembers(t *testing.T) {
	s := New(Config{Self: "n1", Peers: []string{"n1", "n2", "n3"}})

	s.MarkDown("n2")
	if !s.Down("n2") {
		t.Fatal("MarkDown on a member did not take")
	}
	if s.MarkDown("n4") || s.Down("n4") { // never in Peers
		t.Error("MarkDown inserted a non-member into the down set")
	}
	if s.MarkDown("n1") {
		t.Error("MarkDown of the self node reported a change")
	}
	m := s.Membership()
	members := map[string]bool{}
	for _, p := range m.Peers {
		members[p] = true
	}
	for _, p := range m.Down {
		if !members[p] {
			t.Errorf("Membership().Down contains non-member %q", p)
		}
	}
	if len(m.Down) != 1 {
		t.Errorf("Membership().Down = %v, want [n2]", m.Down)
	}
}
