package store

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring over a static set of peer names. Each
// peer owns the arc of key space between its virtual nodes and their
// predecessors, so adding or removing one peer remaps only the keys on
// that peer's arcs (~1/N of the space) instead of reshuffling
// everything — the property that lets a replica die without
// invalidating the whole fleet's warm artifacts.
//
// The ring is immutable after construction and safe for concurrent
// use. Ownership is a pure function of (peer set, key): every replica
// configured with the same peer list computes the same owner for every
// key, which is what makes ownership a routing protocol rather than a
// consensus problem.
type Ring struct {
	vnodes []vnode
	peers  []string // sorted, deduplicated
}

type vnode struct {
	h    uint64
	peer string
}

// defaultReplicas is the number of virtual nodes per peer. 64 keeps
// the expected load imbalance of a 3-node fleet under a few percent
// while the ring stays small enough to search with no index.
const defaultReplicas = 64

// NewRing builds a ring over peers with the given number of virtual
// nodes per peer (≤ 0 selects the default). Duplicate names collapse;
// an empty peer set yields a ring whose Owner is always "".
func NewRing(peers []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = defaultReplicas
	}
	seen := make(map[string]bool, len(peers))
	r := &Ring{}
	for _, p := range peers {
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		r.peers = append(r.peers, p)
	}
	sort.Strings(r.peers)
	for _, p := range r.peers {
		for i := 0; i < replicas; i++ {
			r.vnodes = append(r.vnodes, vnode{h: ringHash(p + "#" + strconv.Itoa(i)), peer: p})
		}
	}
	sort.Slice(r.vnodes, func(i, j int) bool {
		if r.vnodes[i].h != r.vnodes[j].h {
			return r.vnodes[i].h < r.vnodes[j].h
		}
		// Hash ties (astronomically rare but possible) break by name so
		// every replica agrees on the ring order.
		return r.vnodes[i].peer < r.vnodes[j].peer
	})
	return r
}

// ringHash is FNV-1a 64. Speed is irrelevant here (one hash per
// routing decision); what matters is that it is stable across
// processes, architectures and Go releases, because every replica must
// agree on it.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Peers returns the distinct peer names on the ring, sorted.
func (r *Ring) Peers() []string { return r.peers }

// Owner returns the peer owning key: the peer of the first virtual
// node at or after the key's hash, wrapping around. Empty ring returns
// "".
func (r *Ring) Owner(key string) string {
	if len(r.vnodes) == 0 {
		return ""
	}
	return r.vnodes[r.successor(key)].peer
}

// Owners returns every distinct peer in ring order starting from the
// key's successor — the preference order a requester walks when owners
// are unavailable (the "re-hash" when an owner is down: the next arc
// over takes the key).
func (r *Ring) Owners(key string) []string {
	if len(r.vnodes) == 0 {
		return nil
	}
	out := make([]string, 0, len(r.peers))
	seen := make(map[string]bool, len(r.peers))
	start := r.successor(key)
	for i := 0; i < len(r.vnodes) && len(out) < len(r.peers); i++ {
		p := r.vnodes[(start+i)%len(r.vnodes)].peer
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// successor returns the index of the first virtual node at or after
// key's hash, wrapping to 0 past the end.
func (r *Ring) successor(key string) int {
	h := ringHash(key)
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].h >= h })
	if i == len(r.vnodes) {
		i = 0
	}
	return i
}
