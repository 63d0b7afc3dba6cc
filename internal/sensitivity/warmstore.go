package sensitivity

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/model"
	"repro/internal/twca"
)

// coordKind enumerates the perturbation axes a probe coordinate can
// lie on.
type coordKind uint8

const (
	// coordScale scales WCETs by value/ScaleDenom; subject names the
	// task ("" = uniform).
	coordScale coordKind = iota
	// coordJitter adds value extra release jitter to the subject
	// overload chain.
	coordJitter
	// coordDistance sets the subject chain's base inter-arrival
	// distance to value.
	coordDistance
)

// coord identifies one probe point in perturbation space. It is the
// warm store's key: a hit skips materializing and hashing the perturbed
// system entirely, which a content-hash key could not.
type coord struct {
	kind    coordKind
	subject string
	value   int64
}

// familyKey groups coordinates that differ only in value: the axis one
// bisection probes, and the unit of one warm-store fetch.
type familyKey struct {
	kind    coordKind
	subject string
}

// Store growth caps. The warm store retains whole analyses, so a
// long-lived shared store (the analysis service's) must stay bounded:
// past the entry cap new entries are simply not retained, and past the
// scope cap the least recently used scopes are dropped. Either costs
// warm hits but can never change a result.
const (
	maxScopes       = 64
	maxScopeEntries = 4096
)

// WarmStore retains completed probe outcomes across sensitivity
// queries, keyed by perturbation coordinate: a coordinate solved before
// (same base system, chain and analysis options) is answered with the
// stored outcome, without materializing or hashing the perturbed
// system. A stored outcome is the outcome a solve would produce, so
// every value the engine computes is byte-identical with or without
// the store. A WarmStore is safe for concurrent use and may be shared
// across queries, engines and goroutines; the analysis service holds
// one per process.
//
// Scopes rotate through two generations of maxScopes/2 each: a scope
// is looked up in cur, then in old (and promoted to cur); when cur is
// full it becomes old and the previous old is dropped. So the store
// holds at most maxScopes scopes, and the maxScopes/2 most recently
// used ones always survive. Each generation also indexes its scopes by
// base-system hash (the most recently used scope of each base), which
// is how Nominal finds a retained system in O(1); the index rotates
// with its generation, so it never outlives the scopes it points to.
type WarmStore struct {
	mu               sync.Mutex
	cur, old         map[string]*scopeStore
	curBase, oldBase map[string]*scopeStore

	hits     atomic.Int64
	misses   atomic.Int64
	injected atomic.Int64
}

// NewWarmStore returns an empty warm store.
func NewWarmStore() *WarmStore {
	return &WarmStore{cur: make(map[string]*scopeStore), curBase: make(map[string]*scopeStore)}
}

// WarmStats is a point-in-time snapshot of store effectiveness.
type WarmStats struct {
	// Hits counts exact-coordinate lookups answered from the store,
	// Misses the lookups that fell through to a fresh analysis.
	Hits, Misses int64
	// Injected counts store consultations suppressed by the
	// sensitivity.warmstore fault-injection seam, each degraded to a
	// silent (uncounted) miss. A probe batch's fetch is one
	// consultation: a suppressed fetch turns every candidate of its
	// batch into a miss and counts once, like a suppressed Nominal
	// lookup.
	Injected int64
}

// Stats returns a snapshot of the store's hit/miss counters.
func (w *WarmStore) Stats() WarmStats {
	if w == nil {
		return WarmStats{}
	}
	return WarmStats{Hits: w.hits.Load(), Misses: w.misses.Load(), Injected: w.injected.Load()}
}

// scope returns the per-(system, chain, options, quantum) sub-store.
// Coordinates are only comparable within one scope: a scale numerator
// means nothing under another denominator, and analyses under other
// options are different artifacts. An unhashable base system gets a
// fresh private scope (still useful within its query, never shared).
func (w *WarmStore) scope(baseHash, chain string, aopts twca.Options, denom int64) *scopeStore {
	if baseHash == "" {
		return &scopeStore{owner: w, byCoord: make(map[coord]*memoEntry)}
	}
	// The key names the effective policy, so every spelling of one
	// policy ("" and "spp", or the name set through Latency.Policy)
	// shares a scope: twca reads only the forwarded Latency.Policy.
	aopts.Policy, aopts.Latency.Policy = aopts.PolicyName(), ""
	key := baseHash + "|" + chain + "|" + strconv.FormatInt(denom, 10) + "|" + fmt.Sprintf("%+v", aopts)
	w.mu.Lock()
	defer w.mu.Unlock()
	if s, ok := w.cur[key]; ok {
		return s
	}
	s, ok := w.old[key]
	if ok {
		delete(w.old, key)
	} else {
		s = &scopeStore{owner: w, byCoord: make(map[coord]*memoEntry)}
	}
	if len(w.cur) >= maxScopes/2 {
		w.old, w.cur = w.cur, make(map[string]*scopeStore)
		w.oldBase, w.curBase = w.curBase, make(map[string]*scopeStore)
	}
	w.cur[key] = s
	w.curBase[baseHash] = s
	return s
}

// baseScope returns the most recently used scope of the base system
// with canonical hash hash, or nil.
func (w *WarmStore) baseScope(hash string) *scopeStore {
	if w == nil || hash == "" {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if s, ok := w.curBase[hash]; ok {
		return s
	}
	return w.oldBase[hash]
}

// Nominal returns the unperturbed system the store retains for the base
// system with canonical hash hash — the system of a scope's nominal
// analysis — or nil when no live scope of that base holds a nominal
// analysis. The lookup is one map probe per generation and runs the
// sensitivity.warmstore fault seam: an armed seam reports a miss, so the
// caller decodes its own copy. The returned system is shared with the
// store and every analysis built on it: treat it as read-only
// (perturbations clone before they modify).
//
// A query on the returned system whose Engine.BaseHash is hash skips
// re-hashing it. Retaining the system pins nothing new: the scope's
// nominal analysis already holds it.
func (w *WarmStore) Nominal(hash string) *model.System {
	s := w.baseScope(hash)
	if s == nil || !s.available() {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.nominal == nil {
		return nil
	}
	return s.nominal.an.Sys
}

// retains reports whether sys is the very system Nominal(hash) hands
// out, which proves hash is its canonical hash without re-hashing it. It
// is a pure membership check: no fault seam, no counters.
func (w *WarmStore) retains(hash string, sys *model.System) bool {
	s := w.baseScope(hash)
	if s == nil {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nominal != nil && s.nominal.an.Sys == sys
}

// scopeStore holds the entries of one scope. byCoord maps each stored
// coordinate to its outcome: a solved analysis or a deterministic
// failure verdict (diverged / K-exceeded, a pure function of the
// coordinate — see deterministicErr). Each outcome is a complete memo
// entry, built once in put and carrying the perturbed system's content
// hash, so a query that hits it records this very pointer instead of
// allocating per hit; complete entries are never written again.
// nominal is the unperturbed system's exact analysis, also held in
// byCoord: it is how Nominal hands a caller the decoded base system.
// takenHint is how many stored outcomes the scope's latest query took,
// which sizes the next query's list of them up front.
type scopeStore struct {
	owner *WarmStore

	mu        sync.RWMutex
	byCoord   map[coord]*memoEntry
	nominal   *memoEntry
	takenHint atomic.Int64
}

// available runs the sensitivity.warmstore fault-injection seam: an
// armed error or budget rule makes every store consultation report a
// miss, degrading the engine to cold solves — the chaos suite pins
// that this fallback is silent and never moves a bound the wrong way.
func (s *scopeStore) available() bool {
	f := faultinject.At(faultinject.PointSensitivityWarmStore)
	if f == nil {
		return true
	}
	if f.Budget() {
		s.owner.injected.Add(1)
		return false
	}
	if err := f.Apply(); err != nil {
		s.owner.injected.Add(1)
		return false
	}
	return true
}

// fetch sets the stored field of each fresh candidate of family fk to
// the outcome stored for its coordinate, if any, and returns how many it
// found. One call serves a whole probe batch: one read-locked pass, one
// update of the hit and miss counters, and one run of the
// sensitivity.warmstore fault seam, so an armed seam turns every
// candidate of the batch into a miss.
func (s *scopeStore) fetch(fk familyKey, cands []candidate) int {
	if s == nil || !s.available() {
		return 0
	}
	found := 0
	s.mu.RLock()
	for i := range cands {
		if e := s.byCoord[coord{kind: fk.kind, subject: fk.subject, value: cands[i].x}]; e != nil {
			cands[i].stored = e
			found++
		}
	}
	s.mu.RUnlock()
	if found > 0 {
		s.owner.hits.Add(int64(found))
	}
	if found < len(cands) {
		s.owner.misses.Add(int64(len(cands) - found))
	}
	return found
}

// put retains a completed probe outcome under its coordinate: a solved
// analysis, or (an == nil, err != nil) a deterministic failure verdict.
// A degraded analysis is kept only when a later query would reproduce
// it (see degrade.Info.Reproducible) and never at the nominal
// coordinate: a degraded nominal above m makes the whole result certify
// nothing, and a later query must solve the nominal again.
func (s *scopeStore) put(c coord, hash string, an *twca.Analysis, err error, denom int64) {
	if s == nil || (an == nil && err == nil) {
		return
	}
	nominal := c.kind == coordScale && c.subject == "" && c.value == denom
	degraded := an != nil && (an.Degraded.Degraded() || an.Latency.Quality.Degraded())
	if degraded && (nominal || !an.Degraded.Reproducible() || !an.Latency.Quality.Reproducible()) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byCoord[c]; ok {
		return
	}
	if len(s.byCoord) >= maxScopeEntries {
		return
	}
	out := &memoEntry{hash: hash, an: an, err: err}
	s.byCoord[c] = out
	if nominal && an != nil {
		s.nominal = out
	}
}
