package service

import (
	"crypto/sha256"
	"sync"
)

// memoKey addresses one system description by the SHA-256 of its exact
// request bytes. JSON documents and DSL texts live in separate domains,
// so a DSL body whose text happens to equal some JSON body's bytes can
// never borrow that body's hash.
type memoKey struct {
	dsl    bool
	digest [sha256.Size]byte
}

// systemMemo maps the digest of a request's raw system bytes to the
// canonical hash those bytes decoded to. A repeat body then routes and
// builds its store keys without decoding, validating or hashing the
// system again; the model itself is decoded only when a store miss runs
// an analysis (see lazySystem).
//
// Only bytes that decoded, validated and hashed successfully are ever
// added, so a bad body fails the same way on every repeat. The memo holds
// hashes, never systems: a retained *System would keep a whole decoded
// model alive for an entry worth 64 bytes of hex.
//
// Eviction is two-generational: lookups and inserts go to cur, and when
// cur reaches half the capacity it becomes old and a fresh cur starts. A
// hit in old is promoted into cur, so systems in steady use survive each
// rotation while one-off systems age out within two. The two maps
// together never hold more than the capacity; a capacity of one keeps
// no old generation.
type systemMemo struct {
	mu       sync.Mutex
	half     int
	keepOld  bool
	cur, old map[memoKey]string
}

// newSystemMemo returns a memo holding at most capacity entries (at
// least one).
func newSystemMemo(capacity int) *systemMemo {
	half := max(capacity/2, 1)
	return &systemMemo{half: half, keepOld: capacity >= 2, cur: make(map[memoKey]string, half)}
}

// get returns the canonical hash memoized for k.
func (m *systemMemo) get(k memoKey) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok := m.cur[k]; ok {
		return h, true
	}
	h, ok := m.old[k]
	if ok {
		delete(m.old, k)
		m.addLocked(k, h)
	}
	return h, ok
}

// add memoizes the canonical hash of the bytes behind k.
func (m *systemMemo) add(k memoKey, hash string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.addLocked(k, hash)
}

func (m *systemMemo) addLocked(k memoKey, hash string) {
	if _, ok := m.cur[k]; !ok && len(m.cur) >= m.half {
		m.old, m.cur = m.cur, make(map[memoKey]string, m.half)
		if !m.keepOld {
			m.old = nil
		}
	}
	m.cur[k] = hash
}

// len returns the number of memoized digests.
func (m *systemMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cur) + len(m.old)
}
