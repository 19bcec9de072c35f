package engine

import (
	"container/list"
	"sync"

	"eedtree/internal/faultinj"
	"eedtree/internal/guard"
	"eedtree/internal/rlctree"
)

// Registry is the daemon-side pool of resident nets: parsed trees with
// warm incremental Sessions, keyed by content fingerprint and evicted
// least-recently-used. It is what turns the engine into a service — a
// point query against a resident net skips process startup, parsing and
// the O(n) summation passes entirely and runs at the session's O(depth)
// cost, and a whole-tree analysis of a net unchanged since its last one
// is a copy of the result its session holds. Each session holds at most
// one such result, so the entry bound also bounds them.
//
// Concurrency contract. A Session is not safe for concurrent use (see
// Session); the registry enforces that for its residents with a per-net
// mutex: all session access goes through Resident.Do, which serializes
// callers per net while different nets proceed in parallel. The registry's
// own index is guarded by a separate mutex that is never held across a
// Do body, so a slow analysis on one net never blocks lookups of others.
// Lock order is always index-then-net or net-then-index via Rekey — Rekey
// acquires the index mutex while holding a net mutex, and lookups acquire
// net mutexes only after releasing the index mutex, so the two orders
// never wait on each other.
//
// Eviction removes a net from the index only; a caller holding the
// *Resident keeps a fully functional (tree, session) pair until it lets
// go of the reference. Re-registering the same content after eviction
// rebuilds the session from scratch (a counted miss).
type Registry struct {
	eng *Engine

	mu        sync.Mutex
	capacity  int
	order     *list.List // front = most recently used; values are *Resident
	byKey     map[rlctree.Fingerprint]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

// DefaultRegistryEntries is the resident-net bound used when NewRegistry
// is given a non-positive capacity.
const DefaultRegistryEntries = 256

// NewRegistry returns a registry holding at most capacity resident nets
// (capacity <= 0 means DefaultRegistryEntries) whose sessions sweep
// through eng and count their held-result hits and misses in its
// CacheStats (nil = each session gets a default engine of its own).
func NewRegistry(eng *Engine, capacity int) *Registry {
	if capacity <= 0 {
		capacity = DefaultRegistryEntries
	}
	return &Registry{
		eng:      eng,
		capacity: capacity,
		order:    list.New(),
		byKey:    make(map[rlctree.Fingerprint]*list.Element, capacity),
	}
}

// Resident is one net held warm by a Registry: the parsed tree and its
// incremental session, plus the mutex that serializes session use. All
// access to the pair goes through Do.
type Resident struct {
	reg *Registry

	mu   sync.Mutex
	fp   rlctree.Fingerprint // current content fingerprint; updated by Rekey
	tree *rlctree.Tree
	sess *Session

	elem *list.Element // registry LRU slot; nil once evicted (guarded by reg.mu)
}

// Do runs fn with exclusive access to the resident's session and tree.
// Callers must not retain the session or tree beyond fn, and must call
// Rekey before returning from fn if they edited element values (the
// registry key must track content).
func (res *Resident) Do(fn func(sess *Session, tree *rlctree.Tree) error) error {
	res.mu.Lock()
	defer res.mu.Unlock()
	return fn(res.sess, res.tree)
}

// Fingerprint returns the resident's current content fingerprint (its
// registry key).
func (res *Resident) Fingerprint() rlctree.Fingerprint {
	res.mu.Lock()
	defer res.mu.Unlock()
	return res.fp
}

// Put registers t as a resident net, creating its warm session, and
// returns the resident and its fingerprint key. When a net with identical
// content is already resident it is returned instead (a registry hit — the
// caller's tree is discarded and the existing warm session serves), so
// repeated uploads of the same deck cost one hash. Registering beyond
// capacity evicts the least recently used net.
//
// The registry takes ownership of t: callers must not mutate it directly
// afterwards (use Resident.Do).
func (r *Registry) Put(t *rlctree.Tree) (*Resident, error) {
	res, _, err := r.PutInfo(t)
	return res, err
}

// PutInfo is Put, additionally reporting whether the content was already
// resident (a registry hit) — the flight recorder's cache annotation.
func (r *Registry) PutInfo(t *rlctree.Tree) (*Resident, bool, error) {
	if t == nil || t.Len() == 0 {
		return nil, false, guard.Newf(guard.ErrTopology, "engine", "registry: empty tree")
	}
	fp := t.Fingerprint()
	r.mu.Lock()
	if el, ok := r.byKey[fp]; ok {
		r.order.MoveToFront(el)
		r.hits++
		mRegistryHits.Inc()
		res := el.Value.(*Resident)
		r.mu.Unlock()
		return res, true, nil
	}
	r.misses++
	mRegistryMisses.Inc()
	r.mu.Unlock()

	// Build the session outside the index lock: incr.New is O(n) and must
	// not stall lookups of other nets. Two goroutines registering the same
	// new content race benignly — the second insert finds the first's key
	// and returns it.
	sess, err := newSession(r.eng, t)
	if err != nil {
		return nil, false, err
	}
	res := &Resident{reg: r, fp: fp, tree: t, sess: sess}

	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.byKey[fp]; ok {
		r.order.MoveToFront(el)
		r.hits++
		mRegistryHits.Inc()
		return el.Value.(*Resident), true, nil
	}
	res.elem = r.order.PushFront(res)
	r.byKey[fp] = res.elem
	r.evictOverflowLocked()
	mRegistryNets.Set(int64(r.order.Len()))
	return res, false, nil
}

// Lookup returns the resident net with the given fingerprint, refreshing
// its recency, or (nil, false) when no such net is resident (never
// registered, evicted, or re-keyed by edits).
func (r *Registry) Lookup(fp rlctree.Fingerprint) (*Resident, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Fault injection: an eviction storm empties the pool mid-traffic, so
	// fingerprint holders see the same 404s a capacity squeeze would cause.
	if faultinj.Fire(faultinj.RegEvict) {
		r.flushLocked()
	}
	el, ok := r.byKey[fp]
	if !ok {
		r.misses++
		mRegistryMisses.Inc()
		return nil, false
	}
	r.hits++
	mRegistryHits.Inc()
	r.order.MoveToFront(el)
	return el.Value.(*Resident), true
}

// Rekey re-derives the resident's registry key from its current content
// and moves the index entry, returning the new fingerprint. Callers must
// invoke it from inside the Do body that performed the edits, before
// releasing the net — content addressing stays honest: an edited net IS a
// different net, and the response that reports the edit carries the new
// key the client queries with from then on.
//
// If another resident already occupies the new key (two nets edited into
// identical content), that resident is displaced and counted as an
// eviction; if this resident was itself evicted meanwhile, only its local
// fingerprint is updated.
func (r *Registry) Rekey(res *Resident) rlctree.Fingerprint {
	// res.mu is held by the caller (inside Do); tree access is safe.
	fp := res.tree.Fingerprint()
	r.mu.Lock()
	defer r.mu.Unlock()
	if fp == res.fp {
		return fp
	}
	if res.elem != nil {
		delete(r.byKey, res.fp)
		if el, ok := r.byKey[fp]; ok {
			r.removeLocked(el)
			r.evictions++
			mRegistryEvictions.Inc()
		}
		r.byKey[fp] = res.elem
		r.order.MoveToFront(res.elem)
		mRegistryNets.Set(int64(r.order.Len()))
	}
	res.fp = fp
	return fp
}

// removeLocked drops el from the index and marks its resident evicted.
func (r *Registry) removeLocked(el *list.Element) {
	res := el.Value.(*Resident)
	r.order.Remove(el)
	delete(r.byKey, res.fp)
	res.elem = nil
}

// Flush evicts every resident net, returning how many were dropped. This
// is the ops big-hammer (and the eviction-storm fault): all fingerprints
// stop resolving and clients must re-register, while residents already
// held by in-flight requests stay functional until released.
func (r *Registry) Flush() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.flushLocked()
}

func (r *Registry) flushLocked() int {
	n := r.order.Len()
	for r.order.Len() > 0 {
		r.removeLocked(r.order.Back())
		r.evictions++
		mRegistryEvictions.Inc()
	}
	if n > 0 {
		mRegistryNets.Set(0)
	}
	return n
}

// evictOverflowLocked removes least-recently-used nets down to capacity.
func (r *Registry) evictOverflowLocked() {
	for r.order.Len() > r.capacity {
		oldest := r.order.Back()
		r.removeLocked(oldest)
		r.evictions++
		mRegistryEvictions.Inc()
	}
}

// Nets returns the resident nets in most-recently-used order. The
// returned residents are live — use Do for any session or tree access.
func (r *Registry) Nets() []*Resident {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Resident, 0, r.order.Len())
	for el := r.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*Resident))
	}
	return out
}

// RegistryStats is a point-in-time snapshot of the registry's counters.
type RegistryStats struct {
	Resident  int    // nets currently resident
	Capacity  int    // configured bound
	Hits      uint64 // Put/Lookup calls served by a resident net
	Misses    uint64 // Put/Lookup calls that found no resident net
	Evictions uint64 // nets displaced by the capacity bound or a Rekey collision
}

// Stats returns the registry's counters.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RegistryStats{
		Resident:  r.order.Len(),
		Capacity:  r.capacity,
		Hits:      r.hits,
		Misses:    r.misses,
		Evictions: r.evictions,
	}
}
