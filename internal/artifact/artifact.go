// Package artifact is the content-keyed artifact store behind every
// memoized computation in this repository: dataset contents
// (internal/datagen), 45-metric profile records and Fig. 6-9 sweep
// curves (internal/experiments), and the rendered engine units.
//
// Every artefact in the pipeline is a deterministic function of its
// configuration — the BDGS-style generators are seeded, the machine
// models are seeded, the kernels derive their RNG streams from the
// workload ID — so an artefact can be identified by its kind plus the
// canonical JSON of everything the computation depends on. KeyOf
// hashes that identity (FNV-64a) into a Key.
//
// A Store is a two-tier backend for those keys:
//
//   - a concurrency-safe in-memory singleflight map: the first caller
//     for a key computes, concurrent callers for the same key block on
//     that one fill, callers for other keys proceed in parallel;
//   - an optional persistence Backend (NewWithBackend): a local gob
//     directory (NewDisk / DiskBackend), an artifactd server reached
//     over HTTP (httpstore.Client), or a Chain of tiers. Fills publish
//     atomically so concurrent processes sharing a backend — e.g.
//     sharded engine runs on different machines — never observe torn
//     entries, and a later process warm-starts from it. Every
//     persisted entry records the full key label, so hash collisions,
//     format changes and corrupted or stale entries are detected and
//     fall back to recomputation.
//
// The persistence tier never changes results: a loaded artefact is the
// gob round-trip of the value the computation would produce (gob
// encodes float64 bit patterns exactly), and callers can attach a
// validity check that stale entries must pass before being trusted.
package artifact

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"sync/atomic"
)

// Version tags the store format. Bumping it invalidates every
// previously persisted artefact (the key hash covers the version).
const Version = 1

// Key identifies one artefact: a kind (the namespace of one artefact
// family, e.g. "profile" or "datagen-text") plus the canonical JSON of
// the configuration that determines the artefact's content.
type Key struct {
	Kind string
	// Label is the canonical JSON of the configuration. The disk tier
	// stores it verbatim so a reader can verify an entry's identity
	// without trusting the hash.
	Label string
	hash  string
}

// KeyOf builds the key for kind and cfg. cfg must be a plain data
// value (struct, map, scalar) — it is canonicalized with
// encoding/json, which is deterministic for struct fields (declaration
// order) and maps (sorted keys). Unmarshalable configs are programming
// errors and panic.
func KeyOf(kind string, cfg any) Key {
	b, err := json.Marshal(cfg)
	if err != nil {
		panic(fmt.Sprintf("artifact: unmarshalable config for kind %q: %v", kind, err))
	}
	return KeyFromLabel(kind, string(b))
}

// KeyFromLabel rebuilds the key for a kind and its already-canonical
// label — the inverse an artifactd server needs to verify that an
// uploaded entry's recorded identity hashes to the id it was addressed
// by.
func KeyFromLabel(kind, label string) Key {
	h := fnv.New64a()
	fmt.Fprintf(h, "v%d\x00%s\x00", Version, kind)
	io.WriteString(h, label)
	return Key{Kind: kind, Label: label, hash: fmt.Sprintf("%016x", h.Sum64())}
}

// ID names the key: kind plus the 64-bit content hash. It is unique up
// to FNV collisions, which the disk tier detects via Label.
func (k Key) ID() string { return k.Kind + "-" + k.hash }

// Store is the two-tier artifact store. The zero value is not usable;
// construct with New (memory only), NewDisk (memory + a local
// directory) or NewWithBackend (memory + any persistence tier).
type Store struct {
	mu      sync.Mutex
	entries map[string]*entry
	// backend is the persistence tier (nil = memory only). Immutable
	// after construction, so fills read it without locking.
	backend Backend

	// prefetched holds encoded entries bulk-downloaded ahead of use
	// (Prefetch), each one a charged resident on the LRU list;
	// loadBackend consumes them before asking the backend, so a
	// prefetched closure costs zero per-key backend reads. Guarded by
	// mu like the entries they stage for.
	prefetched map[string]*memNode

	// Memory-tier accounting (see mem.go), guarded by mu: the quota,
	// the LRU list over every charged resident, and the books.
	quota        MemQuota
	lruHead      *memNode
	lruTail      *memNode
	resident     int64
	residentN    int
	kindBytes    map[string]int64
	kindEvicts   map[string]int64
	evictions    int64
	evictedBytes int64

	fills           atomic.Int64
	memHits         atomic.Int64
	backendHits     atomic.Int64
	backendDiscards atomic.Int64
	prefetches      atomic.Int64

	// events receives store lifecycle events (SetEvents). Written once
	// before the store sees traffic, read without locking afterwards.
	events EventSink
	// wasDegraded tracks the last observed backend degradation so
	// Health() can publish the degraded/recovered transition exactly
	// once per edge.
	wasDegraded atomic.Bool
}

// EventSink receives store lifecycle events: fill (a computation ran,
// with ok/error), hit (tier mem or backend), eviction, and
// degraded/recovered backend transitions. Declared here rather than
// importing the event bus so this package stays dependency-free; a
// *eventbus.Publisher satisfies it directly. Active gates payload
// construction — an idle sink costs one interface call per site.
type EventSink interface {
	Active() bool
	Event(typ string, data map[string]any)
}

// SetEvents attaches the event sink. Call once, right after
// construction, before the store sees traffic.
func (s *Store) SetEvents(sink EventSink) { s.events = sink }

// eventsActive reports whether event payloads are worth building.
func (s *Store) eventsActive() bool {
	return s.events != nil && s.events.Active()
}

// entry is one key's singleflight slot. The once guards the fill;
// val/err are written inside it and read only after it returns. done
// flips once the fill finished (either way), which lets Peek read a
// completed value without risking a block on an in-flight fill. size
// is the charged byte estimate, written inside the fill; node is the
// LRU residency handle, non-nil only after the completed fill was
// charged (so an in-flight fill can never be evicted) and guarded by
// Store.mu.
type entry struct {
	once sync.Once
	val  any
	err  error
	done atomic.Bool
	size int64
	node *memNode
}

// New returns an empty in-memory store.
func New() *Store { return &Store{entries: map[string]*entry{}} }

// NewWithBackend returns a store whose fills persist through b.
// Multiple processes (local or remote) may share a backend
// concurrently.
func NewWithBackend(b Backend) *Store {
	s := New()
	s.backend = b
	return s
}

// NewDisk returns a store whose fills persist under dir (created if
// absent). Multiple processes may share dir concurrently.
func NewDisk(dir string) (*Store, error) {
	b, err := NewDiskBackend(dir)
	if err != nil {
		return nil, err
	}
	return NewWithBackend(b), nil
}

// Backend returns the persistence tier (nil when memory-only).
func (s *Store) Backend() Backend { return s.backend }

var defaultStore = New()

// Default returns the process-global store. Dataset content caches in
// it unless redirected (datagen.SetStore), so a dataset generates at
// most once per process no matter how many sessions run.
func Default() *Store { return defaultStore }

// Stats is a snapshot of a store's activity counters.
type Stats struct {
	// Fills counts computations actually executed (cache misses).
	Fills int64
	// MemHits counts lookups that found an existing in-memory entry.
	MemHits int64
	// BackendHits counts fills satisfied by the persistence backend
	// (disk or remote).
	BackendHits int64
	// BackendDiscards counts backend entries rejected as corrupted,
	// stale, mislabelled or invalid.
	BackendDiscards int64
	// Prefetched counts entries staged by bulk Prefetch downloads.
	Prefetched int64
	// Evictions counts residents evicted by the memory tier's quota
	// (entries and staged prefetch bytes alike).
	Evictions int64
	// EvictedBytes totals the charged size of everything evicted.
	EvictedBytes int64
	// ResidentBytes is the charged size of everything currently held
	// in memory (encoded payload estimate + per-entry overhead).
	ResidentBytes int64
	// ResidentEntries counts the charged residents.
	ResidentEntries int64
	// KindResident breaks ResidentBytes down by artefact kind.
	KindResident map[string]int64
	// KindEvictions breaks Evictions down by artefact kind.
	KindEvictions map[string]int64
}

// MemHitRatio is the fraction of memory-tier lookups answered by an
// already-resident entry — the serving daemon's cheapest possible
// path. 0 when the store has seen no traffic.
func (st Stats) MemHitRatio() float64 {
	total := st.MemHits + st.Fills + st.BackendHits
	if total == 0 {
		return 0
	}
	return float64(st.MemHits) / float64(total)
}

// Stats returns the current counter snapshot.
func (s *Store) Stats() Stats {
	st := Stats{
		Fills:           s.fills.Load(),
		MemHits:         s.memHits.Load(),
		BackendHits:     s.backendHits.Load(),
		BackendDiscards: s.backendDiscards.Load(),
		Prefetched:      s.prefetches.Load(),
	}
	s.mu.Lock()
	st.Evictions = s.evictions
	st.EvictedBytes = s.evictedBytes
	st.ResidentBytes = s.resident
	st.ResidentEntries = int64(s.residentN)
	if len(s.kindBytes) > 0 {
		st.KindResident = make(map[string]int64, len(s.kindBytes))
		for k, v := range s.kindBytes {
			st.KindResident[k] = v
		}
	}
	if len(s.kindEvicts) > 0 {
		st.KindEvictions = make(map[string]int64, len(s.kindEvicts))
		for k, v := range s.kindEvicts {
			st.KindEvictions[k] = v
		}
	}
	s.mu.Unlock()
	return st
}

// BulkCapable reports whether the store's persistence tier can serve
// closure downloads (a BulkFetcher backend, or a chain containing
// one) — the cheap guard callers consult before assembling a key
// closure for Prefetch.
func (s *Store) BulkCapable() bool {
	switch b := s.backend.(type) {
	case nil:
		return false
	case chain:
		for _, t := range b {
			if _, ok := t.(BulkFetcher); ok {
				return true
			}
		}
		return false
	default:
		_, ok := b.(BulkFetcher)
		return ok
	}
}

// Prefetch stages the closure of keys in one bulk backend download
// instead of the per-key Gets later fills would issue. Keys already
// filled in memory or already staged are skipped; everything the bulk
// tier returns is parked as encoded bytes and consumed (verified, as
// always) by the next fill of that key. Returns the number of entries
// staged. A store without a bulk-capable backend stages nothing — the
// call is free to make unconditionally.
//
// Staged bytes are charged to the memory budget like any resident and
// expire with the same eviction pass — a prefetched closure nobody
// consumes (a cancelled engine run, an abandoned shard) cannot linger
// forever.
func (s *Store) Prefetch(keys []Key) int {
	if !s.BulkCapable() {
		return 0
	}
	bf, ok := s.backend.(BulkFetcher)
	if !ok {
		return 0
	}
	var ids []string
	seen := make(map[string]bool, len(keys))
	s.mu.Lock()
	for _, k := range keys {
		id := k.ID()
		if seen[id] {
			continue
		}
		seen[id] = true
		if e := s.entries[memID(k)]; e != nil && e.done.Load() && e.err == nil {
			continue // already filled in memory
		}
		if _, staged := s.prefetched[id]; staged {
			continue
		}
		ids = append(ids, id)
	}
	s.mu.Unlock()
	if len(ids) == 0 {
		return 0
	}
	got := bf.FetchAll(ids)
	if len(got) == 0 {
		return 0
	}
	now := nowNanos()
	s.mu.Lock()
	if s.prefetched == nil {
		s.prefetched = make(map[string]*memNode, len(got))
	}
	staged := 0
	for id, b := range got {
		if _, dup := s.prefetched[id]; dup {
			continue // a concurrent Prefetch staged it first
		}
		n := &memNode{id: id, kind: kindOfID(id), size: memEntryOverhead + int64(len(id)+len(b)), data: b}
		s.prefetched[id] = n
		s.chargeLocked(n, now)
		staged++
	}
	s.mu.Unlock()
	s.prefetches.Add(int64(staged))
	return staged
}

// takePrefetched consumes a staged encoded entry for id, if any,
// releasing its memory-budget charge.
func (s *Store) takePrefetched(id string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.prefetched[id]
	if !ok {
		return nil, false
	}
	delete(s.prefetched, id)
	s.unchargeLocked(n)
	return n.data, true
}

// Get returns the artefact for key, computing it at most once per
// store. With a persistence backend, a valid persisted entry is loaded
// instead of computing, and fresh computations are persisted. A
// deterministic compute error is cached and returned to every caller
// of the key; a cancellation (context error) is returned only to the
// caller whose compute was cancelled — concurrent waiters with live
// contexts retry, and later callers recompute.
func Get[T any](s *Store, key Key, compute func() (T, error)) (T, error) {
	return fill(s, key, true, nil, compute)
}

// GetChecked is Get with a validity check applied to backend-loaded
// values: an entry failing check is discarded and recomputed. Use it
// whenever a persisted artefact could have been written against a
// different roster or shape than the caller expects.
func GetChecked[T any](s *Store, key Key, check func(T) bool, compute func() (T, error)) (T, error) {
	return fill(s, key, true, check, compute)
}

// GetMem is Get restricted to the in-memory tier — for artefacts that
// are cheap to rebuild or hold values a codec cannot round-trip (live
// Workload lists, samplers).
func GetMem[T any](s *Store, key Key, compute func() (T, error)) (T, error) {
	return fill(s, key, false, nil, compute)
}

// memID is the in-memory tier's map key: the full identity (kind +
// label), not the hash, so an FNV collision can never alias two
// artifacts in memory; the hash names disk files, where the stored
// label is verified on load.
func memID(key Key) string { return key.Kind + "\x00" + key.Label }

// retryable reports whether a fill failure is transient — the caller
// gave up (context cancellation), not the computation itself — and so
// must not be cached against the key: the next caller retries.
// Deterministic compute errors stay cached, as ever.
func retryable(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func fill[T any](s *Store, key Key, disk bool, check func(T) bool, compute func() (T, error)) (T, error) {
	for {
		v, err, owner := fillAttempt(s, key, disk, check, compute)
		// A waiter that inherited another caller's cancellation (the
		// computing goroutine's context died, not this one's) retries
		// against the now-vacated slot: its own compute runs under its
		// own context, so a live caller converges on a real answer
		// instead of a spurious abort. The cancelled owner itself gets
		// its error back unchanged. Each retry either wins the slot
		// (and returns as owner) or waits on whoever did.
		if err != nil && !owner && retryable(err) {
			continue
		}
		return v, err
	}
}

// fillAttempt is one pass of the two-tier fill; owner reports whether
// this caller executed the fill body (computed or loaded) rather than
// waiting on another goroutine's in-flight fill.
func fillAttempt[T any](s *Store, key Key, disk bool, check func(T) bool, compute func() (T, error)) (T, error, bool) {
	id := memID(key)
	s.mu.Lock()
	if s.entries == nil {
		s.entries = map[string]*entry{}
	}
	e, ok := s.entries[id]
	if !ok {
		e = &entry{}
		s.entries[id] = e
	} else {
		s.memHits.Add(1)
		if e.node != nil {
			s.touchLocked(e.node, nowNanos())
		}
	}
	s.mu.Unlock()
	if ok && s.eventsActive() {
		s.events.Event("hit", map[string]any{"id": key.ID(), "kind": key.Kind, "tier": "mem"})
	}
	owner := false
	e.once.Do(func() {
		owner = true
		// A panic out of compute would leave the once consumed with a
		// zero value — every waiter would read garbage. Record the
		// failure and drop the entry before letting the panic unwind
		// (sync.Once counts a panicking f as done, so waiters proceed
		// and see e.err), then re-raise it on the computing goroutine:
		// panic-based unwinding — the experiment session's cancellation
		// signal — keeps working through nested fills.
		defer func() {
			failed := e.err != nil
			var rethrow any
			if p := recover(); p != nil {
				failed = true
				if perr, ok := p.(error); ok {
					e.err = perr
				} else {
					e.err = fmt.Errorf("artifact: compute for %s panicked: %v", key.ID(), p)
				}
				rethrow = p
			}
			// Transient failures (cancellation, panics) are not held
			// against the key: waiters of THIS fill see the error, the
			// next caller gets a fresh slot and recomputes. Everything
			// that stays — values and cached deterministic errors — is
			// charged to the memory budget now that the fill is
			// complete; an in-flight fill is never on the LRU list and
			// so can never be evicted.
			s.mu.Lock()
			if failed && (rethrow != nil || retryable(e.err)) {
				if s.entries[id] == e {
					delete(s.entries, id)
				}
			} else if s.entries[id] == e && e.node == nil {
				if e.size == 0 {
					e.size = memFallbackBytes
					if e.err != nil {
						e.size = int64(len(e.err.Error()))
					}
				}
				n := &memNode{id: id, kind: key.Kind, size: memEntryOverhead + int64(len(id)) + e.size, e: e}
				e.node = n
				s.chargeLocked(n, nowNanos())
			}
			s.mu.Unlock()
			e.done.Store(true)
			if rethrow != nil {
				panic(rethrow)
			}
		}()
		if disk && s.backend != nil {
			if v, size, ok := loadBackend(s, key, check); ok {
				s.backendHits.Add(1)
				if s.eventsActive() {
					s.events.Event("hit", map[string]any{"id": key.ID(), "kind": key.Kind, "tier": "backend"})
				}
				e.val = v
				e.size = size
				return
			}
		}
		v, err := compute()
		if err != nil {
			e.err = err
			if s.eventsActive() {
				s.events.Event("fill", map[string]any{"id": key.ID(), "kind": key.Kind, "ok": false, "error": err.Error()})
			}
			return
		}
		s.fills.Add(1)
		if s.eventsActive() {
			s.events.Event("fill", map[string]any{"id": key.ID(), "kind": key.Kind, "ok": true})
		}
		e.val = v
		enc := encodeValue(v)
		if enc != nil {
			e.size = int64(len(enc))
		}
		if disk && s.backend != nil && enc != nil {
			saveBackendEncoded(s, key, enc)
		}
	})
	if e.err != nil {
		var zero T
		return zero, e.err, owner
	}
	v, ok2 := e.val.(T)
	if !ok2 {
		var zero T
		return zero, fmt.Errorf("artifact: key %s holds %T, caller wants %T", key.ID(), e.val, zero), owner
	}
	return v, nil, owner
}

// Peek returns key's artefact when it is already available — a
// completed in-memory fill, or a valid persisted entry — without ever
// computing, blocking on an in-flight fill, or caching an error. A
// backend hit is installed into the memory tier so repeated peeks (the
// serving daemon's warm fast path) cost one map lookup. check, when
// non-nil, is applied to backend-loaded values exactly as in
// GetChecked.
func Peek[T any](s *Store, key Key, check func(T) bool) (T, bool) {
	var zero T
	id := memID(key)
	s.mu.Lock()
	e := s.entries[id]
	if e != nil && e.node != nil {
		s.touchLocked(e.node, nowNanos())
	}
	s.mu.Unlock()
	if e != nil {
		if !e.done.Load() || e.err != nil {
			return zero, false
		}
		v, ok := e.val.(T)
		if ok && s.eventsActive() {
			s.events.Event("hit", map[string]any{"id": key.ID(), "kind": key.Kind, "tier": "mem"})
		}
		return v, ok
	}
	if s.backend == nil {
		return zero, false
	}
	v, size, ok := loadBackend(s, key, check)
	if !ok {
		return zero, false
	}
	s.backendHits.Add(1)
	if s.eventsActive() {
		s.events.Event("hit", map[string]any{"id": key.ID(), "kind": key.Kind, "tier": "backend"})
	}
	ne := &entry{val: v, size: size}
	ne.once.Do(func() {}) // consume: a later Get must not re-fill over val
	ne.done.Store(true)
	s.mu.Lock()
	if s.entries == nil {
		s.entries = map[string]*entry{}
	}
	if _, exists := s.entries[id]; !exists {
		s.entries[id] = ne
		n := &memNode{id: id, kind: key.Kind, size: memEntryOverhead + int64(len(id)) + size, e: ne}
		ne.node = n
		s.chargeLocked(n, nowNanos())
	}
	s.mu.Unlock()
	return v, true
}
