package driver

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// Deterministic result memoization. Everything downstream of Exec is a
// pure function of Request.Fingerprint(): the compiler is deterministic,
// the emulator is deterministic, and even an armed FaultPlan replays the
// same trap at the same instruction every time. The paper's core move —
// spend a cheap register to remember a branch decision so the expensive
// penalty is never paid twice — has an exact serving-layer analogue:
// spend bounded memory to remember a request's Result so the expensive
// emulation is never re-run. ResultCache is that memory: a size-aware
// LRU keyed on the fingerprint, consulted by Cache.Exec when attached
// and by brserve's admission path before a request is ever queued.
//
// What is cacheable is deliberately narrow:
//
//   - Only successful Results. Errors (traps included) are not cached:
//     a trap is cheap to reproduce (the emulator stops at the faulting
//     instruction) and the error path carries typed values the cache
//     would have to alias.
//   - Requests carrying a Profile are excluded: a Profile is an output
//     parameter a cached Result could not fill. Requests carrying a
//     Program are cacheable; their fingerprints cover the program's
//     content (isa.Program.Digest), not its address.
//   - Fault-plan requests ARE cacheable: the plan is part of the
//     fingerprint and its effect is deterministic, and a plan that
//     traps never produces a successful Result to cache anyway.
//
// A cached entry stores the Result minus per-run state: Timing is
// zeroed (the hit did not compile or run anything) and Cached is set,
// so consumers can tell a memoized Result from a fresh execution.
// Get returns a pointer to the cache's own entry — callers must treat
// it as read-only, which every consumer (serve, guard, the oracle)
// already does for coalesced results.

// Cacheable reports whether a Request's Result may be served from (and
// stored into) a ResultCache. See the package commentary above for why
// Profile-carrying requests are excluded. NoCache is the caller's escape
// hatch: it suppresses the lookup, not the eligibility, so it is not
// consulted here.
func Cacheable(r *Request) bool {
	return r.Profile == nil
}

// rcEntry is one cached result with its accounting: the fingerprint it
// is keyed on, the workload class and engine it was recorded under
// (the invalidation coordinates Quarantine uses), and its byte size.
type rcEntry struct {
	fp     string
	class  string
	engine string
	size   int64
	res    Result
}

// rcEntryOverhead approximates one entry's fixed cost beyond its
// variable-length strings: the struct, the list element, and the map
// slot. Precision does not matter; the budget does.
const rcEntryOverhead = 256

// ResultCacheStats is a snapshot of a ResultCache's traffic and
// occupancy. Hits and Misses count consultations (brserve consults at
// admission and again per executed tier attempt, so one cold request
// can record more than one miss); Evictions counts entries displaced
// by the byte budget, and Invalidated counts entries removed by
// quarantine. Bytes/Entries/MaxBytes describe current occupancy.
type ResultCacheStats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
	Invalidated int64 `json:"invalidated"`
	Bytes       int64 `json:"bytes"`
	Entries     int64 `json:"entries"`
	MaxBytes    int64 `json:"max_bytes"`
}

// ResultCache is a bounded, size-aware LRU of deterministic Results.
// All methods are safe for concurrent use. The zero value is not
// usable; create with NewResultCache.
type ResultCache struct {
	hits   atomic.Int64
	misses atomic.Int64

	mu          sync.Mutex
	maxBytes    int64
	bytes       int64
	evictions   int64
	invalidated int64
	lru         *list.List // front = most recent; values are *rcEntry
	byFP        map[string]*list.Element
}

// NewResultCache returns a cache bounded to maxBytes of accounted
// result data (entry overhead included). maxBytes <= 0 panics: a cache
// with no budget is a configuration error, not a useful object.
func NewResultCache(maxBytes int64) *ResultCache {
	if maxBytes <= 0 {
		panic("driver: ResultCache needs a positive byte budget")
	}
	return &ResultCache{
		maxBytes: maxBytes,
		lru:      list.New(),
		byFP:     map[string]*list.Element{},
	}
}

// Get returns the cached Result for a fingerprint, promoting the entry
// to most-recently-used. The returned pointer aliases the cache's own
// entry and must be treated as read-only. The miss path allocates
// nothing.
func (rc *ResultCache) Get(fp string) (*Result, bool) {
	rc.mu.Lock()
	el, ok := rc.byFP[fp]
	if !ok {
		rc.mu.Unlock()
		rc.misses.Add(1)
		return nil, false
	}
	rc.lru.MoveToFront(el)
	res := &el.Value.(*rcEntry).res
	rc.mu.Unlock()
	rc.hits.Add(1)
	return res, true
}

// Put stores a successful Result under its fingerprint, evicting
// least-recently-used entries until the byte budget holds. The stored
// copy is sanitized: Timing is zeroed and Cached is set, so a hit is
// self-describing. class and engine become the entry's invalidation
// coordinates (see Invalidate). An entry larger than the whole budget
// is not stored. Storing over an existing fingerprint replaces it.
func (rc *ResultCache) Put(fp, class string, res *Result) {
	e := &rcEntry{fp: fp, class: class, engine: res.Engine, res: *res}
	e.res.Timing = Timing{}
	e.res.Cached = true
	e.size = int64(len(fp)) + int64(len(class)) + int64(len(res.Output)) + rcEntryOverhead

	rc.mu.Lock()
	defer rc.mu.Unlock()
	if e.size > rc.maxBytes {
		return
	}
	if old, ok := rc.byFP[fp]; ok {
		rc.bytes -= old.Value.(*rcEntry).size
		rc.lru.Remove(old)
	}
	rc.byFP[fp] = rc.lru.PushFront(e)
	rc.bytes += e.size
	for rc.bytes > rc.maxBytes {
		back := rc.lru.Back()
		if back == nil {
			break
		}
		rc.removeLocked(back)
		rc.evictions++
	}
}

// removeLocked unlinks one element; rc.mu must be held.
func (rc *ResultCache) removeLocked(el *list.Element) {
	e := el.Value.(*rcEntry)
	delete(rc.byFP, e.fp)
	rc.lru.Remove(el)
	rc.bytes -= e.size
}

// Invalidate removes every entry recorded under the given workload
// class and engine tier, returning how many were dropped. An empty
// tier matches every engine of the class — the blast radius of a full
// class quarantine. This is the guard interplay: when a (class, tier)
// pair is quarantined, its cached results are suspect by the same
// evidence that opened the breaker, and serving them would let a bad
// tier keep answering from beyond the grave.
func (rc *ResultCache) Invalidate(class, tier string) int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var dropped int
	for el := rc.lru.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*rcEntry)
		if e.class == class && (tier == "" || e.engine == tier) {
			rc.removeLocked(el)
			dropped++
		}
		el = next
	}
	rc.invalidated += int64(dropped)
	return dropped
}

// Stats returns a snapshot of the cache counters.
func (rc *ResultCache) Stats() ResultCacheStats {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return ResultCacheStats{
		Hits:        rc.hits.Load(),
		Misses:      rc.misses.Load(),
		Evictions:   rc.evictions,
		Invalidated: rc.invalidated,
		Bytes:       rc.bytes,
		Entries:     int64(rc.lru.Len()),
		MaxBytes:    rc.maxBytes,
	}
}

// resultClassKey carries the workload-class label from a server's exec
// closure down to Cache.Exec's Put, so driver-level entries get the
// same invalidation coordinates as admission-level ones.
type resultClassKey struct{}

// ContextWithResultClass annotates ctx with the workload class a
// Cache.Exec result should be cached under. Without it, results cache
// under the empty class, which Invalidate never matches.
func ContextWithResultClass(ctx context.Context, class string) context.Context {
	return context.WithValue(ctx, resultClassKey{}, class)
}

// resultClassFrom extracts the class annotation ("" when absent).
func resultClassFrom(ctx context.Context) string {
	class, _ := ctx.Value(resultClassKey{}).(string)
	return class
}
