package driver

import (
	"container/list"
	"sync"
)

// Deterministic result memoization. A run's output, exit status,
// dynamic counts and serving engine are a pure function of
// Request.Fingerprint(): the compiler is deterministic, the emulator is
// deterministic, and even an armed FaultPlan replays the same trap at
// the same instruction every time. The paper's core move —
// spend a cheap register to remember a branch decision so the expensive
// penalty is never paid twice — has an exact serving-layer analogue:
// spend bounded memory to remember a request's Result so the expensive
// emulation is never re-run. ResultCache is that memory, and the one
// place brserve absorbs repeated work: each fingerprint owns a
// singleflight slot, built like the compile cache's cacheEntry, that
// the first requester leads while later requesters either join it in
// flight or, once it finished cleanly, read its kept copy.
//
// The publish rules:
//
//   - Every outcome, error or not, is shared with the slot's waiters.
//   - Only a clean success is kept: no error, no engine-tier fallback,
//     no breaker reroute. Errors are cheap to reproduce and supervision
//     artifacts are the survivable shape of a failing tier — memoizing
//     one would let hits mask an open breaker from the traffic it needs.
//   - The kept copy holds only what the fingerprint determines: Output,
//     Status, Stats and Engine. Timing, Fusion and Refusion describe one
//     execution (the adaptive tier's promotion state depends on the
//     program's history), so a hit carries none of them.

// ResultSlot is one fingerprint's singleflight slot: a done channel
// plus the leader's outcome. A slot whose leader is still executing is
// in flight; Publish finishes it. A hit is a kept slot, finished from
// the start.
type ResultSlot struct {
	done chan struct{}
	res  *Result
	err  error
	kept bool
	// Guarded by ResultCache.mu. fp and class are the slot's key and
	// invalidation coordinates; elem is a kept slot's place in the LRU
	// list (nil while in flight and once dropped); size is its charge.
	fp    string
	class string
	elem  *list.Element
	size  int64
}

// Done is closed once the slot's outcome is published.
func (s *ResultSlot) Done() <-chan struct{} { return s.done }

// Outcome returns the published Result and error; call it after Done is
// closed. Every holder of the slot shares the Result, so it is read-only.
func (s *ResultSlot) Outcome() (*Result, error) { return s.res, s.err }

// Kept reports whether the slot is a memoized result (a hit) rather
// than a live execution.
func (s *ResultSlot) Kept() bool { return s.kept }

// closedDone is every kept slot's done channel.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// rcEntryOverhead approximates one kept slot's fixed cost beyond its
// variable-length strings: the struct, the list element, and the map
// slot. Precision does not matter; the budget does.
const rcEntryOverhead = 256

// ResultCacheStats is a snapshot of a ResultCache's traffic and
// occupancy. Each Acquire is one lookup: Hits counts lookups answered
// by a kept slot or by joining one in flight, Misses counts lookups
// that led a new execution. Evictions counts kept slots displaced by
// the byte budget, and Invalidated counts kept slots removed by
// quarantine. Bytes/Entries/MaxBytes describe the kept slots; InFlight
// counts slots whose leader has not published yet, private ones
// included.
type ResultCacheStats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
	Invalidated int64 `json:"invalidated"`
	Bytes       int64 `json:"bytes"`
	Entries     int64 `json:"entries"`
	MaxBytes    int64 `json:"max_bytes"`
	InFlight    int64 `json:"in_flight"`
}

// ResultCache is a memo of Results keyed on Request.Fingerprint: a
// singleflight slot per fingerprint in flight, and a size-aware LRU of
// kept slots bounded by a byte budget. In-flight slots are neither
// charged nor evictable. All methods are safe for concurrent use; the
// zero value is not usable, create with NewResultCache.
type ResultCache struct {
	mu          sync.Mutex
	maxBytes    int64
	bytes       int64
	hits        int64
	misses      int64
	evictions   int64
	invalidated int64
	inflight    int64
	lru         list.List // kept slots, most recently used first
	byFP        map[string]*ResultSlot
}

// NewResultCache returns a memo that keeps up to maxBytes of accounted
// result data (slot overhead included). A budget of zero or less keeps
// nothing, but identical requests still share one execution in flight.
func NewResultCache(maxBytes int64) *ResultCache {
	return &ResultCache{maxBytes: max(maxBytes, 0), byFP: map[string]*ResultSlot{}}
}

// Acquire returns fp's slot. A kept slot is a hit and an in-flight slot
// is joined; either way the caller waits on Done and reads Outcome.
// Otherwise the caller leads (lead is true): it must execute and
// Publish the new slot exactly once. class is the workload class a kept
// result is invalidated under (see Invalidate).
func (rc *ResultCache) Acquire(fp, class string) (s *ResultSlot, lead bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if s, ok := rc.byFP[fp]; ok {
		rc.hits++
		if s.elem != nil {
			rc.lru.MoveToFront(s.elem)
		}
		return s, false
	}
	rc.misses++
	rc.inflight++
	s = &ResultSlot{done: make(chan struct{}), fp: fp, class: class}
	rc.byFP[fp] = s
	return s, true
}

// Private returns an in-flight slot no other caller can find, for a
// request that must execute on its own: its leader neither reads, joins
// nor publishes into the memo, and Publish keeps nothing from it.
func (rc *ResultCache) Private() *ResultSlot {
	rc.mu.Lock()
	rc.inflight++
	rc.mu.Unlock()
	return &ResultSlot{done: make(chan struct{})}
}

// Publish finishes a leader's slot: the outcome goes to every waiter,
// and a clean success of a slot Acquire handed out is kept (see the
// publish rules above). A slot whose outcome is not kept leaves the
// memo before its waiters wake, so a later identical request executes
// afresh instead of reading a finished slot.
func (rc *ResultCache) Publish(s *ResultSlot, res *Result, err error) {
	s.res, s.err = res, err
	rc.mu.Lock()
	rc.inflight--
	if rc.byFP[s.fp] == s {
		delete(rc.byFP, s.fp)
		if err == nil && len(res.FallbackFrom) == 0 && !res.Rerouted {
			rc.keepLocked(s.fp, s.class, res)
		}
	}
	rc.mu.Unlock()
	close(s.done)
}

// keepLocked stores the fingerprint-determined part of a clean success
// as a kept slot, evicting least-recently-used slots until the budget
// holds. A slot larger than the whole budget is not kept. rc.mu must
// be held.
func (rc *ResultCache) keepLocked(fp, class string, res *Result) {
	k := &ResultSlot{
		done: closedDone, kept: true, fp: fp, class: class,
		res:  &Result{Output: res.Output, Status: res.Status, Stats: res.Stats, Engine: res.Engine},
		size: int64(len(fp)) + int64(len(class)) + int64(len(res.Output)) + rcEntryOverhead,
	}
	if k.size > rc.maxBytes {
		return
	}
	rc.byFP[fp] = k
	k.elem = rc.lru.PushFront(k)
	rc.bytes += k.size
	for rc.bytes > rc.maxBytes {
		rc.dropLocked(rc.lru.Back().Value.(*ResultSlot))
		rc.evictions++
	}
}

// dropLocked removes a kept slot; rc.mu must be held.
func (rc *ResultCache) dropLocked(s *ResultSlot) {
	delete(rc.byFP, s.fp)
	rc.lru.Remove(s.elem)
	s.elem = nil
	rc.bytes -= s.size
}

// Invalidate removes every kept slot recorded under the given workload
// class and engine tier, returning how many were dropped; in-flight
// slots are untouched. An empty tier matches every engine of the class
// — the blast radius of a full class quarantine. This is the guard
// interplay: when a (class, tier) pair is quarantined, its kept results
// are suspect by the same evidence that opened the breaker, and serving
// them would let a bad tier keep answering from beyond the grave.
func (rc *ResultCache) Invalidate(class, tier string) int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var dropped int
	for el := rc.lru.Front(); el != nil; {
		next := el.Next()
		s := el.Value.(*ResultSlot)
		if s.class == class && (tier == "" || s.res.Engine == tier) {
			rc.dropLocked(s)
			dropped++
		}
		el = next
	}
	rc.invalidated += int64(dropped)
	return dropped
}

// Stats returns a snapshot of the memo's counters.
func (rc *ResultCache) Stats() ResultCacheStats {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return ResultCacheStats{
		Hits:        rc.hits,
		Misses:      rc.misses,
		Evictions:   rc.evictions,
		Invalidated: rc.invalidated,
		Bytes:       rc.bytes,
		Entries:     int64(rc.lru.Len()),
		MaxBytes:    rc.maxBytes,
		InFlight:    rc.inflight,
	}
}
