package driver

import (
	"container/list"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"

	"branchreg/internal/emu"
	"branchreg/internal/isa"
)

// cacheKey identifies one compilation: what source, for which machine,
// under which options. Two compilations with equal keys produce
// instruction-identical programs, so the second one is pure waste — the
// cache exists to make `brbench -all` (which revisits the same programs
// for Table I, the cycle estimates, Figure 9, the cache study, and the
// ablations) compile each (program, machine, options) at most once.
type cacheKey struct {
	src  [sha256.Size]byte
	kind isa.Kind
	opts string // Options.Fingerprint()
}

// cacheEntry is a singleflight slot: the first requester compiles while
// later requesters wait on done. Once the compilation finishes the entry
// joins the LRU list and becomes evictable; until then it keeps its slot.
type cacheEntry struct {
	key  cacheKey
	done chan struct{}
	p    *isa.Program
	err  error
	// Guarded by Cache.mu. elem is the entry's place in the LRU list (nil
	// while compiling and once evicted); size is its current charge, of
	// which base is the part fixed at admission.
	elem *list.Element
	base int64
	size int64
}

// cacheEntryOverhead is what every entry charges beyond its program: the
// entry, its key (the options fingerprint is a string of ~120 bytes), its
// map slot and list element — and, for a cached compile error, the error.
// Precision does not matter; the budget does.
const cacheEntryOverhead = 512

// CacheStats counts cache traffic. Misses counts compiler invocations and
// Entries counts resident keys, in-flight compilations included. An
// unbounded cache (NewCache's default) never evicts, so there Misses ==
// Entries is the observable form of the "each program compiled at most
// once" guarantee; Hits counts requests served from a finished or
// in-flight compilation.
type CacheStats struct {
	Requests int64 `json:"requests"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Entries  int64 `json:"entries"`
}

// CacheMemStats describes a cache's memory: the bytes its resident
// entries are charged against its budget (MaxBytes 0 = unbounded), the
// resident entries, and how many entries the budget has evicted. It is
// kept apart from CacheStats, which batch reports serialize, so those
// reports do not change with it.
type CacheMemStats struct {
	Bytes     int64
	MaxBytes  int64
	Entries   int64
	Evictions int64
}

// Cache memoizes Compile. A linked *isa.Program is never mutated after
// Link (the emulator copies the data image into its own memory, and the
// program's fused form sits in a slot that is safe for concurrent use),
// so a cached program is shared freely across
// goroutines; concurrent requests for the same key block on a single
// compilation (singleflight). Compilation errors are cached too: a
// workload with a syntax error fails every variant without recompiling.
//
// NewCache's cache is unbounded, which is what batch callers (exp.Runner,
// brbench) want: they revisit a fixed set of programs. A long-lived
// server gives it a byte budget with SetMaxBytes; finished entries are
// then kept in least-recently-used order and evicted from the tail while
// their charges exceed it. An entry is charged what it retains: its
// program's heap (isa.Program.RetainedBytes) plus, re-measured after
// every run through Exec, the program's fused form (emu.AdaptiveBytes),
// plus cacheEntryOverhead. An evicted program stays valid for whoever
// still holds it and is freed, with its fused form, when the last
// holder lets go.
type Cache struct {
	mu        sync.Mutex
	entries   map[cacheKey]*cacheEntry
	lru       list.List // finished resident entries, most recently used first
	hits      int64
	misses    int64
	maxBytes  int64 // 0: unbounded
	bytes     int64
	evictions int64
	// results is the result memo a server attached with SetResultCache
	// (rescache.go). The Cache only carries it, so that whoever holds
	// the Cache can read its Stats; Exec never consults it.
	results *ResultCache
}

// NewCache returns an empty, unbounded compile cache.
func NewCache() *Cache {
	return &Cache{entries: map[cacheKey]*cacheEntry{}}
}

// SetMaxBytes bounds the bytes charged to resident entries (n <= 0:
// unbounded) and evicts down to the new bound at once.
func (c *Cache) SetMaxBytes(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxBytes = max(n, 0)
	c.evictLocked()
}

// SetResultCache attaches (or, with nil, detaches) a result memo that
// travels with the cache; Exec does not consult it. Attach before the
// cache is shared across goroutines; the field is not synchronized.
func (c *Cache) SetResultCache(rc *ResultCache) { c.results = rc }

// ResultCache returns the attached result memo, or nil.
func (c *Cache) ResultCache() *ResultCache { return c.results }

// Compile returns the cached program for (src, kind, o), compiling it on
// first request. The context governs only this caller's wait: a
// cancelled waiter returns ctx.Err() while the in-flight compilation
// finishes and stays cached for others.
func (c *Cache) Compile(ctx context.Context, src string, kind isa.Kind, o Options) (*isa.Program, error) {
	e, err := c.entry(ctx, src, kind, o)
	if err != nil {
		return nil, err
	}
	return e.p, e.err
}

// entry returns the finished entry for (src, kind, o), compiling it on
// first request (see Compile). The error is this caller's own failure —
// invalid options or its context; a compile error is e.err.
func (c *Cache) entry(ctx context.Context, src string, kind isa.Kind, o Options) (*cacheEntry, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := cacheKey{src: sha256.Sum256([]byte(src)), kind: kind, opts: o.Fingerprint()}

	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		c.hits++
		mCacheHits.Inc()
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		select {
		case <-e.done:
			return e, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e = &cacheEntry{key: key, done: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	mCacheMisses.Inc()
	c.mu.Unlock()

	// Compile under context.Background(): the result outlives this
	// caller, and caching a ctx.Err() would poison the entry for others.
	//
	// done is closed by defer, and a compiler panic is converted into a
	// cached error: if the panic escaped before done closed, every future
	// waiter on this key would block forever (the singleflight wedge),
	// turning one bad program into a stuck server.
	defer close(e.done)
	func() {
		defer func() {
			if p := recover(); p != nil {
				e.p, e.err = nil, fmt.Errorf("%w: %v", ErrCompilePanic, p)
			}
		}()
		e.p, e.err = compileFn(context.Background(), src, kind, o)
	}()
	c.admit(e)
	return e, nil
}

// admit charges a finished entry, makes it evictable, and evicts down to
// the budget. An entry that alone exceeds the budget is not kept: its
// caller and waiters still get the program, later requests recompile.
func (c *Cache) admit(e *cacheEntry) {
	size := int64(cacheEntryOverhead)
	if e.p != nil {
		size += e.p.RetainedBytes()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e.base, e.size = size, size
	if c.maxBytes > 0 && size > c.maxBytes {
		delete(c.entries, e.key)
		c.evictions++
		return
	}
	e.elem = c.lru.PushFront(e)
	c.bytes += size
	c.evictLocked()
}

// recharge re-measures a resident entry after a run: a fused, auto or
// adaptive run may attach the program's fused form after the program
// was admitted, and the budget must see it.
func (c *Cache) recharge(e *cacheEntry) {
	if e.p == nil {
		return
	}
	size := e.base + emu.AdaptiveBytes(e.p)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.elem == nil || size == e.size {
		return
	}
	c.bytes += size - e.size
	e.size = size
	c.evictLocked()
}

// evictLocked drops least-recently-used entries while the charges exceed
// the budget; c.mu must be held.
func (c *Cache) evictLocked() {
	for c.maxBytes > 0 && c.bytes > c.maxBytes {
		back := c.lru.Back()
		if back == nil {
			return
		}
		e := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		e.elem = nil
		delete(c.entries, e.key)
		c.bytes -= e.size
		c.evictions++
	}
}

// ErrCompilePanic marks a compilation that panicked instead of
// returning: a compiler bug, cached like any other compile error so the
// key stays usable, but distinguishable (errors.Is) so servers can
// report it as an internal fault rather than blaming the client.
var ErrCompilePanic = errors.New("driver: compiler panicked")

// compileFn is Compile, indirected so the cache's panic-containment
// path is testable with a deliberately panicking compiler.
var compileFn = Compile

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Requests: c.hits + c.misses,
		Hits:     c.hits,
		Misses:   c.misses,
		Entries:  int64(len(c.entries)),
	}
}

// MemStats returns a snapshot of the cache's memory accounting.
func (c *Cache) MemStats() CacheMemStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheMemStats{
		Bytes:     c.bytes,
		MaxBytes:  c.maxBytes,
		Entries:   int64(len(c.entries)),
		Evictions: c.evictions,
	}
}
