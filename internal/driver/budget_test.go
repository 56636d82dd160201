package driver

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"branchreg/internal/emu"
	"branchreg/internal/isa"
)

// The byte-budgeted compile cache: a stream of distinct programs through
// a small budget keeps every output right, never charges more than the
// budget, frees what it evicts (with the program's fused form), and
// still compiles each key once under concurrent requests.

// formLoops are the engine modes that attach a fused form to a cached
// program: the adaptive tier by its second run, the fused tier at once.
var formLoops = []emu.LoopMode{emu.LoopAdaptive, emu.LoopFused}

func TestCacheBudgetBoundsDistinctPrograms(t *testing.T) {
	const budget = 1 << 20
	const programs = 200
	caches := make([]*Cache, len(formLoops))
	for i := range caches {
		caches[i] = NewCache()
		caches[i].SetMaxBytes(budget)
	}
	ctx := context.Background()
	gen := &progGen{r: rand.New(rand.NewSource(20261017))}

	firsts := make([]weak.Pointer[isa.Program], len(formLoops))
	var maxEntries int64
	for i := 0; i < programs; i++ {
		src := gen.generate()
		kind := isa.Kind(i % 2)
		ref, err := Exec(ctx, Request{Source: src, Kind: kind, Options: DefaultOptions(), Loop: emu.LoopInstrumented})
		if err != nil {
			t.Fatalf("program %d: %v\n%s", i, err, src)
		}
		for li, c := range caches {
			// Two runs, so the cached program carries its fused form
			// under either mode.
			req := Request{Source: src, Kind: kind, Options: DefaultOptions(), Loop: formLoops[li]}
			for run := 0; run < 2; run++ {
				res, err := c.Exec(ctx, req)
				if err != nil {
					t.Fatalf("loop %d program %d run %d: %v", formLoops[li], i, run, err)
				}
				if res.Output != ref.Output || res.Status != ref.Status || res.Stats != ref.Stats {
					t.Fatalf("loop %d program %d run %d diverges from the instrumented run: %q/%d vs %q/%d",
						formLoops[li], i, run, res.Output, res.Status, ref.Output, ref.Status)
				}
			}
			if i == 0 {
				firsts[li] = formWeakRef(t, c, src, kind)
			}
			ms := c.MemStats()
			if ms.Bytes > budget {
				t.Fatalf("loop %d: after program %d the cache charges %d bytes, over its %d-byte budget",
					formLoops[li], i, ms.Bytes, budget)
			}
			maxEntries = max(maxEntries, ms.Entries)
		}
	}
	if programs < 10*maxEntries {
		t.Fatalf("the budget held up to %d programs; %d distinct programs are not 10x that", maxEntries, programs)
	}
	for li, c := range caches {
		if ms := c.MemStats(); ms.Evictions < programs-maxEntries {
			t.Fatalf("loop %d: %d evictions for %d programs in a cache holding at most %d",
				formLoops[li], ms.Evictions, programs, maxEntries)
		}
	}
	// The first program was evicted long ago. Nothing may keep it alive:
	// not the cache, not its fused form.
	for li, first := range firsts {
		for i := 0; i < 3 && first.Value() != nil; i++ {
			runtime.GC()
		}
		if first.Value() != nil {
			t.Fatalf("loop %d: an evicted program is still reachable after garbage collection", formLoops[li])
		}
	}
}

// formWeakRef returns a weak pointer to the cached program for (src,
// kind), after checking that its fused form exists and is charged to
// it. It is a function of its own so that no variable of the caller's
// keeps the program alive.
func formWeakRef(t *testing.T, c *Cache, src string, kind isa.Kind) weak.Pointer[isa.Program] {
	t.Helper()
	hits := c.Stats().Hits
	p, err := c.Compile(context.Background(), src, kind, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().Hits != hits+1 {
		t.Fatal("the program just run is not resident")
	}
	if emu.AdaptiveBytes(p) == 0 {
		t.Fatal("two runs left no fused form on the program")
	}
	if ms := c.MemStats(); ms.Bytes < p.RetainedBytes()+emu.AdaptiveBytes(p) {
		t.Fatalf("cache charges %d bytes, less than its one program retains", ms.Bytes)
	}
	return weak.Make(p)
}

func TestCacheBudgetSingleflight(t *testing.T) {
	orig := compileFn
	defer func() { compileFn = orig }()
	release := make(chan struct{})
	compileFn = func(ctx context.Context, src string, kind isa.Kind, o Options) (*isa.Program, error) {
		<-release
		return orig(ctx, src, kind, o)
	}
	c := NewCache()
	c.SetMaxBytes(1 << 20)
	const callers = 8
	req := Request{Source: cacheTestSrc, Kind: isa.BranchReg, Options: DefaultOptions(), Loop: emu.LoopAdaptive}
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Exec(context.Background(), req); err != nil {
				t.Error(err)
			}
		}()
	}
	// Every caller but the compiling one joins the in-flight entry (and
	// counts as a hit) before the compilation may finish.
	for c.Stats().Hits < callers-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if st := c.Stats(); st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want one compilation for one key", st)
	}
}

// TestCacheChargesRetainedHeap holds the charge to what a cached program
// actually keeps alive: the live heap a cache of programs run once
// adaptively (no fused form) or fused (with one) adds must be within a
// third of what the cache charges for them.
func TestCacheChargesRetainedHeap(t *testing.T) {
	const programs = 200
	gen := &progGen{r: rand.New(rand.NewSource(5))}
	srcs := make([]string, programs)
	for i := range srcs {
		srcs[i] = gen.generate()
	}
	// One run first, so the memory-image pool holds the image the
	// measured runs reuse and the heap it adds is not counted.
	if _, err := Exec(context.Background(), Request{Source: cacheTestSrc, Options: DefaultOptions()}); err != nil {
		t.Fatal(err)
	}
	for _, loop := range formLoops {
		c := NewCache()
		before := liveHeap()
		for i, src := range srcs {
			req := Request{Source: src, Kind: isa.Kind(i % 2), Options: DefaultOptions(), Loop: loop}
			if _, err := c.Exec(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
		live := float64(liveHeap() - before)
		charged := float64(c.MemStats().Bytes)
		t.Logf("loop %d: cache charges %.0f bytes for %.0f bytes of live heap (ratio %.2f)", loop, charged, live, charged/live)
		if r := charged / live; r < 0.75 || r > 1.33 {
			t.Fatalf("loop %d: cache charges %.0f bytes for %.0f bytes of live heap (ratio %.2f)", loop, charged, live, r)
		}
		runtime.KeepAlive(c)
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestMemPoolSurvivesGC: a collection does not empty the memory-image
// pool, so a server that collects often does not refill it with fresh
// 4 MiB images.
func TestMemPoolSurvivesGC(t *testing.T) {
	releaseMem(borrowMem())
	fresh := PoolStatsNow().Fresh
	runtime.GC()
	runtime.GC()
	releaseMem(borrowMem())
	if n := PoolStatsNow().Fresh - fresh; n != 0 {
		t.Fatalf("%d fresh images allocated after a collection, want 0", n)
	}
}
