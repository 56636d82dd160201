package driver

import (
	"errors"
	"sync"
	"testing"

	"branchreg/internal/emu"
)

// The result-memo contract: one singleflight slot per fingerprint,
// shared by every request that arrives while it is in flight; only a
// clean success is kept, as its fingerprint-determined fields; kept
// slots live in a byte-budgeted LRU that the guard's (class, tier)
// quarantine coordinates can invalidate. Eviction order, oversized
// refusal and the publish rules are all load-bearing for brserve's
// admission path.

// rcSize mirrors keepLocked's accounting for a test entry.
func rcSize(fp, class, output string) int64 {
	return int64(len(fp)) + int64(len(class)) + int64(len(output)) + rcEntryOverhead
}

var errProbe = errors.New("probe")

// publish leads fp and publishes res/err.
func publish(t *testing.T, rc *ResultCache, fp, class string, res *Result, err error) {
	t.Helper()
	s, lead := rc.Acquire(fp, class)
	if !lead {
		t.Fatalf("Acquire(%q) did not lead", fp)
	}
	rc.Publish(s, res, err)
}

// probe looks fp up, returning the kept Result on a hit. A miss leads a
// slot, which it finishes with an error so nothing is kept.
func probe(rc *ResultCache, fp string) (*Result, bool) {
	s, lead := rc.Acquire(fp, "c")
	if lead {
		rc.Publish(s, nil, errProbe)
		return nil, false
	}
	res, _ := s.Outcome()
	return res, s.Kept()
}

func TestResultCacheLRUEviction(t *testing.T) {
	// Budget for exactly two single-letter-keyed, empty-output entries.
	rc := NewResultCache(2 * rcSize("a", "c", ""))
	put := func(fp string) { publish(t, rc, fp, "c", &Result{Engine: emu.EngineFast}, nil) }

	put("a")
	put("b")
	put("x") // evicts "a", the least recently used
	if _, ok := probe(rc, "a"); ok {
		t.Error("oldest entry survived an over-budget keep")
	}
	if _, ok := probe(rc, "b"); !ok {
		t.Fatal("entry b evicted early")
	}
	// b was just touched, so the next eviction takes x.
	put("y")
	if _, ok := probe(rc, "x"); ok {
		t.Error("recently-used order ignored: x should have been evicted, not b")
	}
	if _, ok := probe(rc, "b"); !ok {
		t.Error("touched entry b evicted despite being most recently used")
	}
	st := rc.Stats()
	if st.Evictions != 2 || st.Entries != 2 || st.InFlight != 0 {
		t.Errorf("stats = %+v, want 2 evictions, 2 entries, none in flight", st)
	}
	if st.Bytes != 2*rcSize("a", "c", "") {
		t.Errorf("accounted bytes = %d, want %d", st.Bytes, 2*rcSize("a", "c", ""))
	}
}

func TestResultCacheOversizedAndReplace(t *testing.T) {
	rc := NewResultCache(rcSize("k", "c", "") + 8)
	// An entry larger than the whole budget is refused, not stored.
	publish(t, rc, "k", "c", &Result{Output: string(make([]byte, 512))}, nil)
	if st := rc.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("oversized entry was stored: %+v", st)
	}
	// So the next request leads again, and a fresh execution replaces an
	// invalidated entry without leaking bytes.
	publish(t, rc, "k", "c", &Result{Output: "old", Status: 1}, nil)
	rc.Invalidate("c", "")
	publish(t, rc, "k", "c", &Result{Output: "new", Status: 2}, nil)
	res, ok := probe(rc, "k")
	if !ok || res.Output != "new" || res.Status != 2 {
		t.Fatalf("replacement not visible: ok=%v res=%+v", ok, res)
	}
	if st := rc.Stats(); st.Entries != 1 || st.Bytes != rcSize("k", "c", "new") {
		t.Errorf("replacement leaked accounting: %+v", st)
	}
}

// TestResultCacheSanitizes: waiters of the live execution see its whole
// Result; the kept copy holds only the fingerprint-determined fields.
func TestResultCacheSanitizes(t *testing.T) {
	rc := NewResultCache(1 << 20)
	orig := &Result{
		Output: "out", Status: 3, Engine: emu.EngineAdaptive,
		Stats:    emu.Stats{Instructions: 42},
		Fusion:   emu.FusionStats{Blocks: 5},
		Refusion: emu.RefusionStats{Promoted: true},
		Timing:   Timing{CompileNS: 7, RunNS: 9},
	}
	s, _ := rc.Acquire("k", "c")
	joined, lead := rc.Acquire("k", "c")
	if lead || joined != s || joined.Kept() {
		t.Fatal("second Acquire did not join the in-flight slot")
	}
	rc.Publish(s, orig, nil)
	if live, _ := joined.Outcome(); live != orig {
		t.Errorf("waiter got %+v, want the leader's Result", live)
	}
	res, ok := probe(rc, "k")
	if !ok {
		t.Fatal("miss after a clean Publish")
	}
	want := Result{Output: "out", Status: 3, Engine: emu.EngineAdaptive, Stats: emu.Stats{Instructions: 42}}
	if !eqResult(*res, want) || res.Timing != (Timing{}) {
		t.Errorf("kept Result = %+v, want only %+v", res, want)
	}
	if orig.Timing.RunNS != 9 || !orig.Refusion.Promoted {
		t.Errorf("Publish mutated the leader's Result: %+v", orig)
	}
}

// TestResultCachePublishRules: every outcome reaches the waiters, but
// errors, supervision artifacts and private slots are never kept, and a
// zero budget keeps nothing while still sharing one execution.
func TestResultCachePublishRules(t *testing.T) {
	rc := NewResultCache(1 << 20)
	for fp, out := range map[string]struct {
		res *Result
		err error
	}{
		"error":    {nil, errProbe},
		"fallback": {&Result{Engine: emu.EngineFused, FallbackFrom: []string{emu.EngineAdaptive}}, nil},
		"rerouted": {&Result{Engine: emu.EngineFused, Rerouted: true}, nil},
	} {
		s, _ := rc.Acquire(fp, "c")
		w, _ := rc.Acquire(fp, "c")
		rc.Publish(s, out.res, out.err)
		if res, err := w.Outcome(); res != out.res || err != out.err {
			t.Errorf("%s: waiter got (%v, %v), want the leader's outcome", fp, res, err)
		}
		if _, ok := probe(rc, fp); ok {
			t.Errorf("%s outcome was kept", fp)
		}
	}
	p := rc.Private()
	if st := rc.Stats(); st.InFlight != 1 {
		t.Errorf("in flight with one private slot = %d, want 1", st.InFlight)
	}
	rc.Publish(p, &Result{Output: "private"}, nil)
	if st := rc.Stats(); st.Entries != 0 || st.InFlight != 0 {
		t.Errorf("private slot published into the memo: %+v", st)
	}

	zero := NewResultCache(0)
	s, _ := zero.Acquire("k", "c")
	if w, lead := zero.Acquire("k", "c"); lead || w != s {
		t.Error("zero-budget memo did not coalesce an in-flight twin")
	}
	zero.Publish(s, &Result{Output: "ok"}, nil)
	if _, ok := probe(zero, "k"); ok {
		t.Error("zero-budget memo kept a result")
	}
}

// TestResultCacheSingleflight: concurrent lookups of one fingerprint
// elect one leader; every other caller joins or hits and reads the same
// outcome. Run under -race.
func TestResultCacheSingleflight(t *testing.T) {
	rc := NewResultCache(1 << 20)
	const callers = 16
	var wg sync.WaitGroup
	var leads sync.Map
	outs := make([]*Result, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, lead := rc.Acquire("k", "c")
			if lead {
				leads.Store(i, true)
				rc.Publish(s, &Result{Output: "once"}, nil)
			}
			<-s.Done()
			outs[i], _ = s.Outcome()
		}()
	}
	wg.Wait()
	n := 0
	leads.Range(func(any, any) bool { n++; return true })
	if n != 1 {
		t.Errorf("%d leaders for one fingerprint, want 1", n)
	}
	for i, res := range outs {
		if res == nil || res.Output != "once" {
			t.Errorf("caller %d got %+v", i, res)
		}
	}
	if st := rc.Stats(); st.Misses != 1 || st.Hits != callers-1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 miss, %d hits, 1 entry", st, callers-1)
	}
}

func TestResultCacheInvalidate(t *testing.T) {
	rc := NewResultCache(1 << 20)
	publish(t, rc, "a", "sieve/branchreg", &Result{Engine: emu.EngineAdaptive}, nil)
	publish(t, rc, "b", "sieve/branchreg", &Result{Engine: emu.EngineFast}, nil)
	publish(t, rc, "c", "wc/branchreg", &Result{Engine: emu.EngineAdaptive}, nil)
	// An in-flight slot of the quarantined pair is not a kept result.
	inflight, _ := rc.Acquire("d", "sieve/branchreg")

	// Tier-scoped: only the (class, engine) pair goes.
	if n := rc.Invalidate("sieve/branchreg", emu.EngineAdaptive); n != 1 {
		t.Errorf("tier-scoped Invalidate dropped %d entries, want 1", n)
	}
	if _, ok := probe(rc, "a"); ok {
		t.Error("quarantined (class, tier) entry survived")
	}
	if _, ok := probe(rc, "b"); !ok {
		t.Error("same class, different tier was invalidated")
	}
	if _, ok := probe(rc, "c"); !ok {
		t.Error("different class was invalidated")
	}
	// Class-wide: empty tier matches every engine.
	if n := rc.Invalidate("sieve/branchreg", ""); n != 1 {
		t.Errorf("class-wide Invalidate dropped %d entries, want 1", n)
	}
	if s, lead := rc.Acquire("d", "sieve/branchreg"); lead || s != inflight {
		t.Error("Invalidate dropped an in-flight slot")
	}
	rc.Publish(inflight, &Result{Engine: emu.EngineAdaptive}, nil)
	if st := rc.Stats(); st.Invalidated != 2 || st.Entries != 2 {
		t.Errorf("stats after invalidation = %+v, want 2 invalidated, 2 entries", st)
	}
}
