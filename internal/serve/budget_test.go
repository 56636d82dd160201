package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"branchreg/internal/driver"
	"branchreg/internal/obs"
)

// distinctSource returns the i-th of a family of distinct programs, each
// a few functions long, and the exit status it returns.
func distinctSource(i int) (string, int32) {
	src := fmt.Sprintf(`int f(int x) { int t = 0; for (int k = 0; k < (x & 7); k++) t += x ^ k; return t; }
int g(int x) { if (x > %d) return f(x) - %d; return f(x + %d); }
int main(void) { int s = %d; for (int i = 0; i < 20; i++) s += g(i * %d); return s & 255; }
`, i%13, i%7, i%5, i, i%11+1)
	want := int32(i)
	f := func(x int32) int32 {
		var t int32
		for k := int32(0); k < x&7; k++ {
			t += x ^ k
		}
		return t
	}
	g := func(x int32) int32 {
		if x > int32(i%13) {
			return f(x) - int32(i%7)
		}
		return f(x + int32(i%5))
	}
	for j := int32(0); j < 20; j++ {
		want += g(j * int32(i%11+1))
	}
	return src, want & 255
}

// fetchMetrics decodes GET /metrics.
func fetchMetrics(t *testing.T, url string) *MetricsReply {
	t.Helper()
	hr, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var mr MetricsReply
	if err := json.NewDecoder(hr.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	return &mr
}

// TestServeCacheBudget: CacheMB bounds both caches. A caller-supplied
// compile cache without a budget gets half of it, and a stream of
// distinct sources through a 2 MiB budget keeps every response right
// while /metrics shows the compile cache evicting within its half.
func TestServeCacheBudget(t *testing.T) {
	const half = 1 << 20
	cache := driver.NewCache()
	_, ts := newTestServer(t, Config{Workers: 2, CacheMB: 2, Cache: cache, Metrics: obs.NewRegistry()})
	if got := cache.MemStats().MaxBytes; got != half {
		t.Fatalf("supplied cache budget = %d, want %d", got, half)
	}
	for i := 0; i < 300; i++ {
		src, want := distinctSource(i)
		machine := "baseline"
		if i%2 == 1 {
			machine = "branchreg"
		}
		code, resp := post(t, ts.URL, &RunRequest{Source: src, Machine: machine})
		if code != 200 || resp.Status != want {
			t.Fatalf("program %d: HTTP %d, status %d, want 200 and %d: %+v", i, code, resp.Status, want, resp)
		}
		if i%50 == 49 {
			mr := fetchMetrics(t, ts.URL)
			if b := mr.Metrics.Gauges["driver.compile_cache.bytes"]; b <= 0 || b > half {
				t.Fatalf("after %d programs driver.compile_cache.bytes = %d, want within (0, %d]", i+1, b, half)
			}
		}
	}
	mr := fetchMetrics(t, ts.URL)
	if mr.Metrics.Counters["driver.compile_cache.evictions"] == 0 {
		t.Error("300 distinct programs evicted nothing from a 1 MiB compile cache")
	}
	if mr.ResultCache == nil || mr.ResultCache.MaxBytes != half {
		t.Errorf("result cache = %+v, want a %d-byte budget", mr.ResultCache, half)
	}
	for _, g := range []string{"runtime.heap.live_bytes", "runtime.goroutines", "driver.compile_cache.entries"} {
		if mr.Metrics.Gauges[g] <= 0 {
			t.Errorf("gauge %s = %d, want > 0", g, mr.Metrics.Gauges[g])
		}
	}
}

// TestServeCacheBudgetDefaults: the default budget halves 64 MiB, a
// negative CacheMB turns only result keeping off, and a supplied cache
// that already has a budget keeps it.
func TestServeCacheBudgetDefaults(t *testing.T) {
	for _, tc := range []struct {
		cfg      Config
		budget   int64
		wantRslt bool
	}{
		{Config{}, 32 << 20, true},
		{Config{CacheMB: -1}, 32 << 20, false},
		{Config{CacheMB: 8}, 4 << 20, true},
	} {
		s, ts := newTestServer(t, tc.cfg)
		if got := s.cache.MemStats().MaxBytes; got != tc.budget {
			t.Errorf("CacheMB %d: compile budget %d, want %d", tc.cfg.CacheMB, got, tc.budget)
		}
		post(t, ts.URL, &RunRequest{Workload: "wc"})
		if code, resp := post(t, ts.URL, &RunRequest{Workload: "wc"}); code != 200 || resp.Cached != tc.wantRslt {
			t.Errorf("CacheMB %d: repeat request HTTP %d cached=%v, want cached=%v", tc.cfg.CacheMB, code, resp.Cached, tc.wantRslt)
		}
	}
	own := driver.NewCache()
	own.SetMaxBytes(5 << 20)
	newTestServer(t, Config{Cache: own})
	if got := own.MemStats().MaxBytes; got != 5<<20 {
		t.Errorf("a supplied cache's own budget was replaced: %d", got)
	}
}
