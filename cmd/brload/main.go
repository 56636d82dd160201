// brload drives concurrent load against a running brserve instance: N
// clients sweep the 19-workload suite on both machines, verify every
// response against a local driver.Exec run (the differential oracle),
// and report p50/p99 latency and saturation throughput.
//
// Usage:
//
//	brload [-url http://127.0.0.1:8377] [-c 64] [-n requests] [-tenant t]
//	       [-no-verify] [-json] [-max-backoff 1s] [-trace-propagate]
//	       [-chaos] [-chaos-probe sieve] [-chaos-timeout 30s]
//
// With -trace-propagate, every request carries a brload-generated
// X-Request-Id (so server-side flight records correlate back to this
// run), each response must echo it, and the run ends with a table of
// server-reported per-phase timings (queue/compile/run/total p50 and
// p99) — where the server says the latency went, next to where the
// client measured it.
//
// With -chaos, after the load run brload audits the server's supervision
// layer (see serve.ChaosCheck): panics must have been injected and
// rescued, the circuit breaker must have opened and closed, and the
// incident log must show no shadow mismatches. Use against a brserve
// booted with a -chaos plan.
//
// The exit status is nonzero if any request failed, any response was a
// 5xx, any output diverged from the local oracle, or the -chaos audit
// failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"branchreg/internal/driver"
	"branchreg/internal/serve"
)

func main() {
	url := flag.String("url", "http://127.0.0.1:8377", "brserve base URL")
	clients := flag.Int("c", 64, "concurrent clients")
	requests := flag.Int("n", 0, "total requests (0 = 8x the workload matrix)")
	tenant := flag.String("tenant", "", "tenant name sent with every request")
	noVerify := flag.Bool("no-verify", false, "skip the local differential oracle")
	asJSON := flag.Bool("json", false, "print the result as JSON")
	maxBackoff := flag.Duration("max-backoff", 0, "cap one 429/503 retry sleep (0 = default 1s)")
	tracePropagate := flag.Bool("trace-propagate", false, "send per-request X-Request-Id and report server-side phase timings")
	chaosAudit := flag.Bool("chaos", false, "audit the server's supervision layer after the run")
	chaosProbe := flag.String("chaos-probe", "sieve", "workload probed while waiting for the breaker to close")
	chaosTimeout := flag.Duration("chaos-timeout", 30*time.Second, "max wait for the chaos audit's counters")
	flag.Parse()

	spec := serve.LoadSpec{
		BaseURL:        *url,
		Clients:        *clients,
		Requests:       *requests,
		Tenant:         *tenant,
		MaxBackoff:     *maxBackoff,
		TracePropagate: *tracePropagate,
	}
	if spec.Requests <= 0 {
		spec.Requests = 8 * 19 * 2 // eight sweeps of the workload × machine matrix
	}
	if !*noVerify {
		spec.Verify = serve.NewDifferentialOracle().Verify
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	res, err := serve.RunLoad(ctx, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "brload:", err)
		os.Exit(1)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(res)
	} else {
		fmt.Printf("requests   %d (%d clients)\n", res.Requests, spec.Clients)
		fmt.Printf("errors     %d (5xx: %d)\n", res.Errors, res.Server5xx)
		fmt.Printf("retries    429: %d, 503: %d, coalesced %d\n", res.Retries429, res.Retries503, res.Coalesced)
		printCacheLine(ctx, *url, res.Cached)
		fmt.Printf("latency    p50 %s, p99 %s\n",
			time.Duration(res.P50NS), time.Duration(res.P99NS))
		fmt.Printf("throughput %.1f req/s over %s\n",
			res.ReqPerSec, time.Duration(res.WallNS).Round(time.Millisecond))
		if len(res.Phases) > 0 {
			fmt.Printf("server-reported phases (%d samples):\n", res.Requests-res.Errors)
			fmt.Printf("  %-8s %12s %12s\n", "phase", "p50", "p99")
			for _, name := range []string{"queue", "compile", "run", "total"} {
				p, ok := res.Phases[name]
				if !ok {
					continue
				}
				fmt.Printf("  %-8s %12s %12s\n", name, time.Duration(p.P50NS), time.Duration(p.P99NS))
			}
		}
		for _, f := range res.Failures {
			fmt.Printf("  FAIL %s/%s (HTTP %d): %s\n", f.Workload, f.Machine, f.Code, f.Err)
		}
	}
	rc := 0
	if res.Errors > 0 || res.Server5xx > 0 {
		rc = 1
	}
	if *chaosAudit {
		if err := serve.ChaosCheck(ctx, *url, *chaosProbe, nil, *chaosTimeout); err != nil {
			fmt.Fprintln(os.Stderr, "brload:", err)
			rc = 1
		} else {
			fmt.Println("chaos      supervision audit passed (fallback, breaker open/close, no shadow mismatch)")
		}
	}
	os.Exit(rc)
}

// printCacheLine reports the result-cache view of the run: how many of
// this client's responses were served from the server's kept results,
// and the server's own hit ratio from GET /metrics. An unreachable
// /metrics just prints the client-side count.
func printCacheLine(ctx context.Context, base string, cached int) {
	line := fmt.Sprintf("rescache   %d responses served from cache", cached)
	if rs := fetchResultCacheStats(ctx, base); rs != nil {
		lookups := rs.Hits + rs.Misses
		ratio := 0.0
		if lookups > 0 {
			ratio = 100 * float64(rs.Hits) / float64(lookups)
		}
		line += fmt.Sprintf("; server hit ratio %.1f%% (%d/%d lookups, %d entries, %d KiB)",
			ratio, rs.Hits, lookups, rs.Entries, rs.Bytes/1024)
	}
	fmt.Println(line)
}

// fetchResultCacheStats decodes the result_cache section of the
// server's /metrics JSON, nil on any failure.
func fetchResultCacheStats(ctx context.Context, base string) *driver.ResultCacheStats {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var reply serve.MetricsReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return nil
	}
	return reply.ResultCache
}
