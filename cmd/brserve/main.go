// brserve is the multi-tenant compile-and-run service: a long-running
// HTTP/JSON front end over the unified driver.Request API (see
// internal/serve for the wire contract and the admission design).
//
// Usage:
//
//	brserve [-addr :8377] [-workers N] [-queue N] [-budget N] [-max-budget N]
//	        [-tenant-budgets name=N,name=N] [-timeout 2m]
//	        [-cache-mb N] [-max-body-bytes N]
//	        [-breaker-threshold N] [-breaker-cooldown 30s] [-shadow-rate N]
//	        [-incident-cap N] [-chaos "seed=7,target=sieve,panic-every=1,panic-max=8"]
//	        [-flight-cap N] [-flight-slow 250ms] [-flight-sample N]
//	        [-log-sample N] [-pprof]
//
// Endpoints: POST /v1/run, GET /v1/workloads, GET /v1/incidents,
// GET /v1/debug/requests[/{id}], GET /healthz, GET /metrics (JSON;
// ?format=prom for Prometheus text), GET /version, and — with -pprof —
// /debug/pprof/.
// SIGINT/SIGTERM starts a graceful drain: admission answers 503, queued
// jobs finish, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"branchreg/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8377", "listen address")
	workers := flag.Int("workers", 0, "execution workers (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "total queued-job capacity (0 = 4x workers)")
	budget := flag.Int64("budget", 0, "default per-request step budget (0 = emulator default)")
	maxBudget := flag.Int64("max-budget", 0, "step-budget cap for every tenant (0 = uncapped)")
	tenants := flag.String("tenant-budgets", "", "per-tenant step-budget caps, name=N,name=N")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-job execution timeout")
	cacheMB := flag.Int("cache-mb", 0, "memory budget in MiB, split evenly between compiled programs and results (0 = default 64, negative = keep no results)")
	maxBodyBytes := flag.Int64("max-body-bytes", 0, "request-body size limit in bytes, 413 beyond it (0 = default 1 MiB, negative = unlimited)")
	drainWait := flag.Duration("drain", 30*time.Second, "max wait for in-flight jobs on shutdown")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive tier failures that open a circuit breaker (0 = default 3)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "quarantine before a breaker half-opens (0 = default 30s)")
	shadowRate := flag.Int("shadow-rate", 0, "shadow-verify every Nth success per class (0 = default 32, negative = off)")
	incidentCap := flag.Int("incident-cap", 0, "incidents retained for /v1/incidents (0 = default 256)")
	chaosFlag := flag.String("chaos", "", `deterministic chaos plan, e.g. "seed=7,target=sieve,panic-every=1,panic-max=8"`)
	flightCap := flag.Int("flight-cap", 0, "requests retained for /v1/debug/requests (0 = default 256)")
	flightSlow := flag.Duration("flight-slow", 0, "retain requests slower than this (0 = default 250ms, negative = off)")
	flightSample := flag.Int("flight-sample", 0, "retain every Nth request regardless of interest (0 = default 64, negative = off)")
	logSample := flag.Int("log-sample", 0, "log every Nth ordinary request (0 = errors and fallbacks only)")
	pprofFlag := flag.Bool("pprof", false, "mount /debug/pprof/ (exposes process internals)")
	flag.Parse()

	tb, err := parseTenantBudgets(*tenants)
	if err != nil {
		fatal(err)
	}
	chaosPlan, err := serve.ParseChaosPlan(*chaosFlag)
	if err != nil {
		fatal(err)
	}
	if chaosPlan != nil {
		fmt.Fprintf(os.Stderr, "brserve: CHAOS ACTIVE: %+v\n", *chaosPlan)
	}
	s := serve.New(serve.Config{
		Workers:           *workers,
		QueueDepth:        *queue,
		DefaultStepBudget: *budget,
		MaxStepBudget:     *maxBudget,
		TenantBudgets:     tb,
		JobTimeout:        *timeout,
		CacheMB:           *cacheMB,
		MaxBodyBytes:      *maxBodyBytes,
		BreakerThreshold:  *breakerThreshold,
		BreakerCooldown:   *breakerCooldown,
		ShadowRate:        *shadowRate,
		IncidentCap:       *incidentCap,
		Chaos:             chaosPlan,
		FlightCap:         *flightCap,
		FlightSlow:        *flightSlow,
		FlightSample:      *flightSample,
		Logger:            slog.New(slog.NewTextHandler(os.Stderr, nil)),
		LogSample:         *logSample,
		EnablePprof:       *pprofFlag,
	})

	hs := &http.Server{Addr: *addr, Handler: s}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	fmt.Fprintf(os.Stderr, "brserve: listening on %s\n", *addr)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "brserve: %v, draining\n", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "brserve:", err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "brserve:", err)
	}
}

// parseTenantBudgets decodes "alice=1000000,bob=500000".
func parseTenantBudgets(s string) (map[string]int64, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]int64{}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad tenant budget %q (want name=N)", part)
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad tenant budget %q: want a positive count", part)
		}
		out[name] = n
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "brserve:", err)
	os.Exit(1)
}
