package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"

	"branchreg/internal/exp"
)

// goldenReport is `brbench -all -par 1 -json` at the commit that defined
// the benchmark. The traced serve-suite run's evaluation must match it,
// apart from the fields that are not deterministic (see canonicalReport).
//
//go:embed golden/paper-eval.json
var goldenReport []byte

// allPhases is brbench -all: every phase of the evaluation.
var allPhases = exp.AllSpec{Suite: true, CacheStudy: true, Ablations: true, Validate: true, Align: true}

// evaluate runs one full evaluation on a fresh Runner (so the compile
// cache starts cold, as on every brbench invocation) with one worker,
// returning the results and the number of jobs completed.
func evaluate() (*exp.AllResults, int, error) {
	r := &exp.Runner{Parallelism: 1}
	n := 0
	r.Progress = func(string, int, int) { n++ }
	res, err := r.RunAll(context.Background(), allPhases)
	return res, n, err
}

// checkReport compares an evaluation's report with the golden copy.
func checkReport(res *exp.AllResults) error {
	b, err := res.Report().Encode()
	if err != nil {
		return err
	}
	got, err := canonicalReport(b)
	if err != nil {
		return err
	}
	want, err := canonicalReport(goldenReport)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("report differs from golden/paper-eval.json")
	}
	return nil
}

// canonicalReport drops the report fields that are not a function of the
// code: the wall-clock phases and the GC-dependent pool.fresh count.
func canonicalReport(b []byte) ([]byte, error) {
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	delete(m, "phases")
	if pool, ok := m["pool"].(map[string]any); ok {
		delete(pool, "fresh")
	}
	return json.Marshal(m)
}

// expMetrics is the experiment engine's layer: one evaluation's phase
// times (from AllResults.Phases), jobs, compiles and pool reuse.
func expMetrics(res *exp.AllResults, jobs int) map[string]float64 {
	m := map[string]float64{
		"exp.jobs":             float64(jobs),
		"exp.compiles":         float64(res.CompileCache.Misses),
		"exp.pool_reuse_ratio": float64(res.Pool.Reused()) / float64(max(res.Pool.Gets, 1)),
	}
	for _, ph := range res.Phases {
		key := map[string]string{"suite": "exp.suite_s", "cache study": "exp.cache_study_s",
			"ablations": "exp.ablations_s", "alignment study": "exp.alignment_s"}[ph.Name]
		if strings.HasPrefix(ph.Name, "model validation") {
			key = "exp.validation_s"
		}
		m[key] += float64(ph.Millis) / 1e3
	}
	return m
}
