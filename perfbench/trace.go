package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"time"

	"branchreg/internal/cache"
	"branchreg/internal/codegen"
	"branchreg/internal/core"
	"branchreg/internal/driver"
	"branchreg/internal/emu"
	"branchreg/internal/ir"
	"branchreg/internal/irgen"
	"branchreg/internal/isa"
	"branchreg/internal/mc"
	"branchreg/internal/obs"
	"branchreg/internal/opt"
	"branchreg/internal/pipeline"
)

// perLayer lists the traced run's metrics in report order, with units.
// A metric of a layer the workload never calls reads 0.
var perLayer = []struct{ name, unit string }{
	{"mc.ms", "ms"}, {"mc.allocs", "count"},
	{"irgen.ms", "ms"}, {"irgen.allocs", "count"}, {"irgen.ir_insts", "count"},
	{"opt.ms", "ms"}, {"opt.allocs", "count"},
	{"codegen.ms", "ms"}, {"codegen.allocs", "count"}, {"codegen.insts", "count"},
	{"core.ms", "ms"}, {"core.allocs", "count"}, {"core.insts", "count"},
	{"driver.compile.ms", "ms"}, {"driver.compile.unattributed_pct", "%"},
	{"driver.compile_cache.hit_ratio", "ratio"}, {"driver.compile_cache.entries", "count"},
	{"driver.result_cache.hit_ratio", "ratio"}, {"driver.result_cache.evictions", "count"},
	{"driver.result_cache.mib", "MiB"}, {"driver.fingerprint_us", "us"},
	{"emu.setup_ms", "ms"}, {"emu.run_ms", "ms"}, {"emu.insts_per_op", "count"},
	{"emu.fused.baseline.minsts_per_s", "Minsts/s"}, {"emu.fused.branchreg.minsts_per_s", "Minsts/s"},
	{"emu.adaptive.baseline.minsts_per_s", "Minsts/s"}, {"emu.adaptive.branchreg.minsts_per_s", "Minsts/s"},
	{"emu.fast.baseline.minsts_per_s", "Minsts/s"}, {"emu.fast.branchreg.minsts_per_s", "Minsts/s"},
	{"emu.instrumented.baseline.minsts_per_s", "Minsts/s"}, {"emu.instrumented.branchreg.minsts_per_s", "Minsts/s"},
	{"emu.fused.bail_ratio", "ratio"}, {"emu.adaptive.promoted_ratio", "ratio"},
	{"pipeline.ms", "ms"}, {"pipeline.mcycles_per_s", "Mcycles/s"},
	{"cache.fetch_ns", "ns"}, {"cache.hit_ratio", "ratio"},
	{"exp.suite_s", "s"}, {"exp.cache_study_s", "s"}, {"exp.ablations_s", "s"},
	{"exp.validation_s", "s"}, {"exp.alignment_s", "s"},
	{"exp.jobs", "count"}, {"exp.compiles", "count"}, {"exp.pool_reuse_ratio", "ratio"},
	{"guard.shadow_per_exec", "ratio"}, {"guard.fallbacks", "count"},
	{"serve.overhead_ms", "ms"}, {"serve.queue_ms_p50", "ms"}, {"serve.queue_ms_p99", "ms"},
	{"serve.cached_ratio", "ratio"}, {"serve.coalesced_ratio", "ratio"}, {"serve.rejected", "count"},
	{"serve.unattributed_pct", "%"},
	{"obs.trace_overhead_pct", "%"}, {"host.probe_ms", "ms"},
}

// tracer records spans from the benchmark's own code around its calls
// into the layers, in memory, and derives each span name's self time.
type tracer struct {
	t *obs.Tracer
}

// begin opens a span for op under parent.
func (t *tracer) begin(name string, parent obs.SpanID, op int) *obs.Span {
	sp := t.t.Begin(name, "perfbench", parent, 0)
	sp.SetArg("op", strconv.Itoa(op))
	return sp
}

// selfTimes returns, per span name, the summed duration minus the part
// covered by child spans, and the span count, in microseconds.
func (t *tracer) selfTimes() (self map[string]float64, count map[string]int) {
	spans := t.t.Spans()
	child := map[obs.SpanID]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.DurMicros
		}
	}
	self, count = map[string]float64{}, map[string]int{}
	for _, s := range spans {
		self[s.Name] += s.DurMicros - child[s.ID]
		count[s.Name]++
	}
	return self, count
}

// layerProg is one (program, machine, stdin) the layer replay compiles
// and runs.
type layerProg struct {
	src   string
	input string
	kind  isa.Kind
}

// runTraced is --trace 1: the workload's traced replay, then the layer
// replay over its programs, then the span file, written where run.sh
// puts the build ($CARGO_TARGET_DIR, by default .bench_build).
func runTraced(name string, wl workload, seconds int, probeStart float64) (*result, error) {
	t := &tracer{t: obs.NewTracer()}
	m, progs, w, err := wl.trace(t, seconds)
	if err != nil {
		return nil, err
	}
	if err := wl.check(w); err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	wl.close() // stop background work (shadow runs) before timing layers
	if err := replayLayers(t, progs, m); err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	m["host.probe_ms"] = (probeStart + hostProbe()) / 2
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	if err := writeTrace(t, filepath.Join(dir, "trace-"+name+".json")); err != nil {
		return nil, err
	}
	res := &result{Correct: w.failed == 0, Attempted: w.attempted, Failed: w.failed, Metrics: map[string]metric{}}
	for _, pl := range perLayer {
		res.Metrics[pl.name] = metric{m[pl.name], pl.unit}
	}
	return res, nil
}

func writeTrace(t *tracer, path string) error {
	b, err := t.t.ChromeTrace()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// allocCounter reads the Go heap's cumulative object count without
// stopping the world.
type allocCounter struct{ s []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{s: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (a *allocCounter) read() uint64 {
	metrics.Read(a.s)
	return a.s[0].Value.Uint64()
}

var engines = []struct {
	name string
	loop emu.LoopMode
}{
	{"fused", emu.LoopFused}, {"adaptive", emu.LoopAdaptive},
	{"fast", emu.LoopFast}, {"instrumented", emu.LoopInstrumented},
}

// layerSpans maps each compile layer's metric prefix to its span.
var layerSpans = map[string]string{
	"driver.compile": "driver.Compile", "mc": "mc.Compile", "irgen": "irgen.Lower",
	"opt": "opt.RunUnit", "codegen": "codegen.GenBaseline", "core": "core.GenBranchReg",
}

// compileReps is how many times the layer replay compiles each program,
// alternating whether driver.Compile or the five layers run first, so
// that neither side of the compile ledger always pays the cold start.
const compileReps = 4

// replayLayers compiles and runs every program through the layers'
// public entry points, one span per call under a per-program span, and
// fills the compile, emulator, pipeline and cache metrics. Layer times
// are the spans' self times; allocations are counted around each call.
func replayLayers(t *tracer, progs []layerProg, m map[string]float64) error {
	runtime.GC() // charge the replay none of the traced window's garbage
	ac := newAllocCounter()
	allocs := map[string]float64{}
	insts := map[string]float64{}
	var parent obs.SpanID
	var op int
	call := func(name string, f func() error) error {
		sp := t.begin(name, parent, op)
		a0 := ac.read()
		err := f()
		allocs[name] += float64(ac.read() - a0)
		sp.End()
		return err
	}
	// run executes p on one engine inside a span around RunContext.
	run := func(span string, p *isa.Program, input string, setup func(*emu.Machine)) (*emu.Machine, error) {
		em, err := emu.New(p, input)
		if err != nil {
			return nil, err
		}
		if setup != nil {
			setup(em)
		}
		err = call(span, func() error { _, err := em.RunContext(context.Background()); return err })
		insts[span] += float64(em.Stats.Instructions)
		return em, err
	}
	o := driver.DefaultOptions()
	var bails, blocks, promoted, cycles, fetches, hits float64
	for i, lp := range progs {
		root := t.begin("layer-replay", 0, i)
		parent, op = root.ID(), i
		var p *isa.Program
		whole := func() error {
			return call("driver.Compile", func() (err error) { p, err = driver.Compile(context.Background(), lp.src, lp.kind, o); return err })
		}
		for rep := 0; rep < compileReps; rep++ {
			if rep%2 == 0 {
				if err := whole(); err != nil {
					return err
				}
			}
			if err := compileLayers(call, lp, o, insts); err != nil {
				return err
			}
			if rep%2 == 1 {
				if err := whole(); err != nil {
					return err
				}
			}
		}
		req := driver.Request{Source: lp.src, Kind: lp.kind, Input: lp.input, Options: o}
		_ = call("driver.Request.Fingerprint", func() error { _ = req.Fingerprint(); return nil })

		// emu set-up: New, predecode and block decode, measured as a
		// fused run stopped by a one-instruction budget.
		err := call("emu.setup", func() error {
			em, err := emu.New(p, lp.input)
			if err == nil {
				em.Loop, em.MaxInstructions = emu.LoopFused, 1
				_, err = em.RunContext(context.Background())
			}
			if trap := (*emu.Trap)(nil); errors.As(err, &trap) && trap.Kind == emu.TrapStepBudget {
				return nil
			}
			return err
		})
		if err != nil {
			return err
		}
		// The default engine, as a request that names none gets it.
		em, err := run("emu.run", p, lp.input, nil)
		if err != nil {
			return err
		}
		bails += float64(em.Fusion.Bails)
		blocks += float64(em.Fusion.Blocks)
		for _, e := range engines {
			em, err := run("emu."+e.name+"."+machineName(lp.kind), p, lp.input, func(em *emu.Machine) { em.Loop = e.loop })
			if err != nil {
				return err
			}
			if em.Refusion.Promoted {
				promoted++
			}
		}
		if err := call("pipeline.SimulateWith", func() error {
			r, err := pipeline.SimulateWith(p, lp.input, pipeline.Model{Stages: 3})
			if err == nil {
				cycles += float64(r.Cycles)
			}
			return err
		}); err != nil {
			return err
		}
		// The instruction cache costs the time this instrumented run with
		// the fetch hook takes beyond the same run without it.
		ic := cache.New(cache.Config{LineWords: 8, Sets: 16, Assoc: 2, MissPenalty: 8})
		if _, err := run("cache.Fetch", p, lp.input, func(em *emu.Machine) {
			em.Hooks.Fetch = func(addr int32) { ic.Fetch(addr) }
		}); err != nil {
			return err
		}
		fetches += float64(ic.Stats.Fetches)
		hits += float64(ic.Stats.Hits)
		root.End()
	}

	self, count := t.selfTimes()
	ms := func(span string) float64 { return self[span] / 1e3 / float64(max(count[span], 1)) }
	per := func(v map[string]float64, span string) float64 { return v[span] / float64(max(count[span], 1)) }
	layers := 0.0
	for layer, span := range layerSpans {
		m[layer+".ms"] = ms(span)
		if layer != "driver.compile" {
			m[layer+".allocs"] = per(allocs, span)
			layers += self[span]
		}
	}
	m["driver.compile.unattributed_pct"] = 100 * (self["driver.Compile"] - layers) / max(self["driver.Compile"], 1)
	m["irgen.ir_insts"] = per(insts, "irgen.Lower")
	m["codegen.insts"] = per(insts, "codegen.GenBaseline")
	m["core.insts"] = per(insts, "core.GenBranchReg")
	m["driver.fingerprint_us"] = ms("driver.Request.Fingerprint") * 1e3
	m["emu.setup_ms"] = ms("emu.setup")
	m["emu.run_ms"] = ms("emu.run")
	m["emu.insts_per_op"] = per(insts, "emu.run")
	instrumented := 0.0
	for _, e := range engines {
		for _, k := range machines {
			span := "emu." + e.name + "." + machineName(k)
			m[span+".minsts_per_s"] = insts[span] / max(self[span], 1)
			if e.loop == emu.LoopInstrumented {
				instrumented += self[span]
			}
		}
	}
	m["emu.fused.bail_ratio"] = bails / max(blocks, 1)
	m["emu.adaptive.promoted_ratio"] = promoted / float64(max(len(progs), 1))
	m["pipeline.ms"] = ms("pipeline.SimulateWith")
	m["pipeline.mcycles_per_s"] = cycles / max(self["pipeline.SimulateWith"], 1)
	m["cache.fetch_ns"] = (self["cache.Fetch"] - instrumented) * 1e3 / max(fetches, 1)
	m["cache.hit_ratio"] = hits / max(fetches, 1)
	return nil
}

// compileLayers runs the five compile layers on one program, each inside
// call's span, counting the IR and machine instructions they produce.
func compileLayers(call func(string, func() error) error, lp layerProg, o driver.Options, insts map[string]float64) error {
	var u *mc.Unit
	var iu *ir.Unit
	var q *isa.Program
	gen := "codegen.GenBaseline"
	if lp.kind == isa.BranchReg {
		gen = "core.GenBranchReg"
	}
	steps := []struct {
		span string
		f    func() error
	}{
		{"mc.Compile", func() (err error) { u, err = mc.Compile(lp.src); return err }},
		{"irgen.Lower", func() (err error) {
			if iu, err = irgen.Lower(u); err == nil {
				for _, f := range iu.Funcs {
					for _, b := range f.Blocks {
						insts["irgen.Lower"] += float64(len(b.Ins))
					}
				}
			}
			return err
		}},
		{"opt.RunUnit", func() error { return opt.RunUnit(iu, o.Opt) }},
		{gen, func() (err error) {
			if lp.kind == isa.Baseline {
				q, err = codegen.GenBaseline(iu)
			} else {
				q, err = core.GenBranchReg(iu, o.BRM)
			}
			return err
		}},
	}
	for _, s := range steps {
		if err := call(s.span, s.f); err != nil {
			return err
		}
	}
	insts[gen] += float64(len(q.Text))
	return nil
}

// serveTrace is the traced replay of a serve workload: half the window
// untraced, then half with a span around every ServeHTTP call, over the
// continuation of the same op sequence. It fills the serve and
// driver-cache metrics from the traced half, and the guard metrics from
// both halves (shadow sampling picks every 32nd execution of a class,
// too rare to count in half a window).
func (b *serveBench) serveTrace(t *tracer, seconds int) (map[string]float64, *window) {
	half := time.Duration(seconds) * time.Second / 2
	ops := b.ops[:len(b.ops)/2]
	sampled, fallbacks := counter("guard.shadow.sampled"), counter("guard.fallback.attempts")
	var execs float64
	countExecs := func(_ int, r *opRecord) {
		if r.code == 200 && !r.cached {
			execs++
		}
	}
	plain := b.timed(half, ops, countExecs)
	// Continue the sequence at the next unsent op, at an even index so
	// serve-suite's baseline/branch-register pairs stay aligned.
	b.ops = b.ops[(plain.attempted+1)/2*2:]
	rest := b.ops
	b.recs = nil
	coalesced := counter("serve.coalesced")
	rc0 := b.cache.ResultCache().Stats()
	cc0 := b.cache.Stats()
	b.tr = t
	var cached, rejected float64
	var overhead, client float64
	var queue []int64
	w := b.timed(half, rest, func(i int, r *opRecord) {
		countExecs(i, r)
		if r.cached {
			cached++
		}
		if r.code == 429 || r.code == 503 {
			rejected++
		}
		overhead += float64(r.lat - r.queueNS - r.compNS - r.runNS)
		client += float64(r.lat)
		queue = append(queue, r.queueNS)
	})
	b.tr = nil
	rc := b.cache.ResultCache().Stats()
	cc := b.cache.Stats()
	n := float64(max(w.attempted, 1))
	slices.Sort(queue)
	lookups := float64(rc.Hits - rc0.Hits + rc.Misses - rc0.Misses)
	return map[string]float64{
		"serve.overhead_ms":              overhead / 1e6 / n,
		"serve.unattributed_pct":         100 * overhead / max(client, 1),
		"serve.queue_ms_p50":             float64(quantile(queue, 0.50)) / 1e6,
		"serve.queue_ms_p99":             float64(quantile(queue, 0.99)) / 1e6,
		"serve.cached_ratio":             cached / n,
		"serve.coalesced_ratio":          float64(counter("serve.coalesced")-coalesced) / n,
		"serve.rejected":                 rejected,
		"guard.shadow_per_exec":          float64(counter("guard.shadow.sampled")-sampled) / max(execs, 1),
		"guard.fallbacks":                float64(counter("guard.fallback.attempts") - fallbacks),
		"driver.compile_cache.hit_ratio": float64(cc.Hits-cc0.Hits) / max(float64(cc.Requests-cc0.Requests), 1),
		"driver.compile_cache.entries":   float64(cc.Entries),
		"driver.result_cache.hit_ratio":  float64(rc.Hits-rc0.Hits) / max(lookups, 1),
		"driver.result_cache.evictions":  float64(rc.Evictions),
		"driver.result_cache.mib":        float64(rc.Bytes) / (1 << 20),
		"obs.trace_overhead_pct":         100 * (p50(w)/p50(plain) - 1),
	}, w
}

func counter(name string) int64 { return obs.Default.Counter(name).Value() }

func p50(w *window) float64 {
	lat := slices.Clone(w.lat)
	slices.Sort(lat)
	return float64(max(quantile(lat, 0.5), 1))
}
