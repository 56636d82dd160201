// brbench regenerates every table and figure of the paper's evaluation:
// Table I (dynamic instructions and data references), the §7 cycle
// estimates and headline ratios, the Figure 5/7 delay tables, the Figure
// 6/8 pipeline action traces, the Figure 9 prefetch-distance histogram,
// the §8/§9 instruction-cache study, and the §9 ablations.
//
// Experiments run concurrently over a bounded worker pool sharing one
// compile cache, so -all compiles each (program, machine, configuration)
// at most once. -json writes the full results as a versioned schema
// suitable for committing as BENCH_<n>.json.
//
// Usage:
//
//	brbench -all
//	brbench -all -json out.json
//	brbench -table1 -cycles -ratios -workloads wc,grep,sieve
//	brbench -fig5 -fig6 -fig7 -fig8 -fig9
//	brbench -cache -ablate -par 4
//
// With -keep-going, failed (workload, machine) cells degrade to typed
// FAIL(<kind>) entries — in the tables and as error objects in the JSON
// report (schema v2) — while the rest of the suite completes; brbench
// then exits non-zero. -inject arms a deterministic fault on one cell
// (see parseInject) to exercise exactly that path:
//
//	brbench -all -keep-going -inject wc/brm/budget@1000 -json out.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"branchreg/internal/emu"
	"branchreg/internal/exp"
	"branchreg/internal/isa"
	"branchreg/internal/obs"
	"branchreg/internal/pipeline"
)

func main() {
	all := flag.Bool("all", false, "run every experiment")
	table1 := flag.Bool("table1", false, "Table I: dynamic measurements")
	cycles := flag.Bool("cycles", false, "section 7 cycle estimates")
	ratios := flag.Bool("ratios", false, "section 7 headline ratios")
	fig5 := flag.Bool("fig5", false, "Figure 5: unconditional transfer delays")
	fig6 := flag.Bool("fig6", false, "Figure 6: BRM unconditional pipeline trace")
	fig7 := flag.Bool("fig7", false, "Figure 7: conditional transfer delays")
	fig8 := flag.Bool("fig8", false, "Figure 8: BRM conditional pipeline trace")
	fig9 := flag.Bool("fig9", false, "Figure 9: prefetch distance histogram")
	cacheStudy := flag.Bool("cache", false, "sections 8-9 instruction cache study")
	ablate := flag.Bool("ablate", false, "section 9 ablations")
	validate := flag.Bool("validate", false, "cycle model vs dynamic pipeline simulation")
	align := flag.Bool("align", false, "section 9 function-alignment cache study")
	jsonPath := flag.String("json", "", "write results as versioned JSON to this path")
	workloadsFlag := flag.String("workloads", "", "comma-separated workload filter (default: all)")
	par := flag.Int("par", 0, "worker pool size (default: GOMAXPROCS)")
	keepGoing := flag.Bool("keep-going", false,
		"record failed cells as typed errors and finish the suite (exit non-zero)")
	inject := flag.String("inject", "",
		"comma-separated fault injections, each workload/machine/fault[@n]\n"+
			"(machine: baseline|brm; fault: flip|breg|uninit|budget|trap|panic)")
	tracePath := flag.String("trace", "",
		"write a Chrome trace_event JSON of the run to this path\n"+
			"(open in chrome://tracing or https://ui.perfetto.dev)")
	profile := flag.Bool("profile", false,
		"profile suite runs: print per-program hot-block tables and add\n"+
			"hot_blocks to the JSON report (profiled runs execute on the\n"+
			"profiled fast loop whatever -engine asks, except instrumented)")
	metrics := flag.Bool("metrics", false, "print the process metrics registry after the run")
	engine := flag.String("engine", "auto",
		"emulator engine for suite runs: auto|adaptive|fused|fast|instrumented\n"+
			"(auto picks the block-fused loop whenever hooks and faults permit;\n"+
			"adaptive promotes hot programs to a re-fused form at runtime)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this path (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write an allocation profile after the run to this path")
	flag.Parse()

	loop, err := parseEngine(*engine)
	if err != nil {
		fatal(err)
	}

	if *all {
		*table1, *cycles, *ratios = true, true, true
		*fig5, *fig6, *fig7, *fig8, *fig9 = true, true, true, true, true
		*cacheStudy, *ablate, *validate, *align = true, true, true, true
	}
	if !(*table1 || *cycles || *ratios || *fig5 || *fig6 || *fig7 || *fig8 || *fig9 ||
		*cacheStudy || *ablate || *validate || *align) {
		flag.PrintDefaults()
		os.Exit(2)
	}

	var names []string
	if *workloadsFlag != "" {
		for _, n := range strings.Split(*workloadsFlag, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}

	faults, err := parseInjects(*inject)
	if err != nil {
		fatal(err)
	}
	if faults != nil && (loop == emu.LoopFused || loop == emu.LoopFast || loop == emu.LoopAdaptive) {
		fatal(fmt.Errorf("-inject requires -engine auto or instrumented: the fast-path engines reject fault plans"))
	}

	spec := exp.AllSpec{
		Suite:      *table1 || *cycles || *ratios || *fig9,
		CacheStudy: *cacheStudy,
		Ablations:  *ablate,
		Validate:   *validate,
		Align:      *align,
		Workloads:  names,
		KeepGoing:  *keepGoing,
		Profile:    *profile,
		Faults:     faults,
		Loop:       loop,
	}

	// stopProfiles flushes -cpuprofile/-memprofile output; called both on
	// the normal return path (deferred) and before the keep-going
	// non-zero exit, which bypasses defers via os.Exit.
	stopProfiles := func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		stopProfiles = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if *memprofile != "" {
		prev := stopProfiles
		stopProfiles = func() {
			prev()
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}
	}
	defer stopProfiles()

	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer()
	}

	var mu sync.Mutex
	lastLine := map[string]int{}
	runner := &exp.Runner{
		Parallelism: *par,
		Tracer:      tracer,
		Progress: func(phase string, done, total int) {
			// Report at ~10% strides so parallel runs stay readable.
			stride := total / 10
			if stride == 0 {
				stride = 1
			}
			mu.Lock()
			defer mu.Unlock()
			if done != total && done < lastLine[phase]+stride {
				return
			}
			lastLine[phase] = done
			fmt.Fprintf(os.Stderr, "brbench: %s: %d/%d jobs\n", phase, done, total)
		},
	}

	start := time.Now()
	res, err := runner.RunAll(context.Background(), spec)
	if err != nil {
		fatal(err)
	}
	for _, ph := range res.Phases {
		fmt.Fprintf(os.Stderr, "brbench: %-28s %8dms\n", ph.Name, ph.Millis)
	}
	fmt.Fprintf(os.Stderr, "brbench: total %dms on %d workers, compile cache: %d compilations, %d hits\n",
		time.Since(start).Milliseconds(), res.Parallelism,
		res.CompileCache.Misses, res.CompileCache.Hits)

	// With -keep-going a whole phase may have failed; its section is
	// simply absent rather than a crash.
	if *table1 && res.Suite != nil {
		fmt.Println(res.Suite.Table1())
	}
	if *cycles && res.Suite != nil {
		fmt.Println(res.Suite.CycleTable([]int{3, 4, 5}))
	}
	if *ratios && res.Suite != nil {
		fmt.Println(res.Suite.RatiosTable())
	}
	if *fig5 {
		fmt.Println(pipeline.FormatDelayTables(
			"Figure 5: pipeline delays for unconditional transfers of control",
			pipeline.Figure5([]int{3, 4, 5})))
		fmt.Println(pipeline.FormatTrace("Figure 5a trace (no delayed branch, 3 stages)",
			pipeline.Figure5aTrace()))
		fmt.Println(pipeline.FormatTrace("Figure 5b trace (delayed branch, 3 stages)",
			pipeline.Figure5bTrace()))
	}
	if *fig6 {
		fmt.Println(pipeline.FormatTrace(
			"Figure 6: pipeline actions, BRM unconditional transfer", pipeline.Figure6()))
	}
	if *fig7 {
		fmt.Println(pipeline.FormatDelayTables(
			"Figure 7: pipeline delays for conditional transfers of control",
			pipeline.Figure7([]int{3, 4, 5})))
	}
	if *fig8 {
		fmt.Println(pipeline.FormatTrace(
			"Figure 8: pipeline actions, BRM conditional transfer", pipeline.Figure8()))
	}
	if *profile && res.Suite != nil {
		fmt.Println(res.Suite.HotBlockTables())
	}
	if *fig9 && res.Suite != nil {
		fmt.Printf("Figure 9: the target address must be calculated at least %d instructions\n"+
			"before the transfer to avoid a pipeline delay (3 stages, 1-cycle cache).\n\n",
			pipeline.MinCalcDistance(3, 1))
		fmt.Println(res.Suite.DistanceHistogram())
	}
	if *cacheStudy {
		fmt.Println(exp.CacheTable(res.Cache))
	}
	if *ablate {
		fmt.Println(exp.AblationTable(res.Ablations))
	}
	if *validate {
		for _, v := range res.Validation {
			fmt.Println(exp.SimTable(v.Rows, v.Stages))
		}
	}
	if *align {
		fmt.Println(exp.AlignTable(res.Alignment, res.AlignConfig))
	}

	if *jsonPath != "" {
		b, err := res.Report().Encode()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonPath, b, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "brbench: wrote %s (%d bytes)\n", *jsonPath, len(b))
	}

	if tracer != nil {
		b, err := tracer.ChromeTrace()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*tracePath, b, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "brbench: wrote trace %s (%d spans)\n", *tracePath, len(tracer.Spans()))
	}
	if *metrics {
		fmt.Fprint(os.Stderr, obs.Default.Snapshot().Format())
	}

	// Keep-going mode completed the suite around the failures; report
	// them and exit non-zero so CI still notices.
	if len(res.Errors) > 0 {
		for _, e := range res.Errors {
			fmt.Fprintln(os.Stderr, "brbench:", e)
		}
		fmt.Fprintf(os.Stderr, "brbench: %d cell(s) failed\n", len(res.Errors))
		stopProfiles()
		os.Exit(1)
	}
}

// parseEngine maps the -engine flag to an emulator loop mode.
func parseEngine(s string) (emu.LoopMode, error) {
	switch s {
	case "auto":
		return emu.LoopAuto, nil
	case "adaptive":
		return emu.LoopAdaptive, nil
	case "fused":
		return emu.LoopFused, nil
	case "fast":
		return emu.LoopFast, nil
	case "instrumented":
		return emu.LoopInstrumented, nil
	}
	return 0, fmt.Errorf("bad -engine %q: want auto, adaptive, fused, fast or instrumented", s)
}

// parseInjects parses the -inject flag: a comma-separated list of
// workload/machine/fault[@n] triples, each arming one deterministic
// fault on one suite cell. n is the instruction rank the fault fires at
// (default 1000). Faults: flip (corrupt a data word), breg (scramble a
// branch register's target), uninit (invalidate a branch register),
// budget (truncate the step budget to n), trap (force an injected trap),
// panic (panic the emulator — exercises the runner's recover path).
func parseInjects(s string) (map[string]*emu.FaultPlan, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]*emu.FaultPlan{}
	for _, one := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(one), "/")
		if len(parts) != 3 {
			return nil, fmt.Errorf("bad -inject %q: want workload/machine/fault[@n]", one)
		}
		workload := parts[0]
		var kind isa.Kind
		switch strings.ToLower(parts[1]) {
		case "baseline":
			kind = isa.Baseline
		case "brm":
			kind = isa.BranchReg
		default:
			return nil, fmt.Errorf("bad -inject machine %q: want baseline or brm", parts[1])
		}
		n := int64(1000)
		fault := parts[2]
		if at := strings.IndexByte(fault, '@'); at >= 0 {
			v, err := strconv.ParseInt(fault[at+1:], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad -inject rank %q: %v", fault[at+1:], err)
			}
			n, fault = v, fault[:at]
		}
		op := emu.FaultOp{N: n}
		switch fault {
		case "flip":
			op.Kind = emu.FaultFlipWord
			op.Addr = isa.DataBase
		case "breg":
			op.Kind = emu.FaultCorruptBReg
			op.BReg = 1
		case "uninit":
			op.Kind = emu.FaultCorruptBReg
			op.BReg = 1
			op.Invalidate = true
		case "budget":
			op.Kind = emu.FaultTruncateBudget
			op.Budget = n
		case "trap":
			op.Kind = emu.FaultForceTrap
		case "panic":
			op.Kind = emu.FaultPanic
		default:
			return nil, fmt.Errorf("bad -inject fault %q: want flip|breg|uninit|budget|trap|panic", fault)
		}
		key := exp.FaultKey(workload, kind)
		if out[key] == nil {
			out[key] = &emu.FaultPlan{Seed: 1}
		}
		out[key].Ops = append(out[key].Ops, op)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "brbench:", err)
	os.Exit(1)
}
