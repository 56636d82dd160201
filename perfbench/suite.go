package main

import (
	"context"
	"fmt"
	"maps"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"branchreg/internal/driver"
	"branchreg/internal/emu"
	"branchreg/internal/isa"
	"branchreg/internal/serve"
	"branchreg/internal/workloads"
)

// program is one program a serve workload sends: a suite workload,
// requested by name, or a generated source (name empty), with the stdin
// its priming request uses. noStdin marks a suite workload with no
// canonical stdin: it reads none, so its output is the same whatever
// stdin a request carries.
type program struct {
	name    string
	src     string
	input   string
	noStdin bool
	tmpl    map[isa.Kind]*bodyTemplate
}

func suitePrograms() []program {
	var out []program
	for _, w := range workloads.All() {
		out = append(out, program{name: w.Name, src: w.FullSource(), input: w.Input, noStdin: w.Input == ""})
	}
	return out
}

// request builds the op that runs p on kind with the given stdin.
func (p *program) request(idx int, kind isa.Kind, input string) serveOp {
	if p.tmpl[kind] == nil {
		rr := serve.RunRequest{Machine: machineName(kind)}
		if p.name != "" {
			rr.Workload = p.name
		} else {
			rr.Source = p.src
		}
		if p.tmpl == nil {
			p.tmpl = map[isa.Kind]*bodyTemplate{}
		}
		p.tmpl[kind] = newTemplate(rr)
	}
	return serveOp{tmpl: p.tmpl[kind], src: p.src, input: input, kind: kind, program: idx, noStdin: p.noStdin}
}

// reference runs op on the instrumented engine, off the path brserve
// serves from (its chain is adaptive, fused, fast), and returns the
// output hash and exit status. progs memoizes compilations per
// (program, machine), and outs the references of programs that read no
// stdin. Were such a program to read its stdin after all, ops with other
// stdin would fail the check rather than pass it.
type refRunner struct {
	mu    sync.Mutex
	progs map[[2]int]*isa.Program
	outs  map[[2]int]refOut
}

type refOut struct {
	out    uint64
	status int32
}

func (r *refRunner) run(op *serveOp) (uint64, int32, error) {
	key := [2]int{op.program, int(op.kind)}
	r.mu.Lock()
	if r.progs == nil {
		r.progs, r.outs = map[[2]int]*isa.Program{}, map[[2]int]refOut{}
	}
	p := r.progs[key]
	o, done := r.outs[key]
	r.mu.Unlock()
	if done {
		return o.out, o.status, nil
	}
	if p == nil {
		var err error
		if p, err = driver.Compile(context.Background(), op.src, op.kind, driver.DefaultOptions()); err != nil {
			return 0, 0, err
		}
		r.mu.Lock()
		r.progs[key] = p
		r.mu.Unlock()
	}
	m, err := emu.New(p, op.input)
	if err != nil {
		return 0, 0, err
	}
	m.Loop = emu.LoopInstrumented
	status, err := m.RunContext(context.Background())
	if err != nil {
		return 0, 0, err
	}
	o = refOut{hashString(m.Output()), status}
	if op.noStdin {
		r.mu.Lock()
		r.outs[key] = o
		r.mu.Unlock()
	}
	return o.out, o.status, nil
}

// parallel calls f(i) for i in [0, n) on one goroutine per CPU. The
// checks use it, outside the measured window.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// serveSuite is emulation-heavy traffic: rounds over the 19 suite
// workloads plus held-out long-running generated programs, each with a
// fresh seeded stdin sent to both machines back to back.
type serveSuite struct {
	serveBench
	progs []program
	ref   refRunner
}

// heldOutSteps is the work, in IR-interpreter steps, of each generated
// long-running program that joins the suite: 16 programs, geometrically
// from 500,000 to 3,000,000. They run for about 2 to 9 ms each, filling the
// middle of the suite's range of run lengths densely, so that the median
// request is not balanced on a gap between two programs.
var heldOutSteps = func() []int64 {
	var s []int64
	for k := 0; k < 16; k++ {
		s = append(s, int64(500_000*math.Pow(6, float64(k)/15)))
	}
	return s
}()

// suiteRate bounds how many serve-suite ops a second of window can
// use; the op list is generated for it.
const suiteRate = 300

func newServeSuite() *serveSuite { return &serveSuite{} }

// heldOutSeed generates the held-out programs. It is fixed: programs
// drawn per seed differed from seed to seed by up to 1.7 times in run
// time at the same IR step count, which moved the traffic's median by
// more than the host did. The run's seed varies their stdin, as it does
// the suite programs'.
const heldOutSeed = 1990

func (s *serveSuite) prepare(seed int64, d time.Duration) error {
	g, held := newGen(seed), newGen(heldOutSeed)
	s.progs = suitePrograms()
	for _, steps := range heldOutSteps {
		in := held.genInput()
		src, err := held.longProgram(steps, in)
		if err != nil {
			return err
		}
		s.progs = append(s.progs, program{src: src, input: in})
	}
	for i := range s.progs {
		for _, k := range machines {
			s.prime = append(s.prime, s.progs[i].request(i, k, s.progs[i].input))
		}
	}
	// Each round sends the programs in a seeded order of its own, so that
	// the round a window cuts short is no more one class of program than
	// the other.
	for len(s.ops) < int(math.Ceil(d.Seconds()*suiteRate)) {
		for _, i := range g.r.Perm(len(s.progs)) {
			p := &s.progs[i]
			in := g.genInput()
			if p.name != "" {
				w, _ := workloads.ByName(p.name)
				in = g.suiteInput(w)
			}
			for _, k := range machines {
				s.ops = append(s.ops, p.request(i, k, in))
			}
		}
	}
	return nil
}

// replayEvery is how many baseline/branch-register pairs of sent ops
// there are to one that check replays on the instrumented engine, on
// alternate machines. Rounds send the programs in seeded orders, so the
// replayed pairs reach every program. Replaying every pair took three
// fifths as long as the window it checked.
const replayEvery = 4

// check verifies every sent op: HTTP 200 and agreement between the
// baseline and branch-register responses to the same stdin; one op of
// every replayEvery-th pair is also replayed on the instrumented engine.
func (s *serveSuite) check(w *window) error {
	sent := 0
	for sent < len(s.ops) && s.recs[sent].code != 0 {
		sent++
	}
	bad := make([]bool, sent)
	for i := 0; i+1 < sent; i += 2 {
		a, b := &s.recs[i], &s.recs[i+1]
		if a.out != b.out || a.status != b.status {
			bad[i], bad[i+1] = true, true
		}
	}
	var mu sync.Mutex
	var ferr error
	parallel(((sent+1)/2+replayEvery-1)/replayEvery, func(j int) {
		i := 2 * j * replayEvery
		if j%2 == 1 && i+1 < sent {
			i++
		}
		out, status, err := s.ref.run(&s.ops[i])
		mu.Lock()
		defer mu.Unlock()
		if err != nil && ferr == nil {
			ferr = fmt.Errorf("reference for op %d: %w", i, err)
		}
		if out != s.recs[i].out || status != s.recs[i].status {
			bad[i] = true
			if i+1 < sent {
				bad[i+1] = true
			}
		}
	})
	w.failed = 0
	for i := 0; i < sent; i++ {
		if bad[i] || s.recs[i].code != 200 {
			w.failed++
		}
	}
	s.reportMix(sent)
	return ferr
}

// reportMix prints, to stderr, what share of the sent requests and of
// their emulation time (the responses' run_ns) the held-out programs
// take, and the median latency of each class of program.
func (s *serveSuite) reportMix(sent int) {
	var lat [2][]int64 // suite, held-out
	var run [2]float64
	for i := 0; i < sent; i++ {
		c := 0
		if s.progs[s.ops[i].program].name == "" {
			c = 1
		}
		lat[c] = append(lat[c], s.recs[i].lat)
		run[c] += float64(s.recs[i].runNS)
	}
	for c := range lat {
		slices.Sort(lat[c])
	}
	all := slices.Concat(lat[0], lat[1])
	slices.Sort(all)
	var dec []float64
	for q := 1; q < 10; q++ {
		dec = append(dec, float64(quantile(all, float64(q)/10))/1e6)
	}
	fmt.Fprintf(os.Stderr, "perfbench: held-out programs: %.1f%% of requests, %.1f%% of emulation time; p50 %.2f ms, suite programs' p50 %.2f ms; deciles of all %.2f ms\n",
		100*float64(len(lat[1]))/float64(max(sent, 1)), 100*run[1]/max(run[0]+run[1], 1),
		float64(quantile(lat[1], 0.5))/1e6, float64(quantile(lat[0], 0.5))/1e6, dec)
}

// trace is the serve traced replay plus the experiment engine's layer:
// one brbench -all evaluation of the same suite programs, inside a span
// around Runner.RunAll, reports the exp metrics. Its report must match
// the golden copy, or the run fails.
func (s *serveSuite) trace(t *tracer, seconds int) (map[string]float64, []layerProg, *window, error) {
	m, w := s.serveTrace(t, seconds)
	s.close()
	sp := t.begin("exp.Runner.RunAll", 0, 0)
	res, n, err := evaluate()
	sp.End()
	if err == nil {
		err = checkReport(res)
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("brbench -all evaluation: %w", err)
	}
	maps.Copy(m, expMetrics(res, n))
	return m, s.layerProgs(), w, nil
}

// layerProgs is every program on both machines with its priming stdin.
func (s *serveSuite) layerProgs() []layerProg {
	var out []layerProg
	for _, p := range s.progs {
		for _, k := range machines {
			out = append(out, layerProg{src: p.src, input: p.input, kind: k})
		}
	}
	return out
}
