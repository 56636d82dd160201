package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"

	"branchreg/internal/serve"
	"branchreg/internal/workloads"
)

// TestGeneratorDeterministic: one seed always yields the same programs
// and stdin, and another seed yields others.
func TestGeneratorDeterministic(t *testing.T) {
	draw := func(seed int64) []string {
		g := newGen(seed)
		out := []string{g.uniqueProgram(0.3), g.genInput(), g.uniqueProgram(0.9), fmt.Sprint(g.strata(60))}
		long, err := g.longProgram(200_000, "1 2 3\n")
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, long)
		for _, w := range workloads.All() {
			out = append(out, g.suiteInput(w))
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	if slices.Equal(a, c) {
		t.Fatal("different seeds generated the same inputs")
	}
}

// TestSizeStrata: every sizeStrata consecutive serve-unique size
// quantiles hold one from each stratum.
func TestSizeStrata(t *testing.T) {
	q := newGen(5).strata(3 * sizeStrata)
	for b := 0; b < 3; b++ {
		seen := make([]bool, sizeStrata)
		for _, v := range q[b*sizeStrata : (b+1)*sizeStrata] {
			seen[int(v*sizeStrata)] = true
		}
		if slices.Contains(seen, false) {
			t.Fatalf("block %d misses a size stratum", b)
		}
	}
}

// TestCheckerRejectsCorruptedOutput: the serve-unique checker passes the
// reference's own outputs and fails an op whose output is changed; the
// evaluation report check ignores the wall-clock phases and fails a
// report with one changed number.
func TestCheckerRejectsCorruptedOutput(t *testing.T) {
	s := newServeUnique()
	g := newGen(3)
	for i := 0; i < 4; i++ {
		p := program{src: g.uniqueProgram(float64(i) / 4), input: g.genInput()}
		s.ops = append(s.ops, p.request(i, machines[i%2], p.input))
		out, status, err := irexecRef(p.src, p.input)
		if err != nil {
			t.Fatal(err)
		}
		s.recs = append(s.recs, opRecord{code: 200, out: out, status: status})
	}
	w := &window{attempted: 4}
	if err := s.check(w); err != nil || w.failed != 0 {
		t.Fatalf("reference outputs: %d failed, err %v", w.failed, err)
	}
	s.recs[2].out ^= 1
	if err := s.check(w); err != nil || w.failed != 1 {
		t.Fatalf("one corrupted output: %d failed, err %v", w.failed, err)
	}

	golden, err := canonicalReport(goldenReport)
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(goldenReport, &rep); err != nil {
		t.Fatal(err)
	}
	rep["phases"] = []any{} // wall clock: ignored
	same, _ := json.Marshal(rep)
	if got, _ := canonicalReport(same); string(got) != string(golden) {
		t.Fatal("a report differing only in phases does not match the golden copy")
	}
	rep["compile_cache"].(map[string]any)["misses"] = 1.0
	bad, _ := json.Marshal(rep)
	if got, _ := canonicalReport(bad); string(got) == string(golden) {
		t.Fatal("a corrupted report matches the golden copy")
	}
}

// TestSuiteCheckerRejectsDisagreement: the serve-suite checker passes
// responses equal to the instrumented replay, and fails both ops of a
// pair whose machines disagree and an op that differs from its replay.
func TestSuiteCheckerRejectsDisagreement(t *testing.T) {
	s := newServeSuite()
	g := newGen(4)
	s.progs = []program{{src: g.uniqueProgram(0.2)}}
	for i := 0; i < 2; i++ {
		in := g.genInput()
		for _, k := range machines {
			op := s.progs[0].request(0, k, in)
			out, status, err := s.ref.run(&op)
			if err != nil {
				t.Fatal(err)
			}
			s.ops = append(s.ops, op)
			s.recs = append(s.recs, opRecord{code: 200, out: out, status: status})
		}
	}
	w := &window{attempted: 4}
	if err := s.check(w); err != nil || w.failed != 0 {
		t.Fatalf("reference outputs: %d failed, err %v", w.failed, err)
	}
	s.recs[3].out ^= 1
	if err := s.check(w); err != nil || w.failed != 2 {
		t.Fatalf("machines disagree: %d failed, err %v", w.failed, err)
	}
	s.recs[3].out ^= 1
	s.recs[0].out ^= 1
	s.recs[1].out ^= 1
	if err := s.check(w); err != nil || w.failed != 2 {
		t.Fatalf("pair differs from its replay: %d failed, err %v", w.failed, err)
	}
}

// TestRequestBody: a body built from a template decodes to the same
// request as one encoded whole, whatever bytes the stdin holds.
func TestRequestBody(t *testing.T) {
	input := "a\tb \"q\" \\ <&> \x01\x1f\n%%\n"
	for _, p := range []program{{name: "wc"}, {src: newGen(1).uniqueProgram(0.5)}} {
		for _, k := range machines {
			op := p.request(0, k, input)
			var got, want serve.RunRequest
			if err := json.Unmarshal(op.tmpl.build(nil, input), &got); err != nil {
				t.Fatal(err)
			}
			rr := serve.RunRequest{Workload: p.name, Source: p.src, Machine: machineName(k), Input: &input}
			if err := json.Unmarshal(encodeRun(rr), &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("template body decodes to %+v, want %+v", got, want)
			}
		}
	}
}

// TestResponseParsing: the allocation-free response scanner decodes the
// output string the way the server's JSON encoder wrote it.
func TestResponseParsing(t *testing.T) {
	out := "a\tb \"q\" \\ é\x01\n"
	body, _ := json.Marshal(map[string]any{"output": out, "status": -3, "cached": true,
		"timing": map[string]int{"queue_ns": 5, "compile_ns": 6, "run_ns": 7}})
	var r opRecord
	parseResponse(&recorder{code: 200, buf: body}, &r)
	want := opRecord{code: 200, status: -3, out: hashString(out), cached: true, queueNS: 5, compNS: 6, runNS: 7}
	if r != want {
		t.Fatalf("parsed %+v, want %+v", r, want)
	}
}

// TestMetricNames: every metric name is well formed and unique, and
// BENCHMARK.json lists exactly the metrics the harness reports.
func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	var e2e, layers []string
	for _, m := range endToEndMetrics {
		e2e = append(e2e, m.name)
	}
	for _, m := range perLayer {
		layers = append(layers, m.name)
	}
	for _, name := range append(slices.Clone(e2e), layers...) {
		if !valid.MatchString(name) || seen[name] {
			t.Errorf("metric name %q is malformed or repeated", name)
		}
		seen[name] = true
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	names := func(l []struct{ Name string }) []string {
		var out []string
		for _, x := range l {
			out = append(out, x.Name)
		}
		slices.Sort(out)
		return out
	}
	slices.Sort(e2e)
	slices.Sort(layers)
	if got := names(bench.EndToEnd); !slices.Equal(got, e2e) {
		t.Errorf("BENCHMARK.json end_to_end %v, harness %v", got, e2e)
	}
	if got := names(bench.PerLayer); !slices.Equal(got, layers) {
		t.Errorf("BENCHMARK.json per_layer %v, harness %v", got, layers)
	}
	for _, w := range bench.Workloads {
		if workloadsByName[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a harness workload", w.Name)
		}
	}
}
