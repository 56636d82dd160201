package branchreg

// Integration tests for the command-line tools, driving them the way a
// user would (via `go run`).

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"branchreg/internal/exp"
)

func runTool(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		// bremu exits with the program's status; tolerate nonzero exits
		// that still produced output.
		if len(out) == 0 {
			t.Fatalf("go run %v: %v\n%s", args, err, out)
		}
	}
	return string(out)
}

func TestBrccBothMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("tool test")
	}
	out := runTool(t, "./cmd/brcc", "testdata/strlen.mc")
	if !strings.Contains(out, "baseline machine") || !strings.Contains(out, "branchreg machine") {
		t.Errorf("brcc output missing machines:\n%.400s", out)
	}
	if !strings.Contains(out, "strlen:") {
		t.Errorf("brcc output missing function listing:\n%.400s", out)
	}
	// The BRM listing must show a compare-with-assignment.
	if !strings.Contains(out, "->b[") {
		t.Errorf("brcc BRM listing missing CmpBr notation:\n%.400s", out)
	}
}

func TestBrccIRMode(t *testing.T) {
	if testing.Short() {
		t.Skip("tool test")
	}
	out := runTool(t, "./cmd/brcc", "-ir", "testdata/loopsum.mc")
	if !strings.Contains(out, "func main") {
		t.Errorf("brcc -ir output:\n%.400s", out)
	}
}

func TestBremuRunsFile(t *testing.T) {
	if testing.Short() {
		t.Skip("tool test")
	}
	out := runTool(t, "./cmd/bremu", "-machine", "brm", "testdata/hello.mc")
	if !strings.Contains(out, "hello from the branch register machine") {
		t.Errorf("bremu output:\n%.400s", out)
	}
	if !strings.Contains(out, "instructions executed") {
		t.Errorf("bremu stats missing:\n%.400s", out)
	}
}

func TestBremuWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("tool test")
	}
	out := runTool(t, "./cmd/bremu", "-w", "sieve", "-machine", "baseline")
	if !strings.Contains(out, "primes 1028") {
		t.Errorf("bremu workload output:\n%.400s", out)
	}
}

func TestBrbenchFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("tool test")
	}
	out := runTool(t, "./cmd/brbench", "-fig5", "-fig6", "-fig7", "-fig8")
	for _, want := range []string{"Figure 5", "Figure 6", "Figure 7", "Figure 8", "branch registers"} {
		if !strings.Contains(out, want) {
			t.Errorf("brbench output missing %q:\n%.600s", want, out)
		}
	}
}

func TestBrbenchJSONAndFilter(t *testing.T) {
	if testing.Short() {
		t.Skip("tool test")
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	out := runTool(t, "./cmd/brbench",
		"-table1", "-ratios", "-fig9", "-workloads", "wc,sieve", "-json", path)
	if !strings.Contains(out, "Table I") {
		t.Errorf("brbench output missing Table I:\n%.400s", out)
	}
	// The filter must hold: no unrequested workload in the table.
	if strings.Contains(out, "dhrystone") {
		t.Errorf("-workloads filter leaked other programs:\n%.600s", out)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Schema int `json:"schema"`
		Suite  struct {
			Programs []struct {
				Name string `json:"name"`
			} `json:"programs"`
		} `json:"suite"`
		CompileCache struct {
			Misses  int64 `json:"misses"`
			Entries int64 `json:"entries"`
		} `json:"compile_cache"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("brbench -json wrote invalid JSON: %v\n%.400s", err, raw)
	}
	if rep.Schema != exp.ReportSchemaVersion {
		t.Errorf("schema = %d, want %d", rep.Schema, exp.ReportSchemaVersion)
	}
	if len(rep.Suite.Programs) != 2 {
		t.Errorf("programs in JSON = %d, want the 2 filtered workloads", len(rep.Suite.Programs))
	}
	if rep.CompileCache.Misses != rep.CompileCache.Entries {
		t.Errorf("compile cache reports recompilation: %+v", rep.CompileCache)
	}
}

// TestBrbenchKeepGoing injects a deterministic fault into one suite cell
// and checks the keep-going contract: the rest of the suite completes,
// the faulted cell renders as FAIL(<kind>) and lands in the JSON report's
// errors array (schema v2) with its trap context, and brbench exits
// non-zero so CI still notices.
func TestBrbenchKeepGoing(t *testing.T) {
	if testing.Short() {
		t.Skip("tool test")
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	cmd := exec.Command("go", "run", "./cmd/brbench",
		"-table1", "-keep-going", "-workloads", "wc,sieve",
		"-inject", "wc/brm/trap@100", "-json", path)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Errorf("brbench -keep-going with an injected fault exited 0:\n%.600s", out)
	} else if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Errorf("brbench exit: %v (want exit status 1)\n%.600s", err, out)
	}
	if !strings.Contains(string(out), "FAIL(injected)") {
		t.Errorf("table does not mark the faulted cell:\n%.900s", out)
	}
	// The untouched workload must still be measured.
	if !strings.Contains(string(out), "sieve") {
		t.Errorf("keep-going did not complete the rest of the suite:\n%.900s", out)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Schema int `json:"schema"`
		Suite  struct {
			Programs []struct {
				Name     string          `json:"name"`
				BRMError json.RawMessage `json:"brm_error"`
			} `json:"programs"`
		} `json:"suite"`
		Errors []struct {
			Workload string `json:"workload"`
			Machine  string `json:"machine"`
			Kind     string `json:"kind"`
			Trap     struct {
				Kind string `json:"kind"`
				Fn   string `json:"fn"`
			} `json:"trap"`
		} `json:"errors"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%.400s", err, raw)
	}
	if rep.Schema != exp.ReportSchemaVersion {
		t.Errorf("schema = %d, want %d", rep.Schema, exp.ReportSchemaVersion)
	}
	if len(rep.Errors) != 1 {
		t.Fatalf("errors = %d, want exactly the injected cell:\n%s", len(rep.Errors), raw)
	}
	e := rep.Errors[0]
	if e.Workload != "wc" || e.Machine != "BRM" || e.Kind != "injected" || e.Trap.Kind != "injected" {
		t.Errorf("error object = %+v, want wc/BRM injected with trap context", e)
	}
	// Exactly the faulted cell is marked; the other cells carry stats.
	for _, p := range rep.Suite.Programs {
		marked := len(p.BRMError) > 0
		if (p.Name == "wc") != marked {
			t.Errorf("program %s: brm_error present=%v", p.Name, marked)
		}
	}
}

// TestBrbenchTraceAndProfile drives the observability flags end to end:
// -trace must write a valid Chrome trace_event JSON whose spans cover
// the phase/cell/compile/run hierarchy, and -profile must print
// per-program hot-block tables and embed hot_blocks in the v3 report.
func TestBrbenchTraceAndProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("tool test")
	}
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	jsonPath := filepath.Join(dir, "bench.json")
	out := runTool(t, "./cmd/brbench",
		"-table1", "-profile", "-workloads", "sieve",
		"-trace", tracePath, "-json", jsonPath)
	if !strings.Contains(out, "Hot blocks: sieve on baseline") ||
		!strings.Contains(out, "Hot blocks: sieve on BRM") {
		t.Errorf("-profile output missing hot-block tables:\n%.900s", out)
	}
	if !strings.Contains(out, "dyn insts") {
		t.Errorf("hot-block table header missing:\n%.900s", out)
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("-trace wrote invalid JSON: %v\n%.400s", err, raw)
	}
	names := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"suite", "cell:sieve/baseline", "cell:sieve/BRM", "compile", "run", "oracle"} {
		if !names[want] {
			t.Errorf("trace missing span %q (have %v)", want, names)
		}
	}

	raw, err = os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Suite struct {
			Programs []struct {
				Name           string `json:"name"`
				BaselineEngine string `json:"baseline_engine"`
				BRMEngine      string `json:"brm_engine"`
				BaselineBlocks []struct {
					Fn       string `json:"fn"`
					DynInsts int64  `json:"dyn_insts"`
				} `json:"baseline_hot_blocks"`
				BRMBlocks []json.RawMessage `json:"brm_hot_blocks"`
			} `json:"programs"`
		} `json:"suite"`
		Pool struct {
			Gets int64 `json:"gets"`
			Puts int64 `json:"puts"`
		} `json:"pool"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%.400s", err, raw)
	}
	if len(rep.Suite.Programs) != 1 {
		t.Fatalf("programs = %d, want 1", len(rep.Suite.Programs))
	}
	p := rep.Suite.Programs[0]
	if p.BaselineEngine != "instrumented" || p.BRMEngine != "instrumented" {
		t.Errorf("engines = %q/%q, want instrumented/instrumented (profiled runs take the instrumented loop)", p.BaselineEngine, p.BRMEngine)
	}
	if len(p.BaselineBlocks) == 0 || len(p.BRMBlocks) == 0 {
		t.Errorf("hot_blocks missing: baseline %d, brm %d", len(p.BaselineBlocks), len(p.BRMBlocks))
	}
	if rep.Pool.Gets == 0 || rep.Pool.Puts == 0 {
		t.Errorf("pool counters empty: %+v", rep.Pool)
	}
}

// TestExperimentsMatchBrbench holds EXPERIMENTS.md's paper sections
// (E1–E14) to the tool that produced them: every line of every fenced
// output block must appear, as a whole line, in `brbench -all` stdout,
// in document order, and every measured figure of E8's ratio table must
// be the one the "Headline ratios" lines print. A change that moves a
// paper number fails here until EXPERIMENTS.md says so.
func TestExperimentsMatchBrbench(t *testing.T) {
	if testing.Short() {
		t.Skip("tool test")
	}
	raw, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command("go", "run", "./cmd/brbench", "-all").Output()
	if err != nil {
		t.Fatalf("brbench -all: %v", err)
	}
	var got []string
	for _, l := range strings.Split(string(out), "\n") {
		got = append(got, strings.TrimRight(l, " \t"))
	}

	paper := regexp.MustCompile(`^## E\d+`)
	row := regexp.MustCompile(`^\|([^|]+)\|[^|]+\|([^|]+)\|`)
	var section string
	var block []string
	inBlock, blocks, ratios, cursor := false, 0, 0, 0
	sc := bufio.NewScanner(strings.NewReader(string(raw)))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "## ") && !inBlock {
			section = ""
			if paper.MatchString(line) {
				section = line
			}
			continue
		}
		if section == "" {
			continue
		}
		if line == "```" {
			if inBlock {
				blocks++
				for _, want := range block {
					for cursor < len(got) && got[cursor] != want {
						cursor++
					}
					if cursor == len(got) {
						t.Fatalf("%s: line %q is not in brbench -all stdout (in order)", section, want)
					}
					cursor++
				}
				block = block[:0]
			}
			inBlock = !inBlock
			continue
		}
		if inBlock {
			if l := strings.TrimRight(line, " \t"); l != "" {
				block = append(block, l)
			}
			continue
		}
		if strings.HasPrefix(section, "## E8 ") {
			m := row.FindStringSubmatch(line)
			if m == nil || strings.HasPrefix(m[1], "-") || strings.TrimSpace(m[1]) == "ratio" {
				continue
			}
			label := strings.TrimSpace(m[1])
			figure := strings.Trim(strings.TrimSpace(m[2]), "*")
			found := false
			for _, l := range got {
				if rest, ok := strings.CutPrefix(l, label); ok {
					_, val, _ := strings.Cut(rest, ":")
					if f := strings.Fields(val); len(f) > 0 && f[0] == figure {
						found = true
					}
				}
			}
			if !found {
				t.Errorf("E8: %q measured %s, not what the Headline ratios lines print", label, figure)
			}
			ratios++
		}
	}
	if blocks < 8 || ratios != 5 {
		t.Errorf("checked %d fenced blocks and %d E8 ratios; EXPERIMENTS.md lost a section", blocks, ratios)
	}
}

// TestBenchTrajectoryParses guards the committed benchmark-trajectory
// artifact: BENCH_emulator.json must stay parseable with the schema the
// benchrecord tool writes, hold at least the pre-PR baseline entry, and
// carry positive throughput for both machine kinds in every entry.
func TestBenchTrajectoryParses(t *testing.T) {
	raw, err := os.ReadFile("BENCH_emulator.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Schema  int    `json:"schema"`
		Tool    string `json:"tool"`
		Entries []struct {
			Commit              string             `json:"commit"`
			Date                string             `json:"date"`
			Benchtime           string             `json:"benchtime"`
			EmulatedInstsPerSec map[string]float64 `json:"emulated_insts_per_sec"`
			Table1WallClockMs   float64            `json:"table1_wall_clock_ms"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("BENCH_emulator.json is invalid: %v", err)
	}
	if f.Schema != 1 {
		t.Errorf("schema = %d, want 1", f.Schema)
	}
	if len(f.Entries) == 0 {
		t.Fatal("no entries")
	}
	for i, e := range f.Entries {
		if e.Commit == "" || e.Date == "" || e.Benchtime == "" {
			t.Errorf("entry %d missing commit/date/benchtime: %+v", i, e)
		}
		for _, kind := range []string{"baseline", "branchreg"} {
			if e.EmulatedInstsPerSec[kind] <= 0 {
				t.Errorf("entry %d: %s throughput = %v", i, kind, e.EmulatedInstsPerSec[kind])
			}
		}
		if e.Table1WallClockMs <= 0 {
			t.Errorf("entry %d: table1 wall clock = %v", i, e.Table1WallClockMs)
		}
	}
}

// TestBenchServeTrajectoryParses guards the committed service-throughput
// trajectory: BENCH_serve.json must stay parseable with the schema
// `benchrecord -serve` writes and carry sane latency and throughput in
// every entry.
func TestBenchServeTrajectoryParses(t *testing.T) {
	raw, err := os.ReadFile("BENCH_serve.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Schema  int    `json:"schema"`
		Tool    string `json:"tool"`
		Entries []struct {
			Commit    string  `json:"commit"`
			Date      string  `json:"date"`
			Clients   int     `json:"clients"`
			Requests  int     `json:"requests"`
			P50Millis float64 `json:"p50_ms"`
			P99Millis float64 `json:"p99_ms"`
			ReqPerSec float64 `json:"req_s"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("BENCH_serve.json is invalid: %v", err)
	}
	if f.Schema != 1 {
		t.Errorf("schema = %d, want 1", f.Schema)
	}
	if len(f.Entries) == 0 {
		t.Fatal("no entries")
	}
	for i, e := range f.Entries {
		if e.Commit == "" || e.Date == "" {
			t.Errorf("entry %d missing commit/date: %+v", i, e)
		}
		if e.Clients <= 0 || e.Requests <= 0 {
			t.Errorf("entry %d: clients/requests = %d/%d", i, e.Clients, e.Requests)
		}
		if e.P50Millis <= 0 || e.P99Millis < e.P50Millis {
			t.Errorf("entry %d: latency percentiles not sane: p50=%v p99=%v", i, e.P50Millis, e.P99Millis)
		}
		if e.ReqPerSec <= 0 {
			t.Errorf("entry %d: throughput = %v req/s", i, e.ReqPerSec)
		}
	}
}

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("tool test")
	}
	cases := []struct {
		dir  string
		want string
	}{
		{"./examples/quickstart", "branch registers saved"},
		{"./examples/strlen", "Figure 4"},
		{"./examples/pipetrace", "Figure 8"},
	}
	for _, c := range cases {
		out := runTool(t, c.dir)
		if !strings.Contains(out, c.want) {
			t.Errorf("%s output missing %q:\n%.400s", c.dir, c.want, out)
		}
	}
}

func TestBrccHexEncodings(t *testing.T) {
	if testing.Short() {
		t.Skip("tool test")
	}
	out := runTool(t, "./cmd/brcc", "-hex", "-machine", "brm", "testdata/hello.mc")
	if !strings.Contains(out, "00001000:") {
		t.Errorf("hex listing missing addresses:\n%.300s", out)
	}
}

// TestGeneratedCodeUpToDate fails when internal/emu's generated files
// (fusedloop.go, fusedtab.go) drift from the generator's template, or
// when a file carrying the generated-code mark is no longer generated:
// the `make generate-check` rule, run with the rest of the tests.
func TestGeneratedCodeUpToDate(t *testing.T) {
	if testing.Short() {
		t.Skip("tool test")
	}
	out, err := exec.Command("go", "run", "./internal/emu/gen", "-dir", "internal/emu", "-check").CombinedOutput()
	if err != nil {
		t.Errorf("generator check failed (run `make generate`): %v\n%s", err, out)
	}
}
