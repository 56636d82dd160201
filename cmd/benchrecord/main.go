// Command benchrecord runs the repository's throughput benchmarks at a
// fixed -benchtime and appends one entry to BENCH_emulator.json, the
// committed benchmark-trajectory artifact. Each entry records the commit,
// the date, emulated-insts/s per machine kind from BenchmarkEmulator, and
// the Table I suite wall-clock from BenchmarkTable1, so the emulator's
// performance is tracked across PRs instead of anecdotally.
//
// With -gate, benchrecord instead measures and compares against the last
// committed entry, failing (exit 1) when emulated-insts/s dropped more
// than -max-regress percent on any machine kind. A suspected regression
// is re-measured once and the best run per kind kept, so scheduler noise
// does not fail the build. `make bench-gate` (wired into `make check`)
// runs exactly this.
//
// The brserve service is measured by perfbench (perfbench/run.sh);
// BENCH_serve.json is frozen history. Gate output always names the file
// it gated.
//
// Usage:
//
//	benchrecord [-out BENCH_emulator.json] [-benchtime 3x] [-label text]
//	benchrecord -print   # run and print the entry without writing
//	benchrecord -gate [-max-regress 3.0]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Schema versions BENCH_emulator.json; bump on incompatible change.
const Schema = 1

// File is the committed artifact: a version plus the entry trajectory,
// oldest first.
type File struct {
	Schema  int     `json:"schema"`
	Tool    string  `json:"tool"`
	Entries []Entry `json:"entries"`
}

// Entry is one benchmark measurement.
type Entry struct {
	Commit    string `json:"commit"`
	Date      string `json:"date"` // YYYY-MM-DD (UTC)
	Label     string `json:"label,omitempty"`
	Benchtime string `json:"benchtime"`
	// EmulatedInstsPerSec maps machine kind ("baseline", "branchreg") to
	// BenchmarkEmulator's emulated-insts/s metric.
	EmulatedInstsPerSec map[string]float64 `json:"emulated_insts_per_sec"`
	// Table1WallClockMillis is BenchmarkTable1's ns/op (the full Table I
	// suite, compile + emulate) in milliseconds.
	Table1WallClockMillis float64 `json:"table1_wall_clock_ms"`
	// Metrics holds the observability snapshot BenchmarkObservability
	// reports for the warm path: cache-hit-% (compile cache) and
	// pool-reuse-% (emulator memory pool). Absent in entries recorded
	// before the observability layer existed.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

var (
	emuLine    = regexp.MustCompile(`^BenchmarkEmulator/([\w/]+?)(?:-\d+)?\s+\d+\s+[\d.]+ ns/op\s+([\d.e+]+) emulated-insts/s`)
	table1Line = regexp.MustCompile(`^BenchmarkTable1\S*\s+\d+\s+([\d.]+) ns/op`)
)

// emuKinds is the row set BenchmarkEmulator must produce for an entry
// to be recordable: the sieve throughput rows per machine, plus the
// fused and adaptive rows of the compiler-shaped tinycc workload.
var emuKinds = []string{
	"baseline", "branchreg",
	"tinycc/baseline/fused", "tinycc/baseline/adaptive",
	"tinycc/branchreg/fused", "tinycc/branchreg/adaptive",
}

// measureSamples is how many times each recording or gate measurement
// reruns the benchmark binary, keeping the best throughput per machine
// kind. Host contention on a shared single-CPU box only ever slows a
// run down, so the per-kind maximum is the stable statistic; single
// draws at -benchtime 3x swing well over 10% run to run.
const measureSamples = 3

// measureBest runs measure n times and merges the results: per-kind
// maximum emulated-insts/s, minimum Table 1 wall clock, and the
// metrics map from the last sample that produced one.
func measureBest(benchtime, label string, n int) (*Entry, error) {
	best, err := measure(benchtime, label)
	if err != nil {
		return nil, err
	}
	for i := 1; i < n; i++ {
		next, err := measure(benchtime, label)
		if err != nil {
			return nil, err
		}
		for kind, v := range next.EmulatedInstsPerSec {
			if v > best.EmulatedInstsPerSec[kind] {
				best.EmulatedInstsPerSec[kind] = v
			}
		}
		if next.Table1WallClockMillis < best.Table1WallClockMillis {
			best.Table1WallClockMillis = next.Table1WallClockMillis
		}
		if next.Metrics != nil {
			best.Metrics = next.Metrics
		}
	}
	return best, nil
}

func main() {
	out := flag.String("out", "BENCH_emulator.json", "trajectory file to append to")
	benchtime := flag.String("benchtime", "3x", "go test -benchtime value")
	label := flag.String("label", "", "free-text label for this entry")
	printOnly := flag.Bool("print", false, "print the entry as JSON without writing the file")
	gate := flag.Bool("gate", false,
		"measure and compare against the last committed entry instead of appending;\n"+
			"exit non-zero on a throughput regression beyond -max-regress")
	maxRegress := flag.Float64("max-regress", 3.0,
		"maximum tolerated emulated-insts/s drop in percent (-gate)")
	allowDirty := flag.Bool("allow-dirty", false,
		"let -gate compare against a *-dirty entry (one recorded from an\n"+
			"uncommitted tree); refused by default because such an entry does\n"+
			"not correspond to any commit")
	flag.Parse()

	if *gate {
		if err := runGate(*out, *benchtime, *maxRegress, *allowDirty); err != nil {
			fmt.Fprintf(os.Stderr, "benchrecord: %v\n", err)
			os.Exit(1)
		}
		return
	}

	entry, err := measureBest(*benchtime, *label, measureSamples)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchrecord: %v\n", err)
		os.Exit(1)
	}
	if *printOnly {
		b, _ := json.MarshalIndent(entry, "", "  ")
		fmt.Println(string(b))
		return
	}
	if err := appendEntry(*out, *entry); err != nil {
		fmt.Fprintf(os.Stderr, "benchrecord: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchrecord: appended %s entry to %s (baseline %.0f insts/s, branchreg %.0f insts/s, Table1 %.1f ms)\n",
		entry.Commit, *out, entry.EmulatedInstsPerSec["baseline"],
		entry.EmulatedInstsPerSec["branchreg"], entry.Table1WallClockMillis)
}

func measure(benchtime, label string) (*Entry, error) {
	cmd := exec.Command("go", "test", "-run=^$",
		"-bench=^BenchmarkEmulator$|^BenchmarkTable1$|^BenchmarkObservability$",
		"-benchtime="+benchtime, ".")
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go test -bench: %w\n%s", err, outBytes)
	}
	entry := &Entry{
		Commit:              gitCommit(),
		Date:                time.Now().UTC().Format("2006-01-02"),
		Label:               label,
		Benchtime:           benchtime,
		EmulatedInstsPerSec: map[string]float64{},
	}
	for _, line := range strings.Split(string(outBytes), "\n") {
		if m := emuLine.FindStringSubmatch(line); m != nil {
			v, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				return nil, fmt.Errorf("parse %q: %w", line, err)
			}
			entry.EmulatedInstsPerSec[m[1]] = v
		} else if m := table1Line.FindStringSubmatch(line); m != nil {
			ns, err := strconv.ParseFloat(m[1], 64)
			if err != nil {
				return nil, fmt.Errorf("parse %q: %w", line, err)
			}
			entry.Table1WallClockMillis = ns / 1e6
		} else if strings.HasPrefix(line, "BenchmarkObservability") {
			// Custom metrics print as "<value> <unit>" pairs after ns/op.
			fields := strings.Fields(line)
			for i := 0; i+1 < len(fields); i++ {
				unit := fields[i+1]
				if unit != "cache-hit-%" && unit != "pool-reuse-%" {
					continue
				}
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					return nil, fmt.Errorf("parse %q: %w", line, err)
				}
				if entry.Metrics == nil {
					entry.Metrics = map[string]float64{}
				}
				entry.Metrics[unit] = v
			}
		}
	}
	for _, kind := range emuKinds {
		if entry.EmulatedInstsPerSec[kind] <= 0 {
			return nil, fmt.Errorf("benchmark output missing %s emulated-insts/s:\n%s", kind, outBytes)
		}
	}
	if entry.Table1WallClockMillis == 0 {
		return nil, fmt.Errorf("benchmark output missing expected metrics:\n%s", outBytes)
	}
	return entry, nil
}

// runGate measures (best of measureSamples runs) and compares against
// the trajectory's last entry. A suspected regression gets a second
// best-of-N round, keeping the best throughput per kind — a noisy
// window should not fail `make check` — but a reproducible drop beyond
// maxRegress percent does.
// A *-dirty last entry (recorded from an uncommitted tree) is refused
// unless allowDirty: it does not correspond to any commit, so gating
// against it would anchor the budget to an unreproducible measurement.
func runGate(path, benchtime string, maxRegress float64, allowDirty bool) error {
	last, err := lastEntry(path)
	if err != nil {
		return err
	}
	if isDirty(last.Commit) && !allowDirty {
		return fmt.Errorf("refusing to gate against dirty entry %s (%s, %s) in %s: "+
			"re-record it from a clean tree, or pass -allow-dirty to accept it",
			last.Commit, last.Date, last.Benchtime, path)
	}
	fmt.Fprintf(os.Stderr, "benchrecord: gate: comparing against %s entry %s (%s)\n",
		path, last.Commit, last.Date)
	fresh, err := measureBest(benchtime, "", measureSamples)
	if err != nil {
		return err
	}
	bad := gateCheck(last, fresh, maxRegress)
	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "benchrecord: gate: suspected regression (%s), remeasuring\n",
			strings.Join(bad, "; "))
		again, err := measureBest(benchtime, "", measureSamples)
		if err != nil {
			return err
		}
		for kind, v := range again.EmulatedInstsPerSec {
			if v > fresh.EmulatedInstsPerSec[kind] {
				fresh.EmulatedInstsPerSec[kind] = v
			}
		}
		bad = gateCheck(last, fresh, maxRegress)
	}
	if len(bad) > 0 {
		return fmt.Errorf("gate failed against %s entry %s:\n  %s",
			path, last.Commit, strings.Join(bad, "\n  "))
	}
	fmt.Fprintf(os.Stderr,
		"benchrecord: "+path+": gate ok vs %s (baseline %.0f insts/s, branchreg %.0f insts/s, budget %.1f%%)\n",
		last.Commit, fresh.EmulatedInstsPerSec["baseline"],
		fresh.EmulatedInstsPerSec["branchreg"], maxRegress)
	return nil
}

// gateCheck returns one violation per machine kind whose fresh
// throughput is more than maxRegress percent below the last committed
// entry's. Kinds the old entry lacks (or recorded as zero) pass: the
// gate compares like with like, it does not require history.
func gateCheck(last, fresh *Entry, maxRegress float64) []string {
	kinds := make([]string, 0, len(last.EmulatedInstsPerSec))
	for kind := range last.EmulatedInstsPerSec {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	var bad []string
	for _, kind := range kinds {
		prev := last.EmulatedInstsPerSec[kind]
		cur, ok := fresh.EmulatedInstsPerSec[kind]
		if prev <= 0 || !ok {
			continue
		}
		drop := 100 * (prev - cur) / prev
		if drop > maxRegress {
			bad = append(bad, fmt.Sprintf("%s: %.0f -> %.0f insts/s (%.1f%% drop, budget %.1f%%)",
				kind, prev, cur, drop, maxRegress))
		}
	}
	return bad
}

// lastEntry reads the trajectory file's newest entry.
func lastEntry(path string) (*Entry, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Entries) == 0 {
		return nil, fmt.Errorf("%s has no entries to gate against", path)
	}
	return &f.Entries[len(f.Entries)-1], nil
}

// isDirty reports whether a recorded commit came from a modified tree.
func isDirty(commit string) bool { return strings.HasSuffix(commit, "-dirty") }

// gitCommit returns the short HEAD hash, "-dirty" suffixed when the
// working tree differs, or "unknown" outside a git checkout.
func gitCommit() string {
	rev, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(rev))
	if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(out) > 0 {
		commit += "-dirty"
	}
	return commit
}

func appendEntry(path string, e Entry) error {
	f := &File{Schema: Schema, Tool: "benchrecord"}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, f); err != nil {
			return fmt.Errorf("existing %s is unreadable: %w", path, err)
		}
		if f.Schema != Schema {
			return fmt.Errorf("existing %s has schema %d, tool writes %d", path, f.Schema, Schema)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	f.Entries = append(f.Entries, e)
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
