// Command perfbench is the repository benchmark. It drives the tool chain
// in-process, on one of two workloads:
//
//	serve-suite   emulation-heavy brserve traffic: the suite and held-out programs
//	serve-unique  compile-heavy brserve traffic: every request a new program
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it measures the end-to-end metrics over a window made of
// segments, each in a process of its own; with --trace 1 it replays the
// same op sequence in one process with spans around every public call
// into the layers and reports per-layer metrics. The last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. See
// README.md for the workloads, the metrics and how they relate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's one-line verdict.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// minSegments is how many segments at least an untraced run's window is
// split into (see runSegments), and so how many set-ups at least setup_s
// is the median of.
const minSegments = 5

// window is what a workload's timed phase hands back: one wall-clock
// latency per op, the op counts, and the process counters sampled at its
// edges.
type window struct {
	lat       []int64 // ns per completed op
	attempted int64
	failed    int64
	elapsed   time.Duration
	cpu       time.Duration
	mallocs   uint64
	bytes     uint64
	rss       float64 // peak resident set at the window's end, MiB
}

// counters samples the process CPU time and Go heap totals.
type counters struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	at      time.Time
}

func sample() counters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		at:      time.Now(),
	}
}

// finish fills the window's elapsed time, counter deltas since c and
// peak resident set.
func (c counters) finish(w *window) {
	end := sample()
	w.elapsed = end.at.Sub(c.at)
	w.cpu = end.cpu - c.cpu
	w.mallocs = end.mallocs - c.mallocs
	w.bytes = end.bytes - c.bytes
	w.rss = peakRSSMiB()
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(b), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func medianF(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// endToEndMetrics lists the untraced run's metrics with their units.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"}, {"latency_p50_ms", "ms"}, {"latency_p99_ms", "ms"},
	{"throughput_per_s", "1/s"}, {"cpu_ms_per_op", "ms"}, {"peak_rss_mib", "MiB"},
	{"allocs_per_op", "count"}, {"alloc_kib_per_op", "KiB"},
}

// endToEnd turns a measured window and the set-up times into the
// end-to-end metrics.
func endToEnd(w *window, setups []float64) map[string]metric {
	lat := slices.Clone(w.lat)
	slices.Sort(lat)
	ops := float64(max(len(lat), 1))
	v := map[string]float64{
		"setup_s":          medianF(setups),
		"latency_p50_ms":   float64(quantile(lat, 0.50)) / 1e6,
		"latency_p99_ms":   float64(quantile(lat, 0.99)) / 1e6,
		"throughput_per_s": float64(len(lat)) / w.elapsed.Seconds(),
		"cpu_ms_per_op":    float64(w.cpu.Nanoseconds()) / 1e6 / ops,
		"peak_rss_mib":     w.rss,
		"allocs_per_op":    float64(w.mallocs) / ops,
		"alloc_kib_per_op": float64(w.bytes) / 1024 / ops,
	}
	out := map[string]metric{}
	for _, m := range endToEndMetrics {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}

// workload is one benchmark workload. prepare generates the seeded
// inputs for a window of d (not timed); setup builds the entry point and
// runs the priming pass (timed as setup_s); run measures the timed
// window, which ends after d or when the prepared ops run out; check
// verifies what run recorded against references computed off the
// measured path and returns the number of failed ops; close releases the
// entry point. trace replays the op sequence with spans, returning the
// entry-point layers' metrics, the programs for the layer replay and the
// traced window (which check then verifies).
type workload interface {
	prepare(seed int64, d time.Duration) error
	setup() error
	run(d time.Duration) *window
	check(w *window) error
	close()
	trace(t *tracer, seconds int) (map[string]float64, []layerProg, *window, error)
}

var workloadsByName = map[string]func() workload{
	"serve-suite":  func() workload { return newServeSuite() },
	"serve-unique": func() workload { return newServeUnique() },
}

func main() {
	name := flag.String("workload", "", "workload: serve-suite or serve-unique")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	traced := flag.Int("trace", 0, "1 replays the workload with spans and reports per-layer metrics")
	segment := flag.Int("segment", -1, "run segment k of the window in this process and print its raw figures (used by the untraced run)")
	windowMS := flag.Int64("window-ms", 0, "with --segment: the segment's window in milliseconds")
	flag.Parse()
	mk, ok := workloadsByName[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || (*segment >= 0 && *windowMS < 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	var out any
	var err error
	switch {
	case *segment >= 0:
		out, err = runSegment(mk(), segmentSeed(*seed, *segment), time.Duration(*windowMS)*time.Millisecond)
	case *traced == 1:
		out, err = runTracedWorkload(*name, mk(), *seed, *seconds)
	default:
		out, err = runSegments(*name, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	b, _ := json.Marshal(out)
	fmt.Println(string(b))
}

// segmentReport is what a segment process prints: its set-up time and
// the raw figures of its window.
type segmentReport struct {
	Setup     float64 `json:"setup_s"`
	Lat       []int64 `json:"lat_ns"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Elapsed   int64   `json:"elapsed_ns"`
	CPU       int64   `json:"cpu_ns"`
	Mallocs   uint64  `json:"mallocs"`
	Bytes     uint64  `json:"bytes"`
	RSS       float64 `json:"rss_mib"`
}

// segmentSeed is the input seed of segment k of a run with the given
// seed; segment 0 uses the run's seed itself.
func segmentSeed(seed int64, k int) int64 { return seed + int64(k)<<32 }

// maxRunWall bounds a run's wall time: no segment starts after it, so a
// run on a slow host still ends well within the three minutes it has.
const maxRunWall = 130 * time.Second

// runSegments is the untraced run. Its window is made of segments, each
// in a process of its own that prepares its inputs, sets up, measures,
// checks and exits, until the segments' windows add up to the seconds
// asked for. A segment's window is at most a minSegments-th of the run's,
// and ends early when its prepared ops run out (serve-unique's fixed
// number of distinct programs), so that what one segment leaves resident
// never weighs on the next. The time metrics are over the ops of all
// segments, the counts are summed, and peak_rss_mib and setup_s are
// medians over segments.
func runSegments(name string, seed int64, seconds int) (*result, error) {
	probeStart := hostProbe()
	t0 := time.Now()
	total := time.Duration(seconds) * time.Second
	w := &window{}
	var setups, rss []float64
	// The last stretch, when shorter than this, is not worth a segment.
	for k := 0; total-w.elapsed > total/100; k++ {
		if k > 0 && time.Since(t0) > maxRunWall {
			fmt.Fprintf(os.Stderr, "perfbench: the run reached %v; window cut at %.1f s\n", maxRunWall, w.elapsed.Seconds())
			break
		}
		s, err := segmentInChild(name, seed, k, min(total/minSegments, total-w.elapsed))
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", k, err)
		}
		if s.Attempted == 0 {
			return nil, fmt.Errorf("segment %d sent no op", k)
		}
		w.lat = append(w.lat, s.Lat...)
		w.attempted += s.Attempted
		w.failed += s.Failed
		w.elapsed += time.Duration(s.Elapsed)
		w.cpu += time.Duration(s.CPU)
		w.mallocs += s.Mallocs
		w.bytes += s.Bytes
		setups = append(setups, s.Setup)
		rss = append(rss, s.RSS)
	}
	w.rss = medianF(rss)
	fmt.Fprintf(os.Stderr, "perfbench: %d ops in %.2fs over %d segments, %d failed; set-ups %.3f s; peak RSS %.1f MiB; host probe %.2f ms at start, %.2f ms at end; run %.1f s\n",
		w.attempted, w.elapsed.Seconds(), len(rss), w.failed, setups, rss, probeStart, hostProbe(), time.Since(t0).Seconds())
	return &result{
		Correct:   w.failed == 0,
		Attempted: w.attempted,
		Failed:    w.failed,
		Metrics:   endToEnd(w, setups),
	}, nil
}

// runSegment is one segment of the untraced run, in this process:
// prepare, a timed set-up, a window of at most d, and its check.
func runSegment(wl workload, seed int64, d time.Duration) (*segmentReport, error) {
	t0 := time.Now()
	heap0 := liveHeapMiB()
	if err := wl.prepare(seed, d); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	inputs := liveHeapMiB() - heap0
	prep := time.Since(t0)
	s, err := timedSetup(wl)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer wl.close()
	runtime.GC()
	w := wl.run(d)
	t1 := time.Now()
	if err := wl.check(w); err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: segment: %d ops in %.2f s, %d failed; inputs %.1f MiB made in %.2f s; set-up %.3f s; check %.2f s\n",
		w.attempted, w.elapsed.Seconds(), w.failed, inputs, prep.Seconds(), s, time.Since(t1).Seconds())
	return &segmentReport{
		Setup: s, Lat: w.lat, Attempted: w.attempted, Failed: w.failed,
		Elapsed: w.elapsed.Nanoseconds(), CPU: w.cpu.Nanoseconds(),
		Mallocs: w.mallocs, Bytes: w.bytes, RSS: w.rss,
	}, nil
}

// runTracedWorkload is --trace 1, in this process: one set-up, then the
// traced replay (see runTraced). It reports no setup_s.
func runTracedWorkload(name string, wl workload, seed int64, seconds int) (*result, error) {
	probeStart := hostProbe()
	if err := wl.prepare(seed, time.Duration(seconds)*time.Second); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	if _, err := timedSetup(wl); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer wl.close()
	runtime.GC()
	return runTraced(name, wl, seconds, probeStart)
}

// timedSetup times one set-up. It starts from a collected heap, so that
// it inherits no garbage collection that preparing the inputs left half
// done.
func timedSetup(wl workload) (float64, error) {
	runtime.GC()
	start := time.Now()
	err := wl.setup()
	return time.Since(start).Seconds(), err
}

// segmentInChild runs segment k, with a window of at most d, in a process
// of this program, waits for it to exit and returns what it printed.
func segmentInChild(name string, seed int64, k int, d time.Duration) (*segmentReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(max(int(d.Seconds()), 1)), "--segment", strconv.Itoa(k),
		"--window-ms", strconv.FormatInt(max(d.Milliseconds(), 1), 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("segment process: %w", err)
	}
	s := &segmentReport{}
	return s, json.Unmarshal(out, s)
}

// liveHeapMiB collects the heap and returns the bytes live in it, in MiB.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// hostProbe times a fixed integer kernel owned by the benchmark (an
// xorshift walk over a small table) and returns the median of five
// timings in milliseconds. It is a diagnostic of host speed only; no
// metric is normalized by it.
func hostProbe() float64 {
	var table [4096]uint32
	var ts []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		x := uint32(2463534242)
		for i := 0; i < 2_000_000; i++ {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			j := x & 4095
			if table[j] > x {
				table[j] -= x >> 3
			} else {
				table[j] += x
			}
		}
		ts = append(ts, float64(time.Since(start).Nanoseconds())/1e6)
		probeSink += table[x&4095]
	}
	return medianF(ts)
}

var probeSink uint32
