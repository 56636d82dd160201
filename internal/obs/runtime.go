package obs

import (
	"runtime"
	"runtime/metrics"
)

// runtimeSamples are the Go runtime metrics AddRuntime reads, in the
// order it consumes them.
var runtimeSamples = [...]string{
	"/gc/heap/live:bytes",
	"/sched/goroutines:goroutines",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/pause:cpu-seconds",
}

// AddRuntime adds the Go runtime's memory and collector state to the
// snapshot, read through runtime/metrics (which, unlike
// runtime.ReadMemStats, does not stop the world): the heap the last
// collection found live and the live goroutines as gauges, completed GC
// cycles and the cumulative time the program stood paused for them as
// counters. A metric the running Go version lacks is left out.
func (s *Snapshot) AddRuntime() {
	var samples [len(runtimeSamples)]metrics.Sample
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples[:])
	if s.Gauges == nil {
		s.Gauges = map[string]int64{}
	}
	if s.Counters == nil {
		s.Counters = map[string]int64{}
	}
	if v := samples[0].Value; v.Kind() == metrics.KindUint64 {
		s.Gauges["runtime.heap.live_bytes"] = int64(v.Uint64())
	}
	if v := samples[1].Value; v.Kind() == metrics.KindUint64 {
		s.Gauges["runtime.goroutines"] = int64(v.Uint64())
	}
	if v := samples[2].Value; v.Kind() == metrics.KindUint64 {
		s.Counters["runtime.gc.cycles"] = int64(v.Uint64())
	}
	// The runtime charges a pause as GOMAXPROCS times its wall time,
	// since nothing else runs during it.
	if v := samples[3].Value; v.Kind() == metrics.KindFloat64 {
		s.Counters["runtime.gc.pause_ns"] = int64(v.Float64() / float64(runtime.GOMAXPROCS(0)) * 1e9)
	}
}
