package driver

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"branchreg/internal/emu"
	"branchreg/internal/isa"
	"branchreg/internal/workloads"
)

// Profiling differential: attaching a BlockProfile must be invisible to
// the program — byte-identical output and identical Stats across the full
// workload suite on both machines — must run on the instrumented loop
// whatever the LoopMode, and must produce flow counts that conserve
// (per-instruction counts sum to Stats.Instructions).

func TestProfiledRunsMatchUnprofiled(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite differential is not short")
	}
	o := DefaultOptions()
	for _, w := range workloads.All() {
		for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
			w, kind := w, kind
			t.Run(fmt.Sprintf("%s/%v", w.Name, kind), func(t *testing.T) {
				t.Parallel()
				p, err := Compile(context.Background(), w.FullSource(), kind, o)
				if err != nil {
					t.Fatal(err)
				}
				plain, err := Exec(context.Background(), Request{Program: p, Input: w.Input})
				if err != nil {
					t.Fatal(err)
				}
				prof := emu.NewBlockProfile(len(p.Text))
				profiled, err := Exec(context.Background(), Request{Program: p, Input: w.Input, Profile: prof})
				if err != nil {
					t.Fatal(err)
				}
				if profiled.Output != plain.Output || profiled.Status != plain.Status || profiled.Stats != plain.Stats {
					t.Fatalf("profiling changed the run:\n plain:    %+v\n profiled: %+v", plain, profiled)
				}
				if profiled.Engine != emu.EngineInstrumented {
					t.Fatalf("profiled run did not take the instrumented loop: engine %q", profiled.Engine)
				}
				var sum, taken, notTaken, penalty int64
				for _, c := range prof.Counts() {
					sum += c
				}
				if sum != profiled.Stats.Instructions {
					t.Fatalf("flow conservation broken: counts sum to %d, Stats.Instructions = %d",
						sum, profiled.Stats.Instructions)
				}
				for i := range prof.Taken {
					taken += prof.Taken[i]
					notTaken += prof.NotTaken[i]
					penalty += prof.Penalty[i]
				}
				st := &profiled.Stats
				if kind == isa.Baseline {
					want := st.UncondJumps + st.CondBranches + st.Calls + st.Returns
					if taken+notTaken != want {
						t.Fatalf("branch tallies %d+%d != executed transfers %d", taken, notTaken, want)
					}
					if penalty != 0 {
						t.Fatalf("baseline run accumulated BRM penalty %d", penalty)
					}
				} else {
					if taken != st.PrefetchHit+st.PrefetchMiss {
						t.Fatalf("taken tallies %d != taken transfers %d", taken, st.PrefetchHit+st.PrefetchMiss)
					}
					if notTaken != st.CondBranches-st.CondTaken {
						t.Fatalf("not-taken tallies %d != untaken conditionals %d",
							notTaken, st.CondBranches-st.CondTaken)
					}
					var wantPenalty int64
					for d := 0; d < emu.MinPrefetchDist; d++ {
						wantPenalty += int64(emu.MinPrefetchDist-d) * st.DistHist[d]
					}
					if penalty != wantPenalty {
						t.Fatalf("penalty %d != Figure 9 penalty %d", penalty, wantPenalty)
					}
				}
			})
		}
	}
}

// blockProfileGolden is one SHA-256 over the five BlockProfile arrays of
// every suite workload on both machines, as TestBlockProfilesPinned
// computes it. Flow counts are a function of the program and its input
// alone, so no engine change may move it.
const blockProfileGolden = "e2f19f683ae5fcf381bed6e06775e540af30395dfb8d3da67fb58442fcee0735"

// TestBlockProfilesPinned pins the profiles the hot-block tables and
// cmd/fusepairs are built from: a profiled default request over the 19
// suite workloads on both machines must fill exactly the arrays it
// filled when the constant was generated.
func TestBlockProfilesPinned(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full-suite profile digest is slow under -short and -race")
	}
	ctx := context.Background()
	o := DefaultOptions()
	h := sha256.New()
	var word [8]byte
	for _, w := range workloads.All() {
		for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
			p, err := Compile(ctx, w.FullSource(), kind, o)
			if err != nil {
				t.Fatal(err)
			}
			prof := emu.NewBlockProfile(len(p.Text))
			if _, err := Exec(ctx, Request{Program: p, Input: w.Input, Profile: prof}); err != nil {
				t.Fatalf("%s/%v: %v", w.Name, kind, err)
			}
			for _, arr := range [][]int64{prof.Arrive, prof.Depart, prof.Taken, prof.NotTaken, prof.Penalty} {
				for _, v := range arr {
					binary.LittleEndian.PutUint64(word[:], uint64(v))
					h.Write(word[:])
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != blockProfileGolden {
		t.Errorf("combined block-profile digest is %s, golden %s", got, blockProfileGolden)
	}
}

func TestProfileEnginesAgree(t *testing.T) {
	// Every LoopMode sends a profiled request to the instrumented loop —
	// the adaptive one even for a program that already has its fused
	// form — so each must report EngineInstrumented, no refusion, and
	// fill the profile a LoopInstrumented request fills.
	o := DefaultOptions()
	ctx := context.Background()
	names := []string{"sieve", "puzzle", "sort"}
	for _, name := range names {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
			p, err := Compile(ctx, w.FullSource(), kind, o)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				res, err := Exec(ctx, Request{Program: p, Input: w.Input, Loop: emu.LoopAdaptive})
				if err != nil {
					t.Fatal(err)
				}
				if i == 1 && !res.Refusion.Promoted {
					t.Fatalf("%s/%v: program did not enter its fused form", name, kind)
				}
			}
			instProf := emu.NewBlockProfile(len(p.Text))
			if _, err := Exec(ctx, Request{Program: p, Input: w.Input,
				Loop: emu.LoopInstrumented, Profile: instProf}); err != nil {
				t.Fatal(err)
			}
			for _, loop := range []emu.LoopMode{emu.LoopAuto, emu.LoopFast, emu.LoopFused, emu.LoopAdaptive} {
				prof := emu.NewBlockProfile(len(p.Text))
				res, err := Exec(ctx, Request{Program: p, Input: w.Input, Loop: loop, Profile: prof})
				if err != nil {
					t.Fatal(err)
				}
				if res.Engine != emu.EngineInstrumented || res.Refusion != (emu.RefusionStats{}) {
					t.Fatalf("%s/%v loop %d: profiled run took engine %q (refusion %+v), want the instrumented loop",
						name, kind, loop, res.Engine, res.Refusion)
				}
				if !reflect.DeepEqual(prof, instProf) {
					t.Fatalf("%s/%v loop %d: engines disagree on the profile", name, kind, loop)
				}
			}
		}
	}
}

func TestEngineRecordedOnAutoFallback(t *testing.T) {
	// Satellite fix: LoopAuto falls back to the instrumented loop when
	// hooks or faults are present — the run must say so.
	w, ok := workloads.ByName("sieve")
	if !ok {
		t.Fatal("no workload sieve")
	}
	p, err := Compile(context.Background(), w.FullSource(), isa.Baseline, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	auto, err := Exec(context.Background(), Request{Program: p, Input: w.Input})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Engine != emu.EngineFused {
		t.Fatalf("plain auto run: engine %q, want %q", auto.Engine, emu.EngineFused)
	}

	m, err := emu.New(p, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	m.Hooks.Fetch = func(addr int32) {}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Engine() != emu.EngineInstrumented {
		t.Fatalf("hooked auto run: engine %q, want %q", m.Engine(), emu.EngineInstrumented)
	}
}
