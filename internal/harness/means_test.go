package harness

import (
	"math"
	"math/rand"
	"testing"

	"valuespec/internal/bench"
	"valuespec/internal/core"
	"valuespec/internal/cpu"
)

// TestFig3FromResultsBitReproducible folds one set of synthetic Fig. 3
// results 60 times, two in three with the base and speculative results
// shuffled: every cell's speedup must keep identical float64 bits. The
// IPCs are irregular, so folding the per-workload speedups in another order
// changes the harmonic mean's last bits.
func TestFig3FromResultsBitReproducible(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	models := core.Presets()
	settings := []Setting{{Update: cpu.UpdateImmediate}, {Update: cpu.UpdateDelayed, Oracle: true}}
	baseSpecs, runSpecs := Fig3Specs([]cpu.Config{cpu.Config4x24(), cpu.Config8x48()}, models, settings, bench.All(), 1)
	withIPC := func(specs []Spec) []Result {
		out := make([]Result, len(specs))
		for i, s := range specs {
			out[i] = Result{Spec: s, Stats: &cpu.Stats{Cycles: 1e6 + rng.Int63n(1e6), Retired: 1e6 + rng.Int63n(3e6)}}
		}
		return out
	}
	base, runs := withIPC(baseSpecs), withIPC(runSpecs)
	want, err := Fig3FromResults(base, runs)
	if err != nil {
		t.Fatal(err)
	}
	wantBits := make(map[string]uint64, len(want))
	for _, c := range want {
		wantBits[c.Config+"|"+c.Setting+"|"+c.Model] = math.Float64bits(c.Speedup)
	}
	for fold := 0; fold < 60; fold++ {
		if fold%3 != 0 {
			rng.Shuffle(len(base), func(i, j int) { base[i], base[j] = base[j], base[i] })
			rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
		}
		cells, err := Fig3FromResults(base, runs)
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != len(want) {
			t.Fatalf("fold %d: %d cells, want %d", fold, len(cells), len(want))
		}
		for _, c := range cells {
			key := c.Config + "|" + c.Setting + "|" + c.Model
			if got := math.Float64bits(c.Speedup); got != wantBits[key] {
				t.Fatalf("fold %d: cell %s speedup %#x (%v), first fold %#x", fold, key, got, c.Speedup, wantBits[key])
			}
		}
	}
}

// TestScalingSweepBitReproducible runs ScalingSweep repeatedly on one
// configuration: the harmonic-mean base IPC and speedup must keep
// identical float64 bits. It leaves out xlisp, the longest kernel at
// scale 1, to stay quick under the race detector.
func TestScalingSweepBitReproducible(t *testing.T) {
	var ws []bench.Workload
	for _, w := range bench.All() {
		if w.Name != "xlisp" {
			ws = append(ws, w)
		}
	}
	cfgs := []cpu.Config{{IssueWidth: 2, WindowSize: 12}}
	var first ScalingPoint
	for run := 0; run < 5; run++ {
		st := ScalingSweep(core.Great(), Setting{Update: cpu.UpdateImmediate}, ws, 1, cfgs)
		runStudies(t, st)
		p := st.Out[0]
		if run == 0 {
			first = p
			continue
		}
		if math.Float64bits(p.BaseIPC) != math.Float64bits(first.BaseIPC) || math.Float64bits(p.Speedup) != math.Float64bits(first.Speedup) {
			t.Fatalf("run %d: base IPC %v, speedup %v; first run %v, %v", run, p.BaseIPC, p.Speedup, first.BaseIPC, first.Speedup)
		}
	}
}
