// Benchmarks regenerating the paper's tables and figures. Each benchmark
// corresponds to one table or figure of the evaluation (see DESIGN.md's
// experiment index) and reports the paper's metric via b.ReportMetric:
//
//	BenchmarkFig1PipelineExample  cycles per scenario (Fig. 1)
//	BenchmarkTable1               dynamic counts and predicted fraction
//	BenchmarkFig3ModelSpeedup     harmonic-mean speedup per model cell
//	BenchmarkFig4Accuracy         CH/CL/IH/IL breakdown
//	BenchmarkAblation*            the design-space studies of Section 3
//
// Benchmarks run the suite at 1/4 of the default workload scale so the whole
// -bench=. pass stays laptop-friendly; cmd/vsweep runs full scale.
package valuespec_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"valuespec"
	"valuespec/internal/bench"
	"valuespec/internal/bpred"
	"valuespec/internal/core"
	"valuespec/internal/cpu"
	"valuespec/internal/harness"
	"valuespec/internal/mem"
)

// metricName sanitizes a label for b.ReportMetric (no whitespace allowed).
func metricName(format string, args ...interface{}) string {
	return strings.ReplaceAll(fmt.Sprintf(format, args...), " ", "_")
}

// runStudy simulates one study, failing the benchmark on error.
func runStudy(b *testing.B, st harness.AnyStudy) {
	b.Helper()
	if _, err := harness.Run(context.Background(), harness.SimulateAllCtx, st); err != nil {
		b.Fatal(err)
	}
}

// benchWorkloads returns the suite scaled down for benchmarking.
func benchWorkloads(div int) []bench.Workload {
	ws := bench.All()
	for i := range ws {
		ws[i].DefaultScale = max(1, ws[i].DefaultScale/div)
	}
	return ws
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// BenchmarkFig1PipelineExample reproduces Fig. 1: the cycle counts of the
// three-instruction dependence chain under every model and prediction
// outcome.
func BenchmarkFig1PipelineExample(b *testing.B) {
	scenarios := []struct {
		name       string
		model      *core.Model
		mispredict bool
	}{
		{"base", nil, false},
	}
	for _, m := range core.Presets() {
		m := m
		scenarios = append(scenarios,
			struct {
				name       string
				model      *core.Model
				mispredict bool
			}{m.Name + "/correct", &m, false},
			struct {
				name       string
				model      *core.Model
				mispredict bool
			}{m.Name + "/mispredict", &m, true},
		)
	}
	for _, sc := range scenarios {
		b.Run(sc.name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				_, st, err := harness.Fig1Scenario(sc.model, sc.mispredict)
				if err != nil {
					b.Fatal(err)
				}
				cycles = st.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkTable1 reproduces Table 1: dynamic instruction counts and the
// fraction of value-predicted (register-writing) instructions.
func BenchmarkTable1(b *testing.B) {
	for _, w := range benchWorkloads(4) {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var c bench.Characteristics
			var err error
			for i := 0; i < b.N; i++ {
				c, err = bench.Characterize(w, w.DefaultScale)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.DynamicInstr), "instrs")
			b.ReportMetric(100*c.PredictedFrac, "predicted%")
		})
	}
}

// BenchmarkFig3ModelSpeedup reproduces Fig. 3: the harmonic-mean speedup of
// the Super, Great and Good models for each configuration and setting.
func BenchmarkFig3ModelSpeedup(b *testing.B) {
	ws := benchWorkloads(4)
	for _, cfg := range cpu.PaperConfigs() {
		cfg := cfg
		b.Run(harness.ConfigName(cfg), func(b *testing.B) {
			st := harness.Fig3([]cpu.Config{cfg}, core.Presets(), harness.PaperSettings(), ws, 0)
			for i := 0; i < b.N; i++ {
				runStudy(b, st)
			}
			for _, c := range st.Out {
				b.ReportMetric(c.Speedup, fmt.Sprintf("speedup[%s,%s]", c.Setting, c.Model))
			}
		})
	}
}

// BenchmarkFig4Accuracy reproduces Fig. 4: the prediction-accuracy breakdown
// of the Great model with real confidence.
func BenchmarkFig4Accuracy(b *testing.B) {
	ws := benchWorkloads(4)
	for _, cfg := range cpu.PaperConfigs() {
		cfg := cfg
		b.Run(harness.ConfigName(cfg), func(b *testing.B) {
			st := harness.Fig4([]cpu.Config{cfg}, ws, 0)
			for i := 0; i < b.N; i++ {
				runStudy(b, st)
			}
			for _, c := range st.Out {
				b.ReportMetric(100*(c.CH+c.CL), fmt.Sprintf("correct%%[%s]", c.Update))
				b.ReportMetric(100*c.IH, fmt.Sprintf("IH%%[%s]", c.Update))
			}
		})
	}
}

// BenchmarkAblationLatency sweeps each latency variable of the Great model —
// the sensitivity study the paper's model exists to enable.
func BenchmarkAblationLatency(b *testing.B) {
	ws := benchWorkloads(8)
	set := harness.Setting{Update: cpu.UpdateImmediate}
	st := harness.LatencySensitivity(cpu.Config8x48(), core.Great(), set, ws, 0, 2)
	for i := 0; i < b.N; i++ {
		runStudy(b, st)
	}
	for _, p := range st.Out {
		b.ReportMetric(p.Speedup, fmt.Sprintf("speedup[%s=%d]", p.Variable, p.Value))
	}
}

// BenchmarkAblationVerification compares the four verification schemes of
// Section 3.2.
func BenchmarkAblationVerification(b *testing.B) {
	ws := benchWorkloads(8)
	set := harness.Setting{Update: cpu.UpdateImmediate}
	st := harness.VerificationAblation(cpu.Config8x48(), core.Great(), set, ws, 0)
	for i := 0; i < b.N; i++ {
		runStudy(b, st)
	}
	for _, r := range st.Out {
		b.ReportMetric(r.Speedup, metricName("speedup[%s]", r.Scheme))
	}
}

// BenchmarkAblationInvalidation compares selective-parallel, selective-
// hierarchical and complete invalidation (Section 3.1), with always-
// speculate confidence so misspeculations actually occur.
func BenchmarkAblationInvalidation(b *testing.B) {
	ws := benchWorkloads(8)
	set := harness.Setting{Update: cpu.UpdateImmediate}
	st := harness.InvalidationAblation(cpu.Config8x48(), core.Great(), set, ws, 0, true)
	for i := 0; i < b.N; i++ {
		runStudy(b, st)
	}
	for _, r := range st.Out {
		b.ReportMetric(r.Speedup, metricName("speedup[%s]", r.Scheme))
	}
}

// BenchmarkAblationResolution compares valid-only and speculative branch and
// memory resolution (Section 3.2).
func BenchmarkAblationResolution(b *testing.B) {
	ws := benchWorkloads(8)
	set := harness.Setting{Update: cpu.UpdateImmediate}
	st := harness.ResolutionAblation(cpu.Config8x48(), core.Great(), set, ws, 0)
	for i := 0; i < b.N; i++ {
		runStudy(b, st)
	}
	for _, r := range st.Out {
		b.ReportMetric(r.Speedup, metricName("speedup[%s]", r.Scheme))
	}
}

// BenchmarkAblationForwarding compares forwarding speculative values against
// holding them back (Section 2.2).
func BenchmarkAblationForwarding(b *testing.B) {
	ws := benchWorkloads(8)
	set := harness.Setting{Update: cpu.UpdateImmediate}
	st := harness.ForwardingAblation(cpu.Config8x48(), core.Great(), set, ws, 0)
	for i := 0; i < b.N; i++ {
		runStudy(b, st)
	}
	for _, r := range st.Out {
		b.ReportMetric(r.Speedup, metricName("speedup[%s]", r.Scheme))
	}
}

// BenchmarkAblationPredictors races the paper's FCM against last-value and
// stride prediction.
func BenchmarkAblationPredictors(b *testing.B) {
	ws := benchWorkloads(8)
	set := harness.Setting{Update: cpu.UpdateImmediate}
	st := harness.PredictorAblation(cpu.Config8x48(), core.Great(), set, ws, 0)
	for i := 0; i < b.N; i++ {
		runStudy(b, st)
	}
	for _, r := range st.Out {
		b.ReportMetric(r.Speedup, metricName("speedup[%s]", r.Scheme))
	}
}

// BenchmarkAblationConfidence sweeps the resetting-counter width (Section
// 3.6).
func BenchmarkAblationConfidence(b *testing.B) {
	ws := benchWorkloads(8)
	set := harness.Setting{Update: cpu.UpdateImmediate}
	st := harness.ConfidenceSweep(cpu.Config8x48(), core.Great(), set, ws, 0, 4)
	for i := 0; i < b.N; i++ {
		runStudy(b, st)
	}
	for _, p := range st.Out {
		b.ReportMetric(p.Speedup, fmt.Sprintf("speedup[%dbit]", p.CounterBits))
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed in simulated
// instructions per second for the base machine and the Great model.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, err := valuespec.WorkloadByName("m88ksim")
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, model *valuespec.Model) {
		var retired int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := valuespec.Simulate(valuespec.Spec{
				Workload: w, Scale: 100, Config: valuespec.Config8x48(),
				Model:   model,
				Setting: valuespec.Setting{Update: valuespec.UpdateImmediate},
			})
			if err != nil {
				b.Fatal(err)
			}
			retired += res.Stats.Retired
		}
		b.ReportMetric(float64(retired)/b.Elapsed().Seconds(), "instrs/s")
	}
	b.Run("base", func(b *testing.B) { run(b, nil) })
	great := valuespec.Great()
	b.Run("great", func(b *testing.B) { run(b, &great) })
}

// BenchmarkEmulator measures the functional emulator alone.
func BenchmarkEmulator(b *testing.B) {
	w, err := valuespec.WorkloadByName("compress")
	if err != nil {
		b.Fatal(err)
	}
	prog := w.Build(10)
	b.ResetTimer()
	var n int64
	for i := 0; i < b.N; i++ {
		m, err := valuespec.NewMachine(prog)
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, ok := m.Next(); !ok {
				break
			}
			n++
		}
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkAblationScaling extends Fig. 3 into a finer width/window ladder.
func BenchmarkAblationScaling(b *testing.B) {
	ws := benchWorkloads(8)
	set := harness.Setting{Update: cpu.UpdateImmediate}
	st := harness.ScalingSweep(core.Great(), set, ws, 0, harness.DefaultScalingConfigs())
	for i := 0; i < b.N; i++ {
		runStudy(b, st)
	}
	for _, p := range st.Out {
		b.ReportMetric(p.Speedup, metricName("speedup[%s]", p.Config))
	}
}

// BenchmarkPredictorMicro measures raw predictor lookup+train throughput.
func BenchmarkPredictorMicro(b *testing.B) {
	predictors := []struct {
		name string
		p    valuespec.Predictor
	}{
		{"fcm", valuespec.NewFCM(valuespec.DefaultFCMConfig())},
		{"last-value", valuespec.NewLastValuePredictor(16)},
		{"stride", valuespec.NewStridePredictor(16)},
		{"hybrid", valuespec.NewHybridPredictor(16, valuespec.DefaultFCMConfig())},
	}
	for _, pr := range predictors {
		b.Run(pr.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pc := i & 0x3FF
				_, ck := pr.p.Lookup(pc)
				pr.p.TrainImmediate(pc, ck, int64(i%97))
			}
		})
	}
}

// BenchmarkGshareMicro measures branch-predictor throughput.
func BenchmarkGshareMicro(b *testing.B) {
	g := bpred.Default()
	for i := 0; i < b.N; i++ {
		g.PredictAndUpdate(i&0xFFF, i%3 != 0)
	}
}

// BenchmarkCacheMicro measures cache-access throughput.
func BenchmarkCacheMicro(b *testing.B) {
	h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
	for i := 0; i < b.N; i++ {
		h.Data(uint64(i%100000) * 8)
	}
}

// BenchmarkMicroKernels measures the dataflow-limit demonstration: oracle
// value speculation on a pure dependence chain versus independent work.
func BenchmarkMicroKernels(b *testing.B) {
	kernels := []struct {
		name string
		prog *valuespec.Program
	}{
		{"chain", valuespec.ChainMicro(2000, 12)},
		{"parallel", valuespec.ParallelMicro(2000, 12)},
		{"chase", valuespec.PointerChaseMicro(2000, 64)},
	}
	for _, k := range kernels {
		for _, speculate := range []bool{false, true} {
			name := k.name + "/base"
			if speculate {
				name = k.name + "/oracle"
			}
			b.Run(name, func(b *testing.B) {
				var ipc float64
				for i := 0; i < b.N; i++ {
					m, err := valuespec.NewMachine(k.prog)
					if err != nil {
						b.Fatal(err)
					}
					var opts *valuespec.SpecOptions
					if speculate {
						opts = &valuespec.SpecOptions{
							Enabled:    true,
							Model:      valuespec.Great(),
							Confidence: valuespec.OracleConfidence(),
						}
					}
					p, err := valuespec.NewPipeline(valuespec.Config8x48(), opts, m)
					if err != nil {
						b.Fatal(err)
					}
					st, err := p.Run()
					if err != nil {
						b.Fatal(err)
					}
					ipc = st.IPC()
				}
				b.ReportMetric(ipc, "IPC")
			})
		}
	}
}
