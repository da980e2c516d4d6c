package harness

import (
	"context"
	"strings"
	"testing"

	"valuespec/internal/bench"
	"valuespec/internal/core"
	"valuespec/internal/cpu"
)

// testScale keeps the suite fast: a few thousand dynamic instructions per
// workload.
const testScale = 2

func testWorkloads(t *testing.T) []bench.Workload {
	t.Helper()
	w1, err := bench.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	w2, err := bench.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	return []bench.Workload{w1, w2}
}

// runStudies simulates the studies as one batch, failing the test on error.
func runStudies(t testing.TB, studies ...AnyStudy) {
	t.Helper()
	if _, err := Run(context.Background(), SimulateAllCtx, studies...); err != nil {
		t.Fatal(err)
	}
}

func TestSettingStrings(t *testing.T) {
	want := []string{"D/R", "I/R", "D/O", "I/O"}
	for i, s := range PaperSettings() {
		if s.String() != want[i] {
			t.Errorf("setting %d = %s, want %s", i, s, want[i])
		}
	}
}

func TestConfigName(t *testing.T) {
	if got := ConfigName(cpu.Config8x48()); got != "8/48" {
		t.Errorf("ConfigName = %q", got)
	}
}

func TestSimulateBaseAndModel(t *testing.T) {
	w := testWorkloads(t)[0]
	base, err := Simulate(Spec{Workload: w, Scale: testScale, Config: cpu.Config4x24()})
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.Predictions != 0 {
		t.Error("base run made predictions")
	}
	great := core.Great()
	spec, err := Simulate(Spec{
		Workload: w, Scale: testScale, Config: cpu.Config4x24(),
		Model: &great, Setting: Setting{Update: cpu.UpdateImmediate},
	})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Stats.Predictions == 0 {
		t.Error("speculative run made no predictions")
	}
	if base.Stats.Retired != spec.Stats.Retired {
		t.Errorf("retired %d vs %d; both runs execute the same stream",
			base.Stats.Retired, spec.Stats.Retired)
	}
}

func TestSimulateAllPreservesOrder(t *testing.T) {
	ws := testWorkloads(t)
	var specs []Spec
	for _, w := range ws {
		specs = append(specs, Spec{Workload: w, Scale: testScale, Config: cpu.Config4x24()})
	}
	results, err := SimulateAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Spec.Workload.Name != ws[i].Name {
			t.Errorf("result %d is %s, want %s", i, r.Spec.Workload.Name, ws[i].Name)
		}
	}
}

func TestTable1(t *testing.T) {
	rows, err := Table1(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if r.DynamicInstr <= 0 {
			t.Errorf("%s: dynamic count %d", r.Benchmark, r.DynamicInstr)
		}
		if r.PredictedFrac < 0.4 || r.PredictedFrac > 0.95 {
			t.Errorf("%s: predicted fraction %.2f implausible", r.Benchmark, r.PredictedFrac)
		}
	}
}

func TestFig3SmallSweep(t *testing.T) {
	ws := testWorkloads(t)
	st := Fig3(
		[]cpu.Config{cpu.Config4x24()},
		core.Presets(),
		[]Setting{{Update: cpu.UpdateImmediate}, {Update: cpu.UpdateImmediate, Oracle: true}},
		ws, testScale)
	runStudies(t, st)
	cells := st.Out
	if len(cells) != 6 { // 1 config x 2 settings x 3 models
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	for _, c := range cells {
		if c.Speedup <= 0 {
			t.Errorf("%s %s %s: speedup %g", c.Config, c.Setting, c.Model, c.Speedup)
		}
		if len(c.PerWkld) != len(ws) {
			t.Errorf("cell covers %d workloads, want %d", len(c.PerWkld), len(ws))
		}
	}
	// Oracle confidence must not lose to real confidence for any model.
	byKey := map[string]float64{}
	for _, c := range cells {
		byKey[c.Setting+"|"+c.Model] = c.Speedup
	}
	for _, m := range []string{"super", "great", "good"} {
		if byKey["I/O|"+m] < byKey["I/R|"+m]-0.02 {
			t.Errorf("model %s: oracle %.3f worse than real %.3f",
				m, byKey["I/O|"+m], byKey["I/R|"+m])
		}
	}
}

func TestFig4SmallSweep(t *testing.T) {
	st := Fig4([]cpu.Config{cpu.Config4x24()}, testWorkloads(t), testScale)
	runStudies(t, st)
	cells := st.Out
	if len(cells) != 2 { // 1 config x {D, I}
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	for _, c := range cells {
		total := c.CH + c.CL + c.IH + c.IL
		if total < 0.999 || total > 1.001 {
			t.Errorf("%s %s: breakdown sums to %g", c.Update, c.Config, total)
		}
	}
}

func TestFig1ScenarioCycleCounts(t *testing.T) {
	// The same pins as the cpu package's Fig. 1 test, via the public
	// harness path.
	base, stBase, err := Fig1Scenario(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if stBase.Cycles != 6 {
		t.Errorf("base = %d cycles, want 6", stBase.Cycles)
	}
	if len(base.Events) == 0 {
		t.Error("no events observed")
	}
	super := core.Super()
	_, stSuper, err := Fig1Scenario(&super, false)
	if err != nil {
		t.Fatal(err)
	}
	if stSuper.Cycles != 4 {
		t.Errorf("super correct = %d cycles, want 4", stSuper.Cycles)
	}
	good := core.Good()
	_, stGood, err := Fig1Scenario(&good, true)
	if err != nil {
		t.Fatal(err)
	}
	if stGood.Cycles != 8 {
		t.Errorf("good mispredict = %d cycles, want 8", stGood.Cycles)
	}
}

func TestFig1Diagram(t *testing.T) {
	log, _, err := Fig1Scenario(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	out := Fig1Diagram(log)
	for _, want := range []string{"cycle", "instr 1", "instr 3", "D", "I", "W", "R"} {
		if !strings.Contains(out, want) {
			t.Errorf("diagram missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("diagram has %d lines, want 4 (header + 3 instructions)", len(lines))
	}
}

func TestLatencySensitivitySmall(t *testing.T) {
	st := LatencySensitivity(cpu.Config4x24(), core.Great(),
		Setting{Update: cpu.UpdateImmediate}, testWorkloads(t), testScale, 1)
	runStudies(t, st)
	points := st.Out
	// Six variables, each with (min..1) points: 0..1 for five of them, 1
	// for the resource-release variable.
	wantPoints := 5*2 + 1
	if len(points) != wantPoints {
		t.Fatalf("got %d points, want %d", len(points), wantPoints)
	}
	names := map[string]bool{}
	for _, p := range points {
		if p.Speedup <= 0 {
			t.Errorf("%s=%d: speedup %g", p.Variable, p.Value, p.Speedup)
		}
		names[p.Variable] = true
	}
	if len(names) != 6 {
		t.Errorf("swept %d variables, want 6", len(names))
	}
}

func TestAblationsSmall(t *testing.T) {
	ws := testWorkloads(t)
	set := Setting{Update: cpu.UpdateImmediate}
	cfg := cpu.Config4x24()
	great := core.Great()

	ver := VerificationAblation(cfg, great, set, ws, testScale)
	inv := InvalidationAblation(cfg, great, set, ws, testScale, true)
	res := ResolutionAblation(cfg, great, set, ws, testScale)
	fwd := ForwardingAblation(cfg, great, set, ws, testScale)
	pred := PredictorAblation(cfg, great, set, ws, testScale)
	conf := ConfidenceSweep(cfg, great, set, ws, testScale, 2)
	runStudies(t, ver, inv, res, fwd, pred, conf)
	for _, c := range []struct {
		name       string
		rows, want int
	}{
		{"verification", len(ver.Out), 4}, {"invalidation", len(inv.Out), 3},
		{"resolution", len(res.Out), 4}, {"forwarding", len(fwd.Out), 2},
		{"predictors", len(pred.Out), 4}, {"confidence", len(conf.Out), 2},
	} {
		if c.rows != c.want {
			t.Errorf("%s: %d rows, want %d", c.name, c.rows, c.want)
		}
	}
	for _, rows := range [][]SchemeResult{ver.Out, inv.Out, res.Out, fwd.Out, pred.Out} {
		for _, r := range rows {
			if r.Speedup <= 0 {
				t.Errorf("%s: speedup %g", r.Scheme, r.Speedup)
			}
		}
	}
}

func TestLatencyVariableNames(t *testing.T) {
	names := LatencyVariableNames()
	if len(names) != 6 {
		t.Errorf("got %d variables", len(names))
	}
}

func TestScalingSweepSmall(t *testing.T) {
	st := ScalingSweep(core.Great(), Setting{Update: cpu.UpdateImmediate},
		testWorkloads(t), testScale,
		[]cpu.Config{cpu.Config4x24(), cpu.Config8x48()})
	runStudies(t, st)
	points := st.Out
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	for _, p := range points {
		if p.BaseIPC <= 0 || p.Speedup <= 0 {
			t.Errorf("%s: IPC %.2f speedup %.2f", p.Config, p.BaseIPC, p.Speedup)
		}
	}
	if points[1].BaseIPC <= points[0].BaseIPC {
		t.Errorf("wider config not faster: %.2f vs %.2f", points[1].BaseIPC, points[0].BaseIPC)
	}
}

func TestTimelineCapsInstructions(t *testing.T) {
	log, _, err := Fig1Scenario(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	out := Timeline(log, 2)
	if strings.Contains(out, "instr 3") {
		t.Error("Timeline(2) included instruction 3")
	}
	if !strings.Contains(out, "instr 2") {
		t.Error("Timeline(2) missing instruction 2")
	}
}

// TestFig1DiagramGolden pins the exact rendered diagrams for the base
// machine and the Super mispredict scenario — the event-level narrative of
// the paper's Fig. 1.
func TestFig1DiagramGolden(t *testing.T) {
	logBase, _, err := Fig1Scenario(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	wantBase := "" +
		"cycle     0  1  2  3  4  5\n" +
		"instr 1   D  I  W  R  .  .\n" +
		"instr 2   D  .  I  W  R  .\n" +
		"instr 3   D  .  .  I  W  R\n"
	if got := Fig1Diagram(logBase); got != wantBase {
		t.Errorf("base diagram:\n%s\nwant:\n%s", got, wantBase)
	}

	super := core.Super()
	logSuper, _, err := Fig1Scenario(&super, true)
	if err != nil {
		t.Fatal(err)
	}
	wantSuper := "" +
		"cycle      0   1   2   3   4   5\n" +
		"instr 1    D   I   W   R   .   .\n" +
		"instr 2    D   I WXI   W   R   .\n" +
		"instr 3    D   I  WX   I   W   R\n"
	if got := Fig1Diagram(logSuper); got != wantSuper {
		t.Errorf("super mispredict diagram:\n%s\nwant:\n%s", got, wantSuper)
	}
}

func TestPredictorGeometrySweepSmall(t *testing.T) {
	st := PredictorGeometrySweep(cpu.Config4x24(), core.Great(),
		Setting{Update: cpu.UpdateImmediate}, testWorkloads(t), testScale, []uint{6, 10})
	runStudies(t, st)
	points := st.Out
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	for _, p := range points {
		if p.Speedup <= 0 || p.Accuracy < 0 || p.Accuracy > 1 {
			t.Errorf("bits=%d: speedup %.3f accuracy %.3f", p.TableBits, p.Speedup, p.Accuracy)
		}
	}
}

func TestScopeAblationSmall(t *testing.T) {
	st := ScopeAblation(cpu.Config4x24(), core.Great(),
		Setting{Update: cpu.UpdateImmediate}, testWorkloads(t), testScale)
	runStudies(t, st)
	rows := st.Out
	if len(rows) != 3 {
		t.Fatalf("scope: %d rows", len(rows))
	}
	// Predicting everything should not lose to loads-only.
	if rows[0].Speedup < rows[1].Speedup-0.02 {
		t.Errorf("all-writers %.3f worse than loads-only %.3f", rows[0].Speedup, rows[1].Speedup)
	}
}

func TestBranchQualityAblationSmall(t *testing.T) {
	st := BranchQualityAblation(cpu.Config4x24(), core.Great(),
		Setting{Update: cpu.UpdateImmediate}, testWorkloads(t), testScale)
	runStudies(t, st)
	rows := st.Out
	if len(rows) != 2 {
		t.Fatalf("branchq: %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Speedup <= 0 {
			t.Errorf("%s: %.3f", r.Scheme, r.Speedup)
		}
	}
}

// TestCheckLawsRejectsBrokenStats shows each conservation law rejecting a
// hand-built Stats that breaks it.
func TestCheckLawsRejectsBrokenStats(t *testing.T) {
	good := cpu.Stats{Retired: 10, Dispatched: 12, CompleteSquashes: 2, Predictions: 6, CH: 3, CL: 1, IH: 1, IL: 1}
	if err := checkLaws(&good, 10); err != nil {
		t.Fatalf("consistent stats rejected: %v", err)
	}
	for _, c := range []struct {
		law     string
		records int64
		breakIt func(*cpu.Stats)
	}{
		{"law 1", 11, func(*cpu.Stats) {}},
		{"law 4", 10, func(s *cpu.Stats) { s.IL++ }},
		{"law 5", 10, func(s *cpu.Stats) { s.Dispatched-- }},
	} {
		st := good
		c.breakIt(&st)
		if err := checkLaws(&st, c.records); err == nil || !strings.Contains(err.Error(), c.law) {
			t.Errorf("%s: got %v", c.law, err)
		}
	}
}
