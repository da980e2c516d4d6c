package harness

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"valuespec/internal/bench"
	"valuespec/internal/confidence"
	"valuespec/internal/core"
	"valuespec/internal/cpu"
	"valuespec/internal/mem"
	"valuespec/internal/trace"
	"valuespec/internal/vpred"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files instead of comparing")

// TestMetricsReconcileWithStats is the acceptance check of the instrument:
// on a real workload under the Great model, every counter column of the
// interval table must sum exactly to its end-of-run Stats total, also when
// the capacity is far below the number of intervals and the retained
// boundaries were decimated.
func TestMetricsReconcileWithStats(t *testing.T) {
	w, err := bench.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	great := core.Great()
	tl := cpu.NewTelemetry(100, 16)
	res, err := Simulate(Spec{
		Workload: w, Scale: testScale, Config: cpu.Config8x48(),
		Model: &great, Setting: Setting{Update: cpu.UpdateImmediate},
		Telemetry: tl,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	rows := tl.Rows()
	if tl.Stride() < 2 || len(rows) > 16 {
		t.Fatalf("expected a decimated table: %d rows at stride %d", len(rows), tl.Stride())
	}
	if last := int64(rows[len(rows)-1][0]); last != st.Cycles {
		t.Errorf("final row cycle %d != total cycles %d (partial interval not sampled)", last, st.Cycles)
	}
	want := map[string]int64{
		cpu.SeriesCorrectUsed: st.CH, cpu.SeriesWrongUsed: st.IH,
		cpu.SeriesCorrectUnused: st.CL, cpu.SeriesWrongUnused: st.IL,
		"sim.nullified": st.Nullified, "sim.reissues": st.Reissues,
	}
	for _, c := range st.Counters() {
		want[c.Name] = c.Value
	}
	names := cpu.TelemetrySeriesNames()
	sums := make(map[string]float64, len(names))
	for _, r := range rows {
		for j, n := range names {
			sums[n] += r[j+1]
		}
	}
	checked := 0
	for _, n := range names {
		if total, ok := want[n]; ok {
			checked++
			if int64(sums[n]) != total {
				t.Errorf("counter %s: summed interval deltas %v != end-of-run total %d", n, sums[n], total)
			}
		}
	}
	if checked != len(st.Counters()) {
		t.Errorf("checked %d counter columns, want one per Stats counter (%d)", checked, len(st.Counters()))
	}
}

// TestTelemetrySnapshotGolden pins the stored telemetry of one spec whose
// run fits its series capacity, byte for byte: the JSON vserved -telemetry
// keeps with each result. Regenerate with: go test ./internal/harness -run
// TelemetrySnapshotGolden -update-golden
func TestTelemetrySnapshotGolden(t *testing.T) {
	w, err := bench.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	great := core.Great()
	tl := cpu.NewTelemetry(100, 512)
	if _, err := Simulate(Spec{
		Workload: w, Scale: 1, Config: cpu.Config8x48(),
		Model: &great, Setting: Setting{Update: cpu.UpdateImmediate},
		Telemetry: tl,
	}); err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(tl.Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "telemetry_snapshot.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("telemetry snapshot diverged from %s", golden)
	}
}

// tracedFig1 runs the Fig. 1 three-instruction chain with both predictions
// wrong under the Great model, recording a Chrome trace — a tiny fully
// deterministic run that exercises slices, invalidations, verifies and
// retires.
func tracedFig1(t *testing.T) *cpu.TraceRecorder {
	t.Helper()
	recs := Fig1Chain()
	opts := &cpu.SpecOptions{
		Enabled: true,
		Model:   core.Great(),
		Predictor: &vpred.Scripted{Preds: map[int]int64{
			0: recs[0].DstVal + 100, 1: recs[1].DstVal + 100,
		}},
		Confidence: &confidence.Scripted{PCs: map[int]bool{0: true, 1: true}},
	}
	cfg := cpu.Config4x24().Normalize()
	cfg.Mem = mem.HierarchyConfig{
		L1I: cfg.Mem.L1I, L1D: cfg.Mem.L1D, L2: cfg.Mem.L2,
		L1IHitLat: 1, L1DHitLat: 1, L2HitLat: 1, MemLat: 1,
	}
	p, err := cpu.New(cfg, opts, &trace.SliceSource{Records: recs})
	if err != nil {
		t.Fatal(err)
	}
	rec := cpu.NewTraceRecorder()
	p.SetObserver(rec)
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestChromeTraceGolden pins the exact trace JSON of the Fig. 1 mispredict
// scenario. Regenerate with: go test ./internal/harness -run ChromeTrace -update-golden
func TestChromeTraceGolden(t *testing.T) {
	rec := tracedFig1(t)
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "fig1_trace.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace JSON diverged from %s (regenerate with -update-golden if intended)\ngot:\n%s", golden, buf.String())
	}

	// Structural validation: the golden must be a loadable Chrome trace.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	slices, instants := 0, 0
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			slices++
			if ev["dur"].(float64) < 1 {
				t.Errorf("slice with sub-cycle duration: %v", ev)
			}
		case "i":
			instants++
		case "M":
		default:
			t.Errorf("unexpected phase %v", ev["ph"])
		}
	}
	if slices != 3 {
		t.Errorf("got %d lifetime slices, want 3 (one per instruction)", slices)
	}
	if instants == 0 {
		t.Error("mispredicted run produced no instant events (invalidate/verify expected)")
	}
}

// TestTimelineReportsTruncation checks that a diagram over a bounded
// observer that dropped events says so, and that a complete one does not.
func TestTimelineReportsTruncation(t *testing.T) {
	run := func(o cpu.Observer) {
		t.Helper()
		recs := Fig1Chain()
		cfg := cpu.Config4x24()
		p, err := cpu.New(cfg, nil, &trace.SliceSource{Records: recs})
		if err != nil {
			t.Fatal(err)
		}
		p.SetObserver(o)
		if _, err := p.Run(); err != nil {
			t.Fatal(err)
		}
	}
	ring := cpu.NewRingLog(4) // far fewer than the run's events
	run(ring)
	if ring.Dropped() == 0 {
		t.Fatal("test premise broken: ring did not drop events")
	}
	if out := Timeline(ring, 0); !strings.Contains(out, "truncated") {
		t.Errorf("Timeline over a lossy observer must report truncation:\n%s", out)
	}
	full := &cpu.EventLog{}
	run(full)
	if out := Timeline(full, 0); strings.Contains(out, "truncated") {
		t.Errorf("Timeline over a complete log must not claim truncation:\n%s", out)
	}
}

// TestSimulatePhases checks the wall-time phase breakdown plumbing.
func TestSimulatePhases(t *testing.T) {
	w, err := bench.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(Spec{Workload: w, Scale: testScale, Config: cpu.Config4x24(), Phases: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 7 {
		t.Fatalf("got %d phases, want 7: %+v", len(res.Phases), res.Phases)
	}
	var frac, secs float64
	for _, p := range res.Phases {
		frac += p.Frac
		secs += p.Total.Seconds()
	}
	if secs <= 0 {
		t.Error("phase totals sum to zero wall time")
	}
	if frac < 0.999 || frac > 1.001 {
		t.Errorf("phase fractions sum to %v, want 1", frac)
	}
}
