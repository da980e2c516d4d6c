package cpu

import (
	"math/rand"
	"strings"
	"testing"

	"valuespec/internal/confidence"
	"valuespec/internal/core"
	"valuespec/internal/emu"
	"valuespec/internal/trace"
	"valuespec/internal/vpred"
)

// telemetryRecs builds a realistic record stream (same generator as the
// wakeup benchmarks) long enough to exercise predictions, invalidations and
// several sampling intervals.
func telemetryRecs(t *testing.T, n int) []trace.Record {
	t.Helper()
	r := rand.New(rand.NewSource(99))
	var recs []trace.Record
	for len(recs) < n {
		prog := genProgram(r)
		m, err := emu.New(prog, emu.WithBudget(int64(n-len(recs))))
		if err != nil {
			t.Fatal(err)
		}
		got := trace.Collect(m, 0)
		for i := range got {
			got[i].Seq = int64(len(recs) + i)
		}
		recs = append(recs, got...)
	}
	return recs
}

func telemetrySpec() *SpecOptions {
	return &SpecOptions{
		Enabled:    true,
		Model:      core.Great(),
		Predictor:  vpred.NewFCM(vpred.FCMConfig{HistoryBits: 10, PredictionBits: 10, HistoryDepth: 4}),
		Confidence: confidence.NewResetting(10, 2),
	}
}

// TestTelemetryQuadrantsReconcile is the white-box reconciliation check:
// across a full workload the four speculation-outcome quadrants must
// partition total predictions exactly — both in the frozen end-of-run
// outcome block and as the sum of the per-interval delta series.
func TestTelemetryQuadrantsReconcile(t *testing.T) {
	recs := telemetryRecs(t, 8000)
	p, err := New(flatMemConfig(Config8x48()), telemetrySpec(), trace.Encode(&trace.SliceSource{Records: recs}).Source())
	if err != nil {
		t.Fatal(err)
	}
	// Capacity far above the interval count so no decimation drops deltas.
	tl := NewTelemetry(50, 1<<16)
	p.SetTelemetry(tl)
	st, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Predictions == 0 || st.IH == 0 {
		t.Fatalf("workload exercised no mispredicted speculation: %+v", st)
	}

	out := tl.Outcomes()
	if !out.Reconciled() {
		t.Fatalf("outcomes do not reconcile: %+v total=%d", out, out.Total())
	}
	if out.Predictions != st.Predictions || out.CorrectUsed != st.CH ||
		out.WrongUsed != st.IH || out.CorrectUnused != st.CL || out.WrongUnused != st.IL {
		t.Fatalf("outcomes %+v do not match stats CH=%d CL=%d IH=%d IL=%d pred=%d",
			out, st.CH, st.CL, st.IH, st.IL, st.Predictions)
	}

	sum := func(name string) int64 {
		var s float64
		for _, pt := range tl.Series(name).Points(nil) {
			s += pt.Y
		}
		return int64(s + 0.5)
	}
	quadSums := map[string]int64{
		SeriesCorrectUsed:   st.CH,
		SeriesWrongUsed:     st.IH,
		SeriesCorrectUnused: st.CL,
		SeriesWrongUnused:   st.IL,
		SeriesNullified:     st.Nullified,
		SeriesReissues:      st.Reissues,
	}
	for name, want := range quadSums {
		if got := sum(name); got != want {
			t.Errorf("series %s interval sum %d != final total %d", name, got, want)
		}
	}

	// Every equality mismatch observed one invalidation latency.
	if got := tl.InvalidateLatency().Count(); int64(got) != st.InvalidationWaves {
		t.Errorf("invalidation latency samples %d != invalidation waves %d",
			got, st.InvalidationWaves)
	}
	if tl.VerifyLatency().Count() == 0 {
		t.Error("no verification latencies observed")
	}
}

// TestTelemetryIndependence checks that an attached sampler — including the
// Runner.Step chunk splitting it triggers — does not perturb the simulated
// timing or statistics.
func TestTelemetryIndependence(t *testing.T) {
	recs := telemetryRecs(t, 4000)
	run := func(tl *Telemetry, chunk int) *Stats {
		p, err := New(flatMemConfig(Config8x48()), telemetrySpec(), trace.Encode(&trace.SliceSource{Records: recs}).Source())
		if err != nil {
			t.Fatal(err)
		}
		p.SetTelemetry(tl)
		r := p.NewRunner()
		for !r.Step(chunk) {
		}
		st, err := r.Result()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	plain := run(nil, 1<<20)
	sampled := run(NewTelemetry(37, 64), 7) // odd interval and chunk on purpose
	if *plain != *sampled {
		t.Fatalf("telemetry changed results:\nplain:   %+v\nsampled: %+v", plain, sampled)
	}
}

// TestTelemetrySamplesAtBoundaries checks interval pacing: with interval K
// each retained sample's cycle is a multiple of K (except the final partial
// flush at run end).
func TestTelemetrySamplesAtBoundaries(t *testing.T) {
	recs := telemetryRecs(t, 3000)
	p, err := New(flatMemConfig(Config8x48()), telemetrySpec(), trace.Encode(&trace.SliceSource{Records: recs}).Source())
	if err != nil {
		t.Fatal(err)
	}
	const interval = 64
	tl := NewTelemetry(interval, 1<<16)
	p.SetTelemetry(tl)
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	pts := tl.Series(SeriesIPC).Points(nil)
	if len(pts) < 3 {
		t.Fatalf("expected several samples, got %d", len(pts))
	}
	for i, pt := range pts[:len(pts)-1] {
		if pt.X%interval != 0 {
			t.Errorf("sample %d at cycle %d is off the %d-cycle boundary", i, pt.X, interval)
		}
	}
}

func TestTelemetryCSVAndSnapshot(t *testing.T) {
	recs := telemetryRecs(t, 2000)
	p, err := New(flatMemConfig(Config8x48()), telemetrySpec(), trace.Encode(&trace.SliceSource{Records: recs}).Source())
	if err != nil {
		t.Fatal(err)
	}
	tl := NewTelemetry(100, 256)
	p.SetTelemetry(tl)
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := tl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("CSV has no data rows:\n%s", sb.String())
	}
	header := strings.Split(lines[0], ",")
	if header[0] != "cycle" || len(header) != 1+numTelemetrySeries {
		t.Fatalf("unexpected CSV header: %v", header)
	}
	for _, name := range TelemetrySeriesNames() {
		if !strings.Contains(lines[0], name) {
			t.Errorf("CSV header missing series %s", name)
		}
	}
	if cols := strings.Split(lines[1], ","); len(cols) != len(header) {
		t.Errorf("row width %d != header width %d", len(cols), len(header))
	}

	snap := tl.Snapshot()
	if snap.Interval != 100 || len(snap.Series) != numTelemetrySeries {
		t.Fatalf("snapshot malformed: interval=%d series=%d", snap.Interval, len(snap.Series))
	}
	if !snap.Outcomes.Reconciled() {
		t.Errorf("snapshot outcomes unreconciled: %+v", snap.Outcomes)
	}
	if snap.VerifyLatency.Count == 0 {
		t.Errorf("snapshot verify latency empty")
	}
}
