package cpu

import (
	"fmt"
	"math/rand"
	"os"
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

// counterTotals returns the run total every counter column must sum to,
// read off the pipeline's Stats and timing wheels rather than the catalog.
func counterTotals(p *Pipeline) map[string]int64 {
	st := p.Stats()
	want := map[string]int64{
		SeriesCorrectUsed:          st.CH,
		SeriesWrongUsed:            st.IH,
		SeriesCorrectUnused:        st.CL,
		SeriesWrongUnused:          st.IL,
		"sim.nullified":            st.Nullified,
		"sim.reissues":             st.Reissues,
		"events.scheduled":         p.eqWheel.scheduled + p.waveWheel.scheduled + p.wbWheel.scheduled,
		"events.slots_recycled":    p.eqWheel.recycled + p.waveWheel.recycled + p.wbWheel.recycled,
		"events.wheel_grows":       p.eqWheel.grows + p.waveWheel.grows + p.wbWheel.grows,
		"events.wavesets_recycled": p.waveSetReuses,
	}
	for _, c := range st.Counters() {
		want[c.Name] = c.Value
	}
	return want
}

// columnSums sums every interval column of tl's rows, by name.
func columnSums(tl *Telemetry) map[string]float64 {
	names := TelemetrySeriesNames()
	sums := make(map[string]float64, len(names))
	for _, r := range tl.Rows() {
		for j, n := range names {
			sums[n] += r[j+1]
		}
	}
	return sums
}

// checkColumnsReconcile fails t unless every counter column of tl, the
// instrument p ran with, sums to its run total.
func checkColumnsReconcile(t *testing.T, tl *Telemetry, p *Pipeline) {
	t.Helper()
	want, sums := counterTotals(p), columnSums(tl)
	for _, m := range Catalog() {
		if m.Kind != KindCounter {
			continue
		}
		total, ok := want[m.Name]
		if !ok {
			t.Errorf("counter column %s has no independent run total", m.Name)
		} else if int64(sums[m.Name]) != total {
			t.Errorf("counter column %s sums to %v, run total %d (stride %d)", m.Name, sums[m.Name], total, tl.Stride())
		}
	}
}

// TestTelemetryQuadrantsReconcile is the white-box reconciliation check:
// across a full workload the four speculation-outcome quadrants must
// partition total predictions exactly — both in the frozen end-of-run
// outcome block and as the sum of the interval columns — and every counter
// column must sum to its run total, also when the retained boundaries were
// decimated many times over.
func TestTelemetryQuadrantsReconcile(t *testing.T) {
	recs := telemetryRecs(t, 8000)
	for _, tc := range []struct {
		name     string
		capacity int
	}{{"whole", 1 << 16}, {"decimated", 8}} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := New(flatMemConfig(Config8x48()), telemetrySpec(), trace.Encode(&trace.SliceSource{Records: recs}).Source())
			if err != nil {
				t.Fatal(err)
			}
			tl := NewTelemetry(50, tc.capacity)
			p.SetTelemetry(tl)
			st, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			if st.Predictions == 0 || st.IH == 0 {
				t.Fatalf("workload exercised no mispredicted speculation: %+v", st)
			}
			if decimated := tl.Stride() > 1; decimated != (tc.capacity == 8) {
				t.Fatalf("capacity %d: stride %d", tc.capacity, tl.Stride())
			}

			out := tl.Snapshot().Outcomes
			if !out.Reconciled() {
				t.Fatalf("outcomes do not reconcile: %+v total=%d", out, out.Total())
			}
			if out.Predictions != st.Predictions || out.CorrectUsed != st.CH ||
				out.WrongUsed != st.IH || out.CorrectUnused != st.CL || out.WrongUnused != st.IL {
				t.Fatalf("outcomes %+v do not match stats CH=%d CL=%d IH=%d IL=%d pred=%d",
					out, st.CH, st.CL, st.IH, st.IL, st.Predictions)
			}
			checkColumnsReconcile(t, tl, p)

			// Every equality mismatch observed one invalidation latency.
			reg := tl.Registry()
			if got := reg.Histogram("sim.invalidate_latency").Count(); int64(got) != st.InvalidationWaves {
				t.Errorf("invalidation latency samples %d != invalidation waves %d",
					got, st.InvalidationWaves)
			}
			if reg.Histogram("sim.verify_latency").Count() == 0 {
				t.Error("no verification latencies observed")
			}
		})
	}
}

// TestTelemetryIndependence checks that an attached instrument — including
// the Runner.Step chunk splitting it triggers — does not perturb the
// simulated timing or statistics.
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
// each row's cycle is a multiple of K (except the final partial interval at
// run end), and decimation keeps every stride-th of those from the first.
func TestTelemetrySamplesAtBoundaries(t *testing.T) {
	recs := telemetryRecs(t, 3000)
	const interval = 64
	for _, capacity := range []int{1 << 16, 6} {
		p, err := New(flatMemConfig(Config8x48()), telemetrySpec(), trace.Encode(&trace.SliceSource{Records: recs}).Source())
		if err != nil {
			t.Fatal(err)
		}
		tl := NewTelemetry(interval, capacity)
		p.SetTelemetry(tl)
		st, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		rows := tl.Rows()
		if len(rows) < 3 || len(rows) > capacity {
			t.Fatalf("capacity %d: %d rows", capacity, len(rows))
		}
		for i, r := range rows[:len(rows)-1] {
			if c := int64(r[0]); c%interval != 0 || (c/interval-1)%tl.Stride() != 0 {
				t.Errorf("capacity %d: row %d at cycle %d is off the %d-cycle boundaries kept at stride %d",
					capacity, i, c, interval, tl.Stride())
			}
		}
		if end := int64(rows[len(rows)-1][0]); end != st.Cycles {
			t.Errorf("capacity %d: last row at cycle %d, run ended at %d", capacity, end, st.Cycles)
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

	names := TelemetrySeriesNames()
	rows := tl.Rows()
	if len(rows) < 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for i, r := range rows {
		if len(r) != 1+len(names) {
			t.Fatalf("row %d has %d cells, want cycle + %d columns", i, len(r), len(names))
		}
	}
	seen := make(map[string]bool)
	for _, n := range names {
		if seen[n] {
			t.Errorf("column %s repeats", n)
		}
		seen[n] = true
	}
	// The quantities the sim.* columns carry are not repeated under their
	// Stats names.
	for _, dup := range []string{"pred_correct_high", "pred_incorrect_low", "nullified", "reissues"} {
		if seen[dup] {
			t.Errorf("column %s duplicates a sim.* column", dup)
		}
	}

	snap := tl.Snapshot()
	if snap.Interval != 100 || len(snap.Series) != 14 {
		t.Fatalf("snapshot malformed: interval=%d series=%d", snap.Interval, len(snap.Series))
	}
	for name, pts := range snap.Series {
		if !strings.HasPrefix(name, "sim.") || len(pts) != len(rows) {
			t.Errorf("snapshot series %s: %d points for %d rows", name, len(pts), len(rows))
		}
	}
	if !snap.Outcomes.Reconciled() {
		t.Errorf("snapshot outcomes unreconciled: %+v", snap.Outcomes)
	}
	if snap.VerifyLatency.Count == 0 {
		t.Errorf("snapshot verify latency empty")
	}
}

// TestCatalogDocumented holds docs/OBSERVABILITY.md's catalog table to the
// catalog: one row per name, with the Stats mirrors on one row.
func TestCatalogDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	stat := make(map[string]bool)
	for _, c := range (&Stats{}).Counters() {
		stat[c.Name] = true
	}
	var b strings.Builder
	b.WriteString("| name | kind | unit | meaning |\n|---|---|---|---|\n")
	var mirrors []string
	var mirror Metric
	for _, m := range Catalog() {
		if stat[m.Name] {
			mirrors, mirror = append(mirrors, "`"+m.Name+"`"), m
			continue
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", m.Name, m.Kind, m.Unit, m.Meaning)
	}
	fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", strings.Join(mirrors, ", "), mirror.Kind, mirror.Unit, mirror.Meaning)
	if !strings.Contains(string(doc), b.String()) {
		t.Errorf("docs/OBSERVABILITY.md lacks the catalog table; it should read:\n%s", b.String())
	}
}
