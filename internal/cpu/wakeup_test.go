package cpu

import (
	"math/rand"
	"reflect"
	"testing"

	"valuespec/internal/confidence"
	"valuespec/internal/core"
	"valuespec/internal/emu"
	"valuespec/internal/trace"
	"valuespec/internal/vpred"
)

// eventStream is an Observer that records every event in order. Unlike
// EventLog it keeps no per-Seq index, which would cost the differential
// about a third of its run time.
type eventStream []Event

func (s *eventStream) Observe(ev Event) { *s = append(*s, ev) }

// fcmSpec returns speculation options for model m with a fresh FCM
// predictor and the given confidence estimator.
func fcmSpec(m core.Model, conf confidence.Estimator) *SpecOptions {
	return &SpecOptions{
		Enabled:    true,
		Model:      m,
		Predictor:  vpred.NewFCM(vpred.FCMConfig{HistoryBits: 10, PredictionBits: 10, HistoryDepth: 4}),
		Confidence: conf,
	}
}

// diffVariants are the speculation settings the differential runs on every
// trace: the base processor, every preset, and always-speculate ablations
// of Great. The ablations maximize invalidation-wave traffic, the path where
// the consumer-list walk replaces the window scan, and reach the
// verification schemes and forwarding policy whose gates decide when the
// sweep must wake an entry.
func diffVariants() []func() *SpecOptions {
	variants := []func() *SpecOptions{
		func() *SpecOptions { return nil },
	}
	for _, preset := range core.Presets() {
		variants = append(variants, func() *SpecOptions {
			return fcmSpec(preset, confidence.NewResetting(10, 2))
		})
	}
	ablations := []func(m *core.Model){
		func(m *core.Model) {},
		func(m *core.Model) { m.Invalidation = core.InvalidateHierarchical },
		func(m *core.Model) { m.Invalidation = core.InvalidateComplete },
		func(m *core.Model) { m.Wakeup = core.WakeupLimited },
		func(m *core.Model) { m.Selection = core.SelectOldestFirst },
		func(m *core.Model) { m.Verification = core.VerifyRetirement },
		func(m *core.Model) { m.Verification = core.VerifyHybrid },
		func(m *core.Model) { m.ForwardSpeculative = false },
		func(m *core.Model) {
			m.Invalidation = core.InvalidateHierarchical
			m.BranchResolution = core.ResolveSpeculative
			m.MemResolution = core.ResolveSpeculative
			m.Lat.InvalidateReissue = 3
		},
	}
	for _, ab := range ablations {
		m := core.Great()
		ab(&m)
		variants = append(variants, func() *SpecOptions { return fcmSpec(m, confidence.Always{}) })
	}
	return variants
}

// randomLatencyModel draws an always-speculate model with random latency
// variables. With long set, the equality latencies lie past the timing
// wheel's nominal 64-slot horizon, so the wheel must grow mid-run.
func randomLatencyModel(r *rand.Rand, inval core.InvalidationScheme, long bool) core.Model {
	m := core.Great()
	m.Invalidation = inval
	if inval == core.InvalidateHierarchical {
		m.Verification = core.VerifyHierarchical
	}
	m.Lat = core.Latencies{
		ExecEqInvalidate:  r.Intn(4),
		ExecEqVerify:      r.Intn(4),
		VerifyFreeIssue:   1 + r.Intn(2),
		VerifyFreeRetire:  1 + r.Intn(2),
		InvalidateReissue: r.Intn(3),
		VerifyBranch:      r.Intn(3),
		VerifyAddrMem:     r.Intn(3),
	}
	if long {
		m.Lat.ExecEqInvalidate = wheelNominalSlots + r.Intn(150)
		m.Lat.ExecEqVerify = wheelNominalSlots + r.Intn(150)
	}
	return m
}

// TestEventWakeupMatchesScan is the differential check of the simulator
// core against the full-window scan reference (scan_test.go). On
// concatenated random-program traces of 2000–3000 records, under every
// variant — base, presets, invalidation-heavy ablations and randomized
// latency variables, some past the wheel horizon — and on windows from 4/24
// to 16/130 (three bitset words, the last one partial), the shipped core
// must emit exactly the same event stream (same entries dispatched, issued,
// invalidated and retired in the same cycles, in the same order) and
// byte-identical statistics.
func TestEventWakeupMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(1337))
	configs := []Config{
		flatMemConfig(Config4x24()),
		Config8x48(),
		flatMemConfig(Config16x96()),
		flatMemConfig(Config{IssueWidth: 16, WindowSize: 130}),
	}
	invals := []core.InvalidationScheme{core.InvalidateParallel, core.InvalidateHierarchical, core.InvalidateComplete}

	maxOcc, grew := 0.0, false
	for trial := 0; trial < 4; trial++ {
		recs := wakeupRecs(t, r.Int63(), 2000+r.Intn(1001))
		variants := diffVariants()
		for _, long := range []bool{false, true} {
			m := randomLatencyModel(r, invals[r.Intn(len(invals))], long)
			variants = append(variants, func() *SpecOptions { return fcmSpec(m, confidence.Always{}) })
		}
		for vi, mk := range variants {
			for ci, cfg := range configs {
				var shipped, ref eventStream
				p, err := New(cfg, mk(), &trace.SliceSource{Records: recs})
				if err != nil {
					t.Fatal(err)
				}
				p.SetObserver(&shipped)
				st, err := p.Run()
				if err != nil {
					t.Fatalf("trial %d variant %d cfg %d: %v\nstats: %s", trial, vi, ci, err, st)
				}
				q, err := New(cfg, mk(), &trace.SliceSource{Records: recs})
				if err != nil {
					t.Fatal(err)
				}
				q.SetObserver(&ref)
				stRef := runScan(q, st.Cycles+1)

				if !reflect.DeepEqual(st, stRef) {
					t.Fatalf("trial %d variant %d cfg %d: stats diverged\nshipped: %s\nscan:    %s",
						trial, vi, ci, st, stRef)
				}
				if i := firstDiff(shipped, ref); i >= 0 {
					t.Fatalf("trial %d variant %d cfg %d: event %d diverged (shipped %d events, scan %d)\nshipped: %+v\nscan:    %+v",
						trial, vi, ci, i, len(shipped), len(ref), shipped[i:min(i+1, len(shipped))], ref[i:min(i+1, len(ref))])
				}
				maxOcc = max(maxOcc, float64(st.OccupancySum)/float64(st.Cycles))
				grew = grew || p.eqWheel.grows > 0
			}
		}
	}
	// Guard the coverage itself: the wide windows must actually fill past
	// one bitset word, and some long-latency run must grow the wheel.
	t.Logf("max mean occupancy %.1f, equality wheel grown: %t", maxOcc, grew)
	if maxOcc <= 64 {
		t.Fatalf("max mean occupancy %.1f: no run kept more than one bitset word of the window busy", maxOcc)
	}
	if !grew {
		t.Fatal("no run grew the equality wheel; the long-latency growth path went untested")
	}
}

// firstDiff returns the index of the first event at which a and b differ,
// or -1 when the streams are identical.
func firstDiff(a, b eventStream) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// wakeupRecs builds a window-saturating trace of about n records: random
// programs, each emulated to completion and concatenated, so long dependence
// chains interleave with independent work and the window stays full.
func wakeupRecs(tb testing.TB, seed int64, n int) []trace.Record {
	tb.Helper()
	r := rand.New(rand.NewSource(seed))
	var recs []trace.Record
	for len(recs) < n {
		prog := genProgram(r)
		m, err := emu.New(prog, emu.WithBudget(int64(n-len(recs))))
		if err != nil {
			tb.Fatal(err)
		}
		got := trace.Collect(m, 0)
		// Renumber so the concatenated stream is a single coherent trace.
		for i := range got {
			got[i].Seq = int64(len(recs) + i)
		}
		recs = append(recs, got...)
	}
	return recs
}

// BenchmarkWakeup runs whole simulations on the 16-wide/96-entry
// configuration, where the per-cycle wakeup and selection work is largest.
// The trace is built once outside the timed loop; each iteration replays
// it through a fresh cursor. It reports the work counters per simulation.
func BenchmarkWakeup(b *testing.B) {
	recs := wakeupRecs(b, 99, 20000)
	cfg := flatMemConfig(Config16x96())
	var retired int64
	var work workCounts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(cfg, fcmSpec(core.Great(), confidence.NewResetting(10, 2)), &trace.SliceSource{Records: recs})
		if err != nil {
			b.Fatal(err)
		}
		st, err := p.Run()
		if err != nil {
			b.Fatal(err)
		}
		retired += st.Retired
		work.add(p)
	}
	b.ReportMetric(float64(retired)/b.Elapsed().Seconds(), "instrs/s")
	work.report(b)
}
