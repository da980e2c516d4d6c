package cpu

import (
	"testing"

	"valuespec/internal/confidence"
	"valuespec/internal/core"
	"valuespec/internal/obs"
	"valuespec/internal/trace"
)

// cyclicSource replays a recorded stream forever, renumbering Seq so the
// concatenation is one coherent endless trace. It keeps the window full for
// as many cycles as a steady-state benchmark wants to run.
type cyclicSource struct {
	recs []trace.Record
	pos  int
	seq  int64
}

func (s *cyclicSource) Next() (trace.Record, bool) {
	r := s.recs[s.pos]
	s.pos++
	if s.pos == len(s.recs) {
		s.pos = 0
	}
	r.Seq = s.seq
	s.seq++
	return r, true
}

// BenchmarkPipelineSteadyState measures one simulated cycle of a warmed-up
// pipeline under the full Great model. The warmup drives every pool and ring
// to its high-water mark (wheel slots, wave sets, selection scratch, replay
// deque, consumer lists); after it, the hot loop must run at 0 allocs/op —
// that budget is pinned in BENCH_BASELINE.json and enforced by
// cmd/benchcheck.
//
// The pipeline runs with the Telemetry instrument attached and an obs
// SharedRegistry adapter standing by, the configuration a live-served run
// uses: the per-cycle histogram hook and the event-site observes are on the
// measured path, while the sampling interval never elapses and the shared
// merge happens only after the timed loop. The 0 allocs/op budget therefore
// also pins "attached-but-idle" live observability as allocation-free.
func BenchmarkPipelineSteadyState(b *testing.B) {
	recs := wakeupRecs(b, 99, 20000)
	spec := fcmSpec(core.Great(), confidence.NewResetting(10, 2))
	p, err := New(flatMemConfig(Config8x48()), spec, &cyclicSource{recs: recs})
	if err != nil {
		b.Fatal(err)
	}
	shared := obs.NewSharedRegistry()
	tl := NewTelemetry(1<<62, 256) // idle: the sampling interval never elapses
	p.SetTelemetry(tl)
	for i := 0; i < 50000; i++ {
		p.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.step()
	}
	b.StopTimer()
	shared.Merge(tl.Registry()) // the adapter a served run uses at completion
	snap := shared.Snapshot()
	if snap.Histogram("window.occupancy").Count() == 0 {
		b.Fatal("idle telemetry recorded no cycles")
	}
	if snap.Histogram("sim.verify_latency").Count() == 0 {
		b.Fatal("idle telemetry observed no verifications")
	}
	b.ReportMetric(float64(p.stats.Retired)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkIntervalSampler measures one Telemetry sample — three bitset
// population counts and one fixed-size boundary appended to the decimating
// store — on a warmed-up pipeline. Sampling runs at Runner.Step
// boundaries, never in the per-cycle loop, so this is the whole marginal
// cost of a sampling boundary; the 0 allocs/op budget pins sampling as
// allocation-free once the store is full (the warm-up fills it, and a full
// store decimates in place instead of growing).
func BenchmarkIntervalSampler(b *testing.B) {
	recs := wakeupRecs(b, 99, 20000)
	spec := fcmSpec(core.Great(), confidence.NewResetting(10, 2))
	p, err := New(flatMemConfig(Config8x48()), spec, &cyclicSource{recs: recs})
	if err != nil {
		b.Fatal(err)
	}
	const interval = 64
	tl := NewTelemetry(interval, 512)
	p.SetTelemetry(tl)
	for i := 0; i < 50000; i++ {
		p.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Rewind the boundary bookkeeping so every iteration takes a full
		// sample without re-simulating the interval.
		tl.last = p.cycle - interval
		tl.sample(p)
	}
	b.StopTimer()
	if tl.bounds.Appended() < int64(b.N) {
		b.Fatal("sampler skipped samples")
	}
}

// BenchmarkReplayRequeue measures the replay deque on the squash pattern: n
// records pushed onto the front one at a time (a complete invalidation
// squashing the window, repeatedly), then drained. Push and pop are O(1), so
// ns/op grows linearly with n, and the deque allocates nothing once grown.
func BenchmarkReplayRequeue(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"deque-1k", 1024}, {"deque-8k", 8192}} {
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			var d recDeque
			for i := 0; i < b.N; i++ {
				for j := 0; j < size.n; j++ {
					d.pushFront(trace.Record{})
				}
				for d.len() > 0 {
					d.popFrontRef()
				}
			}
		})
	}
}

// workCounts sums the work counters of whole simulations: the stages'
// visits, the ready-bitset words selection walked, and the events and ring
// doublings of the three timing wheels that the Telemetry instrument
// reports as events.scheduled and events.wheel_grows.
type workCounts struct{ sweepVisits, issueChecks, readyWords, loadVisits, scheduled, grows int64 }

func (w *workCounts) add(p *Pipeline) {
	w.sweepVisits += p.sweepVisits
	w.issueChecks += p.issueChecks
	w.readyWords += p.readyWords
	w.loadVisits += p.loadVisits
	w.scheduled += p.eqWheel.scheduled + p.waveWheel.scheduled + p.wbWheel.scheduled
	w.grows += p.eqWheel.grows + p.waveWheel.grows + p.wbWheel.grows
}

// report reports the counters per op. Each op is one whole simulation of the
// same trace, so the figures repeat exactly, and cmd/benchcheck gates them
// against BENCH_BASELINE.json's work_per_op.
func (w *workCounts) report(b *testing.B) {
	n := float64(b.N)
	b.ReportMetric(float64(w.sweepVisits)/n, "sweep-visits/op")
	b.ReportMetric(float64(w.issueChecks)/n, "issue-checks/op")
	b.ReportMetric(float64(w.readyWords)/n, "word-walks/op")
	b.ReportMetric(float64(w.loadVisits)/n, "load-visits/op")
	b.ReportMetric(float64(w.scheduled)/n, "events-scheduled/op")
	b.ReportMetric(float64(w.grows)/n, "wheel-grows/op")
}

// BenchmarkReadyQueueWide runs whole simulations on a window far wider than
// the paper's largest configuration (16-wide, 512 entries), where the
// per-cycle selection and sweep walks span eight bitset words. The trace is
// built once outside the timed loop; each iteration replays it through a
// fresh cursor, as a cached sweep does. It reports the work counters per
// simulation.
func BenchmarkReadyQueueWide(b *testing.B) {
	recs := wakeupRecs(b, 99, 20000)
	cfg := flatMemConfig(Config{IssueWidth: 16, WindowSize: 512})
	var retired int64
	var work workCounts
	b.ReportAllocs()
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

// BenchmarkBitsetSelect isolates the per-cycle cost of the wakeup/selection
// and sweep structures on a warmed-up wide window (16-wide, 512 entries):
// the same steady-state loop as BenchmarkPipelineSteadyState on eight
// bitset words instead of one.
func BenchmarkBitsetSelect(b *testing.B) {
	recs := wakeupRecs(b, 99, 20000)
	cfg := flatMemConfig(Config{IssueWidth: 16, WindowSize: 512})
	p, err := New(cfg, fcmSpec(core.Great(), confidence.NewResetting(10, 2)), &cyclicSource{recs: recs})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 50000; i++ {
		p.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.step()
	}
	b.ReportMetric(float64(p.stats.Retired)/b.Elapsed().Seconds(), "instrs/s")
}
