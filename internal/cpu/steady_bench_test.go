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
// The pipeline runs with a Metrics collector and a Telemetry interval
// sampler attached and an obs SharedRegistry adapter standing by, the
// configuration a live-served sweep uses: the per-cycle histogram hooks and
// the telemetry event-site latency observes are on the measured path, while
// neither sampling interval ever elapses and the shared merge happens only
// after the timed loop. The 0 allocs/op budget therefore also pins
// "attached-but-idle" live observability as allocation-free.
func BenchmarkPipelineSteadyState(b *testing.B) {
	recs := wakeupRecs(b, 99, 20000)
	spec := fcmSpec(core.Great(), confidence.NewResetting(10, 2))
	p, err := New(flatMemConfig(Config8x48()), spec, &cyclicSource{recs: recs})
	if err != nil {
		b.Fatal(err)
	}
	shared := obs.NewSharedRegistry()
	m := NewMetrics(1<<62, 0) // idle: the sampling interval never elapses
	p.SetMetrics(m)
	tl := NewTelemetry(1<<62, 256) // idle too; only event-site observes fire
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
	shared.Merge(m.Registry) // the adapter a sweep runs at spec completion
	if shared.Snapshot().Histogram(MetricOccupancy).Count() == 0 {
		b.Fatal("idle metrics adapter recorded nothing")
	}
	if tl.VerifyLatency().Count() == 0 {
		b.Fatal("idle telemetry observed no verifications")
	}
	b.ReportMetric(float64(p.stats.Retired)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkIntervalSampler measures one Telemetry interval sample — counter
// deltas, bitset population counts and fourteen TimeSeries appends — on a
// warmed-up pipeline. The sampler runs at Runner.Step boundaries, never in
// the per-cycle loop, so this is the whole marginal cost of a sampling
// boundary; the 0 allocs/op budget pins sampling as allocation-free
// (TimeSeries decimate in place instead of growing).
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
		tl.prevCycle = p.cycle - interval
		tl.sample(p)
	}
	b.StopTimer()
	if tl.series[tsOccupancy].Appended() < int64(b.N) {
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

// BenchmarkReadyQueueWide runs whole simulations on a window far wider than
// the paper's largest configuration (16-wide, 512 entries), where the
// per-cycle selection and sweep walks span eight bitset words. The trace is
// recorded once outside the timed loop; each iteration replays it through a
// fresh cursor, as a cached sweep does.
func BenchmarkReadyQueueWide(b *testing.B) {
	rec := trace.Encode(&trace.SliceSource{Records: wakeupRecs(b, 99, 20000)})
	cfg := flatMemConfig(Config{IssueWidth: 16, WindowSize: 512})
	var retired int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(cfg, fcmSpec(core.Great(), confidence.NewResetting(10, 2)), rec.Source())
		if err != nil {
			b.Fatal(err)
		}
		st, err := p.Run()
		if err != nil {
			b.Fatal(err)
		}
		retired += st.Retired
	}
	b.ReportMetric(float64(retired)/b.Elapsed().Seconds(), "instrs/s")
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
