package harness

import (
	"runtime"
	"sync"
	"time"

	"valuespec/internal/cpu"
	"valuespec/internal/obs"
)

// Metric names the progress tracker publishes through its SharedRegistry,
// alongside mirrors of the trace-cache counters and the run-wide "cycles"
// and "retired" totals (which keep the Stats.Counters naming so the
// Prometheus exposition shows e.g. valuespec_retired_total).
const (
	MetricSpecsTotal     = "sweep.specs_total"          // counter: specs accepted across all batches
	MetricSpecsCompleted = "sweep.specs_completed"      // counter: specs finished successfully
	MetricSpecsFailed    = "sweep.specs_failed"         // counter: specs that returned an error
	MetricSpecsInflight  = "sweep.specs_inflight"       // gauge: simulations running right now
	MetricSpecCycles     = "sweep.spec_cycles"          // histogram: simulated cycles per completed spec
	MetricSpecEWMA       = "sweep.spec_seconds_ewma"    // gauge: EWMA of per-spec wall seconds
	MetricETA            = "sweep.eta_seconds"          // gauge: estimated seconds to drain remaining specs
	MetricElapsed        = "sweep.elapsed_seconds"      // gauge: wall seconds since the tracker started
	MetricCacheHitRate   = "sweep.trace_cache_hit_rate" // gauge: hits/(hits+misses) of the trace cache

	// Speculation-outcome counters aggregated across completed specs. The
	// names match the cpu per-run telemetry series (cpu.SeriesCorrectUsed
	// etc.) so the live sweep counters and the per-run series read as one
	// catalog; "sim.predictions" is the partition total the four quadrants
	// must sum to.
	MetricPredictions = "sim.predictions"
)

// ewmaAlpha weights the most recent spec duration in the ETA estimate; 0.2
// smooths over ~5 specs, enough to absorb the cached/uncached bimodality
// without going stale on workload changes.
const ewmaAlpha = 0.2

// Progress tracks a sweep live: how many specs are done, in flight and
// failed, how many cycles and instructions the finished ones simulated, the
// trace-cache hit rate, and an EWMA-based completion estimate. Every update
// is published atomically into the SharedRegistry it was built with, so the
// obsweb server (and any other scraper) reads a consistent picture while
// the SimulateAll worker pool hammers it. All methods are goroutine-safe.
//
// A batch reports into the tracker passed to SimulateBatch, including down
// its cancellation path (a failing spec counts as failed, and the batch's
// unclaimed specs stay visibly pending).
type Progress struct {
	shared  *obs.SharedRegistry
	workers int
	start   time.Time

	mu        sync.Mutex
	total     int64
	completed int64
	failed    int64
	inflight  int64
	cycles    int64
	retired   int64
	outcomes  obs.SpecOutcomes
	ewmaSec   float64
	done      bool
	cache     *TraceCache
}

// ProgressSnapshot is one consistent reading of a Progress, shaped for JSON
// (the /progress endpoint and every SSE frame).
type ProgressSnapshot struct {
	SpecsTotal     int64            `json:"specs_total"`
	SpecsCompleted int64            `json:"specs_completed"`
	SpecsInFlight  int64            `json:"specs_inflight"`
	SpecsFailed    int64            `json:"specs_failed"`
	CyclesTotal    int64            `json:"cycles_total"`
	Retired        int64            `json:"retired_total"`
	CacheHits      int64            `json:"trace_cache_hits"`
	CacheMisses    int64            `json:"trace_cache_misses"`
	CacheHitRate   float64          `json:"trace_cache_hit_rate"`
	Outcomes       obs.SpecOutcomes `json:"speculation_outcomes"`
	SpecSecEWMA    float64          `json:"spec_seconds_ewma"`
	ETASeconds     float64          `json:"eta_seconds"`
	ElapsedSeconds float64          `json:"elapsed_seconds"`
	Workers        int              `json:"workers"`
	Done           bool             `json:"done"`
}

// NewProgress returns a tracker publishing into shared. Every metric is
// registered up front, so the exposition carries the full set (at zero) from
// the first scrape of a run.
func NewProgress(shared *obs.SharedRegistry) *Progress {
	p := &Progress{
		shared:  shared,
		workers: runtime.GOMAXPROCS(0),
		start:   time.Now(),
	}
	shared.Do(func(r *obs.Registry) {
		r.Counter("cycles")
		r.Counter("retired")
		r.Counter(MetricSpecsTotal)
		r.Counter(MetricSpecsCompleted)
		r.Counter(MetricSpecsFailed)
		r.Counter("trace_cache.hits")
		r.Counter("trace_cache.misses")
		r.Gauge(MetricSpecsInflight)
		r.Gauge(MetricSpecEWMA)
		r.Gauge(MetricETA)
		r.Gauge(MetricElapsed)
		r.Gauge(MetricCacheHitRate)
		r.Histogram(MetricSpecCycles)
		r.Counter(MetricPredictions)
		r.Counter(cpu.SeriesCorrectUsed)
		r.Counter(cpu.SeriesWrongUsed)
		r.Counter(cpu.SeriesCorrectUnused)
		r.Counter(cpu.SeriesWrongUnused)
	})
	return p
}

// Registry returns the SharedRegistry the tracker publishes into.
func (p *Progress) Registry() *obs.SharedRegistry { return p.shared }

// BatchStart records that n more specs have been accepted for simulation.
func (p *Progress) BatchStart(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.total += int64(n)
	p.publishLocked(-1)
}

// setCache points the tracker at the trace cache a batch replays from, so
// snapshots carry its hit rate. Idempotent; nil is ignored.
func (p *Progress) setCache(c *TraceCache) {
	if c == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cache = c
}

// SpecStart records one simulation entering a worker.
func (p *Progress) SpecStart() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inflight++
	p.publishLocked(-1)
}

// SpecDone records one simulation leaving a worker: its stats fold into the
// run totals on success (st may be nil on error), and its wall duration
// feeds the EWMA behind the ETA.
func (p *Progress) SpecDone(st *cpu.Stats, err error, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inflight--
	var specCycles int64 = -1
	if err != nil {
		p.failed++
	} else {
		p.completed++
		if st != nil {
			p.cycles += st.Cycles
			p.retired += st.Retired
			specCycles = st.Cycles
			p.outcomes.Merge(st.Outcomes())
		}
		if sec := d.Seconds(); p.ewmaSec == 0 {
			p.ewmaSec = sec
		} else {
			p.ewmaSec = ewmaAlpha*sec + (1-ewmaAlpha)*p.ewmaSec
		}
	}
	p.publishLocked(specCycles)
}

// Finish marks the run complete; Snapshot and the published gauges then
// report a zero ETA and Done.
func (p *Progress) Finish() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done = true
	p.publishLocked(-1)
}

// Snapshot returns a consistent copy of the tracker state.
func (p *Progress) Snapshot() ProgressSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := ProgressSnapshot{
		SpecsTotal:     p.total,
		SpecsCompleted: p.completed,
		SpecsInFlight:  p.inflight,
		SpecsFailed:    p.failed,
		CyclesTotal:    p.cycles,
		Retired:        p.retired,
		Outcomes:       p.outcomes,
		SpecSecEWMA:    p.ewmaSec,
		ETASeconds:     p.etaLocked(),
		ElapsedSeconds: time.Since(p.start).Seconds(),
		Workers:        p.workers,
		Done:           p.done,
	}
	if p.cache != nil {
		s.CacheHits, s.CacheMisses = p.cache.Hits(), p.cache.Misses()
		if n := s.CacheHits + s.CacheMisses; n > 0 {
			s.CacheHitRate = float64(s.CacheHits) / float64(n)
		}
	}
	return s
}

// etaLocked estimates the wall seconds needed to drain the remaining specs
// across the worker pool; zero once done or before any spec finished.
func (p *Progress) etaLocked() float64 {
	if p.done || p.ewmaSec == 0 || p.workers <= 0 {
		return 0
	}
	remaining := p.total - p.completed - p.failed
	if remaining <= 0 {
		return 0
	}
	return p.ewmaSec * float64(remaining) / float64(p.workers)
}

// publishLocked pushes the current state into the shared registry as one
// atomic batch. specCycles >= 0 additionally records one per-spec cycle
// sample. Caller holds p.mu; the p.mu -> shared.mu lock order is the only
// one the package uses, so readers (Snapshot holders) can never deadlock it.
func (p *Progress) publishLocked(specCycles int64) {
	eta := p.etaLocked()
	elapsed := time.Since(p.start).Seconds()
	var hits, misses int64
	if p.cache != nil {
		hits, misses = p.cache.Hits(), p.cache.Misses()
	}
	p.shared.Do(func(r *obs.Registry) {
		r.Counter("cycles").Set(p.cycles)
		r.Counter("retired").Set(p.retired)
		r.Counter(MetricPredictions).Set(p.outcomes.Predictions)
		r.Counter(cpu.SeriesCorrectUsed).Set(p.outcomes.CorrectUsed)
		r.Counter(cpu.SeriesWrongUsed).Set(p.outcomes.WrongUsed)
		r.Counter(cpu.SeriesCorrectUnused).Set(p.outcomes.CorrectUnused)
		r.Counter(cpu.SeriesWrongUnused).Set(p.outcomes.WrongUnused)
		r.Counter(MetricSpecsTotal).Set(p.total)
		r.Counter(MetricSpecsCompleted).Set(p.completed)
		r.Counter(MetricSpecsFailed).Set(p.failed)
		r.Gauge(MetricSpecsInflight).Set(float64(p.inflight))
		r.Gauge(MetricSpecEWMA).Set(p.ewmaSec)
		r.Gauge(MetricETA).Set(eta)
		r.Gauge(MetricElapsed).Set(elapsed)
		if specCycles >= 0 {
			r.Histogram(MetricSpecCycles).Observe(specCycles)
		}
		if p.cache != nil {
			r.Counter("trace_cache.hits").Set(hits)
			r.Counter("trace_cache.misses").Set(misses)
			if n := hits + misses; n > 0 {
				r.Gauge(MetricCacheHitRate).Set(float64(hits) / float64(n))
			}
		}
	})
}
