package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"valuespec/internal/bench"
	"valuespec/internal/confidence"
	"valuespec/internal/core"
	"valuespec/internal/cpu"
	"valuespec/internal/harness"
	"valuespec/internal/obs"
	"valuespec/internal/trace"
	"valuespec/internal/vpred"
)

// fig3Specs is the plan of "vsweep -fig3 -quick": the paper's three models
// under the four settings on the 8/48 machine, every kernel at its default
// scale, plus the base runs.
func fig3Specs() (base, runs []harness.Spec) {
	return harness.Fig3Specs([]cpu.Config{cpu.Config8x48()}, core.Presets(),
		harness.PaperSettings(), bench.All(), 0)
}

// modelSpaceSpecs is one batch off the presets on the 16/96 machine: the
// base runs, then Great (D/R) under seven model variants on every kernel.
func modelSpaceSpecs() []harness.Spec {
	always := func() confidence.Estimator { return confidence.Always{} }
	variant := func(name string, conf func() confidence.Estimator, edit func(m *core.Model)) harness.Spec {
		m := core.Great()
		m.Name = "great+" + name
		edit(&m)
		return harness.Spec{Model: &m, NewConfidence: conf,
			Setting: harness.Setting{Update: cpu.UpdateDelayed}}
	}
	variants := []harness.Spec{
		variant("hier-verify", nil, func(m *core.Model) { m.Verification = core.VerifyHierarchical }),
		variant("retire-verify", nil, func(m *core.Model) { m.Verification = core.VerifyRetirement }),
		variant("hier-inval/always", always, func(m *core.Model) { m.Invalidation = core.InvalidateHierarchical }),
		variant("complete-inval/always", always, func(m *core.Model) { m.Invalidation = core.InvalidateComplete }),
		variant("spec-resolve", nil, func(m *core.Model) {
			m.BranchResolution, m.MemResolution = core.ResolveSpeculative, core.ResolveSpeculative
		}),
		variant("limited-wakeup", nil, func(m *core.Model) { m.Wakeup = core.WakeupLimited }),
		variant("eqv3-reissue80", nil, func(m *core.Model) { m.Lat.ExecEqVerify, m.Lat.InvalidateReissue = 3, 80 }),
	}
	cfg := cpu.Config16x96()
	var specs []harness.Spec
	for _, w := range bench.All() {
		specs = append(specs, harness.Spec{Workload: w, Config: cfg})
	}
	for _, v := range variants {
		for _, w := range bench.All() {
			s := v
			s.Workload, s.Config = w, cfg
			specs = append(specs, s)
		}
	}
	return specs
}

// sweepCount is how many whole sweeps a run of the given length measures:
// one per started nominal sweep length, however long each sweep takes.
func sweepCount(seconds, nominal time.Duration) int {
	return max(1, int((seconds+nominal-1)/nominal))
}

// sweep is one of the two simulator workloads.
type sweep struct {
	// batches are run in order, each through one harness.SimulateAll call.
	batches [][]harness.Spec
	// fig3 aggregates the results into Fig. 3 cells and checks them.
	fig3 bool
	// nominal is how long one sweep takes on a two-vCPU host: --seconds 20
	// measures two fig3_sweep sweeps (8-10 s each) or three model_space
	// batches (5-8 s each).
	nominal time.Duration
}

func newSweep(name string) sweep {
	if name == "fig3_sweep" {
		base, runs := fig3Specs()
		return sweep{batches: [][]harness.Spec{base, runs}, fig3: true, nominal: 10 * time.Second}
	}
	return sweep{batches: [][]harness.Spec{modelSpaceSpecs()}, nominal: 7 * time.Second}
}

// kernelPairs lists every kernel's recording at one scale (0: default).
func kernelPairs(scale int) []tracePair {
	var out []tracePair
	for _, w := range bench.All() {
		out = append(out, tracePair{w: w, scale: scale})
	}
	return out
}

// once runs the sweep the way harness.Fig3 runs it: one SimulateAll per
// batch, then (fig3) Fig3FromResults. Results of failed specs carry nil
// Stats; the cells are nil when any spec failed.
func (s sweep) once() ([]harness.Result, []harness.Fig3Cell, error) {
	var all [][]harness.Result
	var failed error
	for _, b := range s.batches {
		res, err := harness.SimulateAll(b)
		if err != nil {
			var be *harness.BatchError
			if !errors.As(err, &be) {
				return nil, nil, err
			}
			failed = err
			res = fillFailed(b, res)
		}
		all = append(all, res)
	}
	var flat []harness.Result
	for _, r := range all {
		flat = append(flat, r...)
	}
	if !s.fig3 || failed != nil {
		return flat, nil, failed
	}
	cells, err := harness.Fig3FromResults(all[0], all[1])
	return flat, cells, err
}

// fillFailed gives every result of a failed batch its spec, so the oracle
// check can name the spec whose Stats are missing.
func fillFailed(specs []harness.Spec, res []harness.Result) []harness.Result {
	out := make([]harness.Result, len(specs))
	for i := range specs {
		if i < len(res) && res[i].Stats != nil {
			out[i] = res[i]
		} else {
			out[i] = harness.Result{Spec: specs[i]}
		}
	}
	return out
}

// specStat is one finished spec, kept as a copy: a result's *Stats points
// into its pipeline, so holding results past their sweep would keep every
// pipeline of the sweep alive and inflate the peak resident set.
type specStat struct {
	label string
	stats *cpu.Stats // nil when the spec failed
}

func keep(res []harness.Result) []specStat {
	out := make([]specStat, len(res))
	for i, r := range res {
		out[i].label = r.Spec.Label()
		if r.Stats != nil {
			st := *r.Stats
			out[i].stats = &st
		}
	}
	return out
}

// sweepRate is a sweep's retired instructions per wall second, in millions.
func sweepRate(specs []specStat, wall time.Duration) float64 {
	var retired int64
	for _, s := range specs {
		if s.stats != nil {
			retired += s.stats.Retired
		}
	}
	return float64(retired) / wall.Seconds() / 1e6
}

// sweepOutcome is what one measured or traced pass produced.
type sweepOutcome struct {
	specs   []specStat
	failed  int
	errs    []string
	retired int64
}

// verify checks every spec (and every Fig. 3 aggregation) against the
// oracle, outside any timer.
func (o *sweepOutcome) verify(or *oracle, cells [][]harness.Fig3Cell) {
	fail := func(err error) {
		o.failed++
		if len(o.errs) < 5 {
			o.errs = append(o.errs, err.Error())
		}
	}
	for _, s := range o.specs {
		if err := or.check(s.label, s.stats); err != nil {
			fail(err)
			continue
		}
		o.retired += s.stats.Retired
	}
	for _, c := range cells {
		if c == nil {
			fail(errors.New("fig3 cells missing: a batch failed"))
			continue
		}
		if err := or.checkCells(c); err != nil {
			fail(err)
		}
	}
}

// runSweep is one untraced or traced run of fig3_sweep or model_space.
func runSweep(cfg runConfig, rep *report) error {
	or, err := loadOracle()
	if err != nil {
		return err
	}
	sw := newSweep(cfg.workload)
	pairs := kernelPairs(0)
	var tr *obs.Tracer
	if cfg.trace {
		tr = obs.NewTracer(1 << 16)
	}

	reps, rec, err := setupRecordings(pairs, tr)
	if err != nil {
		return err
	}
	rep.setup(reps)

	var out sweepOutcome
	var cells [][]harness.Fig3Cell
	var rates, walls []float64 // Minst/s and wall seconds of each sweep
	var traced *specTrace
	cache := harness.DefaultTraceCache()
	hits0, miss0 := cache.Hits(), cache.Misses()
	m0 := readUsage()
	if cfg.trace {
		// One pass, every spec its own span; the batches still run in
		// order with a barrier between them, as harness.Fig3 runs them.
		traced = &specTrace{tr: tr}
		var res []harness.Result
		for _, b := range sw.batches {
			res = append(res, traced.batch(b)...)
		}
		if sw.fig3 {
			base := len(sw.batches[0])
			c, err := harness.Fig3FromResults(res[:base], res[base:])
			if err != nil {
				c = nil
			}
			cells = append(cells, c)
		}
		out.specs = keep(res)
		wall := time.Since(m0.wall)
		rates = append(rates, sweepRate(out.specs, wall))
		walls = append(walls, wall.Seconds())
	} else {
		// Whole sweeps, one per started nominal length of the measured
		// time: a fixed count per run keeps runs comparable on a host whose
		// speed moves, where "until the time is up" would run two sweeps
		// on a slow minute and three on a fast one.
		for i := 0; i < sweepCount(cfg.seconds, sw.nominal); i++ {
			t := readUsage()
			res, c, err := sw.once()
			if err != nil && res == nil {
				return err
			}
			wall := time.Since(t.wall)
			specs := keep(res)
			rates = append(rates, sweepRate(specs, wall))
			walls = append(walls, wall.Seconds())
			out.specs = append(out.specs, specs...)
			if sw.fig3 {
				cells = append(cells, c)
			}
		}
	}
	m1 := readUsage()
	measured := window{m0, m1}
	hits, misses := cache.Hits()-hits0, cache.Misses()-miss0

	out.verify(or, cells)
	if s := out.specs[0]; s.stats != nil {
		if err := or.selfTest(s.label, s.stats); err != nil {
			rep.selfTestFailed(err)
		}
	}
	rep.attempted = len(out.specs) + len(cells)
	rep.failed = out.failed
	rep.errs = append(rep.errs, out.errs...)
	rep.measured(measured)

	// Steal only ever lengthens a sweep, so the fastest sweep of the run is
	// the estimate of the simulator's speed least disturbed by the host.
	overall := float64(out.retired) / measured.wall().Seconds() / 1e6
	rep.e2e["sim_minst_per_s"] = metric{maxOf(rates), "Minst/s"}
	rep.e2e["cpu_us_per_op"] = metric{measured.cpuPerOp(len(out.specs) - out.failed), "us"}
	rep.notef("measured: %d specs in %.3f s, %d sweep(s) of wall s %s at Minst/s %s, overall %.4f; op = one spec",
		len(out.specs), measured.wall().Seconds(), len(rates), fmtFloats(walls), fmtFloats(rates), overall)

	if cfg.trace {
		traced.report(rep, out, hits, misses)
		rep.layer["cpu.construct_us"] = metric{traced.constructUS(), "us"}
		if err := componentCosts(rep, pairs, rec); err != nil {
			return err
		}
		rep.writeSpans(tr.Spans(""))
	}
	return nil
}

// specTrace runs a batch as one-spec SimulateAll calls from a pool as wide
// as SimulateAll's own, so every spec gets its own span, its cpu.New cost
// and its phase-timer breakdown.
type specTrace struct {
	tr        *obs.Tracer
	mu        sync.Mutex
	specDur   []time.Duration
	construct []time.Duration
	phases    map[string]time.Duration
	busy      time.Duration
	wall      time.Duration
	workers   int
}

func (t *specTrace) batch(specs []harness.Spec) []harness.Result {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(specs) {
		workers = len(specs)
	}
	if workers > t.workers {
		t.workers = workers
	}
	results := make([]harness.Result, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	began := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			track := fmt.Sprintf("pool worker %d", w)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				results[i] = t.one(track, specs[i])
			}
		}(w)
	}
	wg.Wait()
	t.wall += time.Since(began)
	return results
}

func (t *specTrace) one(track string, spec harness.Spec) harness.Result {
	label := spec.Label()
	c0 := time.Now()
	construct, err := timeConstruct(spec)
	if err != nil {
		return harness.Result{Spec: spec}
	}
	t.tr.Emit(track, "cpu.New", c0, c0.Add(construct), obs.SpanAttr{Key: "spec", Value: label})

	s := spec
	s.Phases = true
	s0 := time.Now()
	res, err := harness.SimulateAll([]harness.Spec{s})
	s1 := time.Now()
	t.tr.Emit(track, "spec", s0, s1, obs.SpanAttr{Key: "spec", Value: label})
	if err != nil || len(res) != 1 {
		return harness.Result{Spec: spec}
	}
	r := res[0]
	r.Spec = spec
	t.mu.Lock()
	defer t.mu.Unlock()
	t.specDur = append(t.specDur, s1.Sub(s0))
	t.construct = append(t.construct, construct)
	t.busy += s1.Sub(s0)
	if t.phases == nil {
		t.phases = make(map[string]time.Duration)
	}
	for _, ph := range r.Phases {
		t.phases[ph.Name] += ph.Total
	}
	return r
}

// timeConstruct builds the spec's pipeline the way the harness does and
// returns how long cpu.New alone took. The pipeline is discarded.
func timeConstruct(spec harness.Spec) (time.Duration, error) {
	src, err := harness.DefaultTraceCache().Source(spec.Workload, spec.Scale)
	if err != nil {
		return 0, err
	}
	opts := specOptions(spec)
	t0 := time.Now()
	_, err = cpu.New(spec.Config, opts, src)
	return time.Since(t0), err
}

// specOptions mirrors the harness's construction of the speculation
// options: the paper's FCM and resetting confidence unless the spec
// overrides them.
func specOptions(spec harness.Spec) *cpu.SpecOptions {
	if spec.Model == nil {
		return nil
	}
	var conf confidence.Estimator = confidence.Default()
	if spec.Setting.Oracle {
		conf = confidence.Oracle{}
	}
	if spec.NewConfidence != nil {
		conf = spec.NewConfidence()
	}
	pred := vpred.Predictor(vpred.NewFCM(vpred.DefaultFCMConfig()))
	if spec.NewPredictor != nil {
		pred = spec.NewPredictor()
	}
	return &cpu.SpecOptions{
		Enabled: true, Model: *spec.Model, Predictor: pred, Confidence: conf,
		Update: spec.Setting.Update, Predictable: spec.Predictable,
	}
}

func (t *specTrace) constructUS() float64 {
	p := percentile(durMS(t.construct), 0.5)
	return p.Value * 1000
}

// report fills the harness and cpu per-layer metrics of a traced sweep.
func (t *specTrace) report(rep *report, out sweepOutcome, hits, misses int64) {
	var st cpu.Stats
	for _, s := range out.specs {
		if s.stats != nil {
			addStats(&st, s.stats)
		}
	}
	ms := durMS(t.specDur)
	p50 := percentile(ms, 0.5)
	rep.notef("harness: spec wall %s, max=%.4g ms; pool of %d over %.3f s", p50, maxOf(ms), t.workers, t.wall.Seconds())
	busy := 0.0
	if t.wall > 0 && t.workers > 0 {
		busy = float64(t.busy) / (float64(t.workers) * float64(t.wall))
	}
	layer := rep.layer
	layer["harness.spec_ms_p50"] = metric{p50.Value, "ms"}
	layer["harness.spec_ms_max"] = metric{maxOf(ms), "ms"}
	layer["harness.pool_busy_frac"] = metric{busy, "ratio"}
	layer["harness.cache_hit_frac"] = metric{ratio(hits, hits+misses), "ratio"}
	var simTime time.Duration
	for _, d := range t.specDur {
		simTime += d
	}
	cpuLayer(rep, &st, simTime, t.phases)
}

// addStats sums the counters the per-layer metrics use.
func addStats(dst, s *cpu.Stats) {
	dst.Cycles += s.Cycles
	dst.Retired += s.Retired
	dst.Issues += s.Issues
	dst.Nullified += s.Nullified
	dst.CompleteSquashes += s.CompleteSquashes
}

// phaseNames are the pipeline phases of cpu.Pipeline.EnablePhaseStats.
var phaseNames = []string{"writeback", "events", "sweep", "retire", "issue", "mem", "fetch"}

// cpuLayer fills the cpu.* per-layer metrics from summed Stats, the host
// time spent simulating, and the summed phase-timer breakdown.
func cpuLayer(rep *report, st *cpu.Stats, simTime time.Duration, phases map[string]time.Duration) {
	layer := rep.layer
	layer["cpu.sim_cycles"] = metric{float64(st.Cycles), "cycles"}
	layer["cpu.retired"] = metric{float64(st.Retired), "inst"}
	perCycle := func(d time.Duration) float64 {
		if st.Cycles == 0 {
			return 0
		}
		return float64(d) / float64(st.Cycles)
	}
	perKinst := func(n int64) float64 {
		if st.Retired == 0 {
			return 0
		}
		return 1000 * float64(n) / float64(st.Retired)
	}
	layer["cpu.ns_per_cycle"] = metric{perCycle(simTime), "ns"}
	for _, name := range phaseNames {
		layer["cpu.stage."+name+"_ns"] = metric{perCycle(phases[name]), "ns"}
	}
	useful := 0.0
	if st.Issues > 0 {
		useful = float64(st.Retired) / float64(st.Issues)
	}
	layer["cpu.issue_useful_frac"] = metric{useful, "ratio"}
	layer["cpu.nullified_per_kinstr"] = metric{perKinst(st.Nullified), "1/kinst"}
	layer["cpu.squashed_per_kinstr"] = metric{perKinst(st.CompleteSquashes), "1/kinst"}
}

// tracePair is one (workload, scale) recording a workload replays.
type tracePair struct {
	w     bench.Workload
	scale int
}

// setupReps is how many times a run repeats its set-up; setup_s is their
// median, so one slow repetition (a page-fault storm, a steal burst) does
// not move it.
const setupReps = 5

// recording describes the trace cache after set-up.
type recording struct {
	records  int64         // records recorded by one set-up
	recordNS time.Duration // summed recording time over all repetitions
	totalRec int64         // records recorded over all repetitions
}

// coldStart empties the process-wide trace cache, collects the garbage and
// returns the freed heap to the OS, outside every timer. The next set-up
// then records from an empty cache into memory it must fault in afresh, as
// the set-up of a new process does, not into heap an earlier repetition
// already grew.
func coldStart() {
	emptyTraceCache()
	debug.FreeOSMemory()
}

// setupRecordings repeats the sweeps' set-up from a cold start: build every
// kernel and record its trace into the process-wide cache. Every repetition
// does identical work, and the last leaves the cache warm for the measured
// phase, which a forced GC precedes outside every timer.
func setupRecordings(pairs []tracePair, tr *obs.Tracer) ([]window, recording, error) {
	var rec recording
	var reps []window
	cache := harness.DefaultTraceCache()
	for i := 0; i < setupReps; i++ {
		coldStart()
		u0 := readUsage()
		n0 := cache.CachedRecords()
		d, err := recordPairs(pairs, tr)
		if err != nil {
			return nil, rec, err
		}
		reps = append(reps, window{u0, readUsage()})
		rec.records = cache.CachedRecords() - n0
		rec.totalRec += rec.records
		rec.recordNS += d
	}
	runtime.GC()
	return reps, rec, nil
}

// recordPairs records every pair into the process-wide cache, one span per
// TraceCache.Source call, and returns the summed recording time.
func recordPairs(pairs []tracePair, tr *obs.Tracer) (time.Duration, error) {
	cache := harness.DefaultTraceCache()
	var total time.Duration
	for _, p := range pairs {
		t0 := time.Now()
		if _, err := cache.Source(p.w, p.scale); err != nil {
			return 0, fmt.Errorf("recording %s@%d: %w", p.w.Name, p.scale, err)
		}
		d := time.Since(t0)
		total += d
		tr.Emit("setup", "TraceCache.Source", t0, t0.Add(d),
			obs.SpanAttr{Key: "kernel", Value: fmt.Sprintf("%s@%d", p.w.Name, p.scale)})
	}
	return total, nil
}

// emptyTraceCache drops every recording of the process-wide cache through
// its byte budget (the daemon's -trace-cache-budget knob), then lifts the
// budget again, so the next Source call records afresh.
func emptyTraceCache() {
	c := harness.DefaultTraceCache()
	c.SetByteBudget(1)
	c.SetByteBudget(0)
}

// replaySources returns a fresh cursor over each pair's cached recording.
func replaySources(pairs []tracePair) ([]*trace.MemorySource, error) {
	var out []*trace.MemorySource
	for _, p := range pairs {
		src, err := harness.DefaultTraceCache().Source(p.w, p.scale)
		if err != nil {
			return nil, err
		}
		ms, ok := src.(*trace.MemorySource)
		if !ok {
			return nil, fmt.Errorf("trace cache returned %T, want *trace.MemorySource", src)
		}
		out = append(out, ms)
	}
	return out, nil
}
