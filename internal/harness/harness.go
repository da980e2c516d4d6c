// Package harness wires the workloads, the functional emulator and the
// timing simulator into the paper's experiments, and regenerates every table
// and figure of the evaluation (Section 6):
//
//	Table 1 — benchmark characteristics            (Table1)
//	Fig. 3  — model speedups across configurations (Fig3)
//	Fig. 4  — prediction-accuracy breakdown        (Fig4)
//
// plus the latency-sensitivity and design-space ablations that the paper's
// model makes expressible.
package harness

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"valuespec/internal/bench"
	"valuespec/internal/confidence"
	"valuespec/internal/core"
	"valuespec/internal/cpu"
	"valuespec/internal/emu"
	"valuespec/internal/isa"
	"valuespec/internal/obs"
	"valuespec/internal/stats"
	"valuespec/internal/trace"
	"valuespec/internal/vpred"
)

// Setting is one predictor-update/confidence combination; the paper studies
// the four products D/R, I/R, D/O, I/O.
type Setting struct {
	Update cpu.UpdateTiming
	Oracle bool
}

func (s Setting) String() string {
	c := "R"
	if s.Oracle {
		c = "O"
	}
	return s.Update.String() + "/" + c
}

// PaperSettings returns the four settings of Section 6 in the paper's order:
// D/R, I/R, D/O, I/O.
func PaperSettings() []Setting {
	return []Setting{
		{cpu.UpdateDelayed, false},
		{cpu.UpdateImmediate, false},
		{cpu.UpdateDelayed, true},
		{cpu.UpdateImmediate, true},
	}
}

// ConfigName renders a processor configuration as "width/window".
func ConfigName(cfg cpu.Config) string {
	return fmt.Sprintf("%d/%d", cfg.IssueWidth, cfg.WindowSize)
}

// Spec describes one simulation.
type Spec struct {
	Workload bench.Workload
	Scale    int // 0 selects the workload default
	Config   cpu.Config
	// Model selects the speculative-execution model; nil runs the base
	// processor.
	Model   *core.Model
	Setting Setting
	// NewPredictor overrides the paper's FCM; a factory because predictors
	// are stateful and simulations run concurrently.
	NewPredictor func() vpred.Predictor
	// NewConfidence overrides the setting's confidence estimator.
	NewConfidence func() confidence.Estimator
	// Predictable restricts which operations are value-predicted; nil
	// predicts every register writer.
	Predictable func(op isa.Op) bool

	// Observer, when non-nil, receives the pipeline event stream (e.g. a
	// cpu.EventLog, cpu.RingLog or cpu.TraceRecorder; combine with cpu.Tee).
	Observer cpu.Observer
	// Telemetry, when non-nil, is the pipeline's instrument: interval
	// columns sampled at Runner.Step boundaries, run-level distributions and
	// the speculation-outcome breakdown (one per spec; see cpu.NewTelemetry).
	Telemetry *cpu.Telemetry
	// Phases enables the wall-time per-stage profile; the breakdown is
	// returned in Result.Phases.
	Phases bool
}

// Label renders the spec compactly for error listings and job views:
// "workload@scale width/window model setting" ("base" when no model).
func (s Spec) Label() string {
	scale := s.Scale
	if scale <= 0 {
		scale = s.Workload.DefaultScale
	}
	model := "base"
	if s.Model != nil {
		model = s.Model.Name + " " + s.Setting.String()
	}
	return fmt.Sprintf("%s@%d %s %s", s.Workload.Name, scale, ConfigName(s.Config), model)
}

// Result is the outcome of one simulation.
type Result struct {
	Spec  Spec
	Stats *cpu.Stats
	// Phases holds the per-stage wall-time breakdown when Spec.Phases was
	// set, nil otherwise.
	Phases []obs.PhaseStat
}

// IPC returns the measured instructions per cycle.
func (r Result) IPC() float64 { return r.Stats.IPC() }

// Simulate runs one simulation to completion, execute-driven: the pipeline
// consumes the functional emulator directly.
func Simulate(spec Spec) (Result, error) { return simulate(spec, nil) }

// spare is the reusable state of one simulation: a pipeline, and the
// paper's FCM and resetting-confidence tables. simulate takes a spare from
// the pool and returns it when its spec ends, so the specs of a sweep clear
// their tables with Reset instead of allocating them afresh: ~0.9 MiB per
// spare, since the PC-indexed tables hold only the entries a program writes
// (BenchmarkSpareFootprint gates the bytes exactly). A spec with its own
// predictor or confidence factory still gets a fresh one from it.
type spare struct {
	p    cpu.Pipeline
	fcm  *vpred.FCM
	conf *confidence.Resetting
}

var spares = sync.Pool{New: func() any { return new(spare) }}

// predictor returns the spare's FCM, cleared.
func (s *spare) predictor() *vpred.FCM {
	if s.fcm == nil {
		s.fcm = vpred.NewFCM(vpred.DefaultFCMConfig())
	} else {
		s.fcm.Reset()
	}
	return s.fcm
}

// confidence returns the spare's resetting counters, cleared.
func (s *spare) confidence() *confidence.Resetting {
	if s.conf == nil {
		s.conf = confidence.Default()
	} else {
		s.conf.Reset()
	}
	return s.conf
}

// newPipeline resets the spare's pipeline for one spec and returns it with
// its record source. With a non-nil cache the pipeline replays the cached
// trace of (workload, scale); otherwise it is execute-driven. Both feed the
// pipeline the identical record stream, so results are bit-identical either
// way (the differential suite in replay_test.go holds this at byte
// granularity).
func newPipeline(spec Spec, cache *TraceCache, sp *spare) (*cpu.Pipeline, trace.Source, error) {
	var src trace.Source
	if cache != nil {
		s, err := cache.Source(spec.Workload, spec.Scale)
		if err != nil {
			return nil, nil, err
		}
		src = s
	} else {
		scale := spec.Scale
		if scale <= 0 {
			scale = spec.Workload.DefaultScale
		}
		m, err := emu.New(spec.Workload.Build(scale))
		if err != nil {
			return nil, nil, fmt.Errorf("harness: %s: %w", spec.Workload.Name, err)
		}
		src = m
	}
	var opts *cpu.SpecOptions
	if spec.Model != nil {
		var conf confidence.Estimator
		switch {
		case spec.NewConfidence != nil:
			conf = spec.NewConfidence()
		case spec.Setting.Oracle:
			conf = confidence.Oracle{}
		default:
			conf = sp.confidence()
		}
		var pred vpred.Predictor
		if spec.NewPredictor != nil {
			pred = spec.NewPredictor()
		} else {
			pred = sp.predictor()
		}
		opts = &cpu.SpecOptions{
			Enabled:     true,
			Model:       *spec.Model,
			Predictor:   pred,
			Confidence:  conf,
			Update:      spec.Setting.Update,
			Predictable: spec.Predictable,
		}
	}
	p := &sp.p
	if err := p.Reset(spec.Config, opts, src); err != nil {
		return nil, nil, fmt.Errorf("harness: %s: %w", spec.Workload.Name, err)
	}
	if spec.Observer != nil {
		p.SetObserver(spec.Observer)
	}
	if spec.Telemetry != nil {
		p.SetTelemetry(spec.Telemetry)
	}
	return p, src, nil
}

// simulate runs one simulation to completion on a spare from the pool and
// checks its statistics against the conservation laws. The Result holds
// its own copy of the statistics rather than a pointer into the pipeline,
// and the spare goes back to the pool without the spec's source and
// observers, so a finished spec pins nothing: the pool keeps about one set
// of tables per concurrent spec, not one per result.
func simulate(spec Spec, cache *TraceCache) (Result, error) {
	sp := spares.Get().(*spare)
	defer func() {
		sp.p.Detach()
		spares.Put(sp)
	}()
	p, src, err := newPipeline(spec, cache, sp)
	if err != nil {
		return Result{}, err
	}
	var phases *obs.PhaseTimer
	if spec.Phases {
		phases = p.EnablePhaseStats()
	}
	st, err := p.Run()
	if err == nil {
		var n int64
		if n, err = delivered(src); err == nil {
			err = checkLaws(st, n)
		}
	}
	if err != nil {
		return Result{}, fmt.Errorf("harness: %s on %s: %w", spec.Workload.Name, ConfigName(spec.Config), err)
	}
	stats := *st
	res := Result{Spec: spec, Stats: &stats}
	if phases != nil {
		res.Phases = phases.Breakdown()
	}
	return res, nil
}

// delivered returns how many records src handed a pipeline that ran to
// completion: the whole recording for a replay cursor, every executed
// instruction for the emulator. It fails if the stream ended other than
// at its end: on an emulator fault, or on a load log the replay did not
// consume exactly.
func delivered(src trace.Source) (int64, error) {
	if m, ok := src.(*emu.Machine); ok {
		return m.Executed(), m.Err()
	}
	ms := src.(*trace.MemorySource)
	return int64(ms.Len()), ms.Err()
}

// checkLaws checks, at O(1) cost, the conservation laws a completed run
// obeys: every delivered record retires once (law 1), the four
// correctness x confidence sets partition the predictions (law 4), and
// every dispatched instruction either retires or is squashed by complete
// invalidation (law 5). A broken law is a simulator fault.
func checkLaws(st *cpu.Stats, records int64) error {
	switch {
	case st.Retired != records:
		return fmt.Errorf("conservation law 1: retired %d of %d records", st.Retired, records)
	case st.CH+st.CL+st.IH+st.IL != st.Predictions:
		return fmt.Errorf("conservation law 4: CH+CL+IH+IL = %d, predictions %d",
			st.CH+st.CL+st.IH+st.IL, st.Predictions)
	case st.Dispatched != st.Retired+st.CompleteSquashes:
		return fmt.Errorf("conservation law 5: dispatched %d, retired %d + squashed %d",
			st.Dispatched, st.Retired, st.CompleteSquashes)
	}
	return nil
}

// SpecFailure is one failed spec of a batch: its input position, the spec
// itself, and the error it produced.
type SpecFailure struct {
	Index int
	Spec  Spec
	Err   error
}

// BatchError aggregates every spec failure of one SimulateAll batch, so
// callers can report the complete failed-spec list (and exit non-zero)
// rather than only the first error. Failures are ordered by input index.
type BatchError struct {
	Total    int // specs in the batch
	Failures []SpecFailure
}

func (e *BatchError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "harness: %d of %d specs failed:", len(e.Failures), e.Total)
	for _, f := range e.Failures {
		fmt.Fprintf(&b, "\n  spec %d [%s]: %v", f.Index, f.Spec.Label(), f.Err)
	}
	return b.String()
}

// Unwrap exposes the first failure for errors.Is/As chains.
func (e *BatchError) Unwrap() error {
	if len(e.Failures) == 0 {
		return nil
	}
	return e.Failures[0].Err
}

// SimulateAll runs the given specs on a fixed pool of GOMAXPROCS workers and
// returns results in input order. Each workload is emulated at most once per
// (workload, scale): subsequent specs replay its compact recording through
// the process-wide TraceCache. A failing spec does not abort the
// batch: every spec runs, and all failures come back together as a
// *BatchError (alongside the partial results of the specs that succeeded).
func SimulateAll(specs []Spec) ([]Result, error) {
	return SimulateAllCtx(context.Background(), specs)
}

// SimulateAllCtx is SimulateAll bounded by a context: when ctx is cancelled
// (or its deadline passes) workers stop claiming new specs, in-flight
// simulations drain, and the context's error is returned. Cancellation
// granularity is one spec — an individual simulation is bounded by its
// Config.MaxCycles, not by ctx.
func SimulateAllCtx(ctx context.Context, specs []Spec) ([]Result, error) {
	return simulateAll(ctx, specs, defaultTraceCache, nil)
}

// SimulateBatch is SimulateAllCtx reporting into a progress tracker (nil
// disables tracking). The jobs service gives every job its own tracker, so
// each has a live Progress snapshot while many jobs run concurrently;
// cmd/vsweep and cmd/vsim pass their -serve tracker.
func SimulateBatch(ctx context.Context, specs []Spec, progress *Progress) ([]Result, error) {
	return simulateAll(ctx, specs, defaultTraceCache, progress)
}

// simulateAll runs one batch on the worker pool.
func simulateAll(ctx context.Context, specs []Spec, cache *TraceCache, progress *Progress) ([]Result, error) {
	results := make([]Result, len(specs))
	errs := make([]error, len(specs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(specs) {
		workers = len(specs)
	}
	// Live progress tracking, when a tracker is attached. The worker loop
	// reports spec starts, completions and failures as they happen; specs
	// never claimed after a cancellation stay visibly pending.
	if progress != nil {
		progress.setCache(cache)
		progress.BatchStart(len(specs))
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				var t0 time.Time
				if progress != nil {
					progress.SpecStart()
					t0 = time.Now()
				}
				res, err := simulate(specs[i], cache)
				if progress != nil {
					progress.SpecDone(res.Stats, err, time.Since(t0))
				}
				if err != nil {
					errs[i] = err
					continue
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("harness: batch aborted: %w", err)
	}
	var batchErr *BatchError
	for i, err := range errs {
		if err == nil {
			continue
		}
		if batchErr == nil {
			batchErr = &BatchError{Total: len(specs)}
		}
		batchErr.Failures = append(batchErr.Failures, SpecFailure{Index: i, Spec: specs[i], Err: err})
	}
	if batchErr != nil {
		return results, batchErr
	}
	return results, nil
}

// Table1Row is one row of the paper's Table 1.
type Table1Row struct {
	Benchmark     string
	DynamicInstr  int64
	PredictedFrac float64
}

// Table1 characterizes the whole suite (at scale 0, the defaults).
func Table1(scale int) ([]Table1Row, error) {
	var rows []Table1Row
	for _, w := range bench.All() {
		s := scale
		if s <= 0 {
			s = w.DefaultScale
		}
		c, err := bench.Characterize(w, s)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{
			Benchmark:     c.Name,
			DynamicInstr:  c.DynamicInstr,
			PredictedFrac: c.PredictedFrac,
		})
	}
	return rows, nil
}

// Fig3Cell is one bar of the paper's Fig. 3: the harmonic-mean speedup of
// one model under one configuration and setting, plus the per-benchmark
// speedups behind the mean.
type Fig3Cell struct {
	Config  string
	Setting string
	Model   string
	Speedup float64
	PerWkld map[string]float64
}

// Fig3 is the study that sweeps models x configurations x settings over the
// workload suite, folded to harmonic-mean speedup cells in a deterministic
// order (configuration, then setting, then model). scale <= 0 selects
// workload defaults.
func Fig3(configs []cpu.Config, models []core.Model, settings []Setting, workloads []bench.Workload, scale int) *Study[[]Fig3Cell] {
	base, runs := Fig3Specs(configs, models, settings, workloads, scale)
	return &Study[[]Fig3Cell]{Specs: append(base, runs...), Fold: func(rs []Result) ([]Fig3Cell, error) {
		return Fig3FromResults(rs[:len(base)], rs[len(base):])
	}}
}

// Fig3Specs expands the Fig. 3 sweep into its simulation plan: the base runs
// (one per config x workload) and the speculative runs (config x setting x
// model x workload). Running both spec lists — locally through SimulateAll
// or remotely through the jobs service — and handing the results to
// Fig3FromResults reproduces the Fig3 study exactly.
func Fig3Specs(configs []cpu.Config, models []core.Model, settings []Setting, workloads []bench.Workload, scale int) (base, runs []Spec) {
	for _, cfg := range configs {
		for _, w := range workloads {
			base = append(base, Spec{Workload: w, Scale: scale, Config: cfg})
		}
	}
	for _, cfg := range configs {
		for _, set := range settings {
			for i := range models {
				for _, w := range workloads {
					runs = append(runs, Spec{
						Workload: w, Scale: scale, Config: cfg,
						Model: &models[i], Setting: set,
					})
				}
			}
		}
	}
	return base, runs
}

// Fig3FromResults aggregates pre-computed simulation results (in the order
// Fig3Specs produced them) into the Fig. 3 cells.
func Fig3FromResults(baseResults, results []Result) ([]Fig3Cell, error) {
	baseIPC := make(map[string]float64, len(baseResults))
	for _, r := range baseResults {
		baseIPC[ConfigName(r.Spec.Config)+"|"+r.Spec.Workload.Name] = r.IPC()
	}

	cells := make(map[string]*Fig3Cell)
	var order []string
	for _, r := range results {
		key := ConfigName(r.Spec.Config) + "|" + r.Spec.Setting.String() + "|" + r.Spec.Model.Name
		cell, ok := cells[key]
		if !ok {
			cell = &Fig3Cell{
				Config:  ConfigName(r.Spec.Config),
				Setting: r.Spec.Setting.String(),
				Model:   r.Spec.Model.Name,
				PerWkld: make(map[string]float64),
			}
			cells[key] = cell
			order = append(order, key)
		}
		base := baseIPC[ConfigName(r.Spec.Config)+"|"+r.Spec.Workload.Name]
		sp, err := stats.Speedup(base, r.IPC())
		if err != nil {
			return nil, err
		}
		cell.PerWkld[r.Spec.Workload.Name] = sp
	}

	out := make([]Fig3Cell, 0, len(order))
	for _, key := range order {
		cell := cells[key]
		hm, err := harmonicMeanByName(cell.PerWkld)
		if err != nil {
			return nil, err
		}
		cell.Speedup = hm
		out = append(out, *cell)
	}
	return out, nil
}

// harmonicMeanByName returns the harmonic mean of per-workload values,
// folded in workload-name order: floating-point addition is not
// associative, so folding in map iteration order would change the mean's
// last bits from run to run.
func harmonicMeanByName(perWkld map[string]float64) (float64, error) {
	names := make([]string, 0, len(perWkld))
	for name := range perWkld {
		names = append(names, name)
	}
	sort.Strings(names)
	vals := make([]float64, len(names))
	for i, name := range names {
		vals[i] = perWkld[name]
	}
	return stats.HarmonicMean(vals)
}

// Fig4Cell is one stacked bar of the paper's Fig. 4: the arithmetic-mean
// prediction-accuracy breakdown under the Great model for one configuration
// and update timing, split into correct/incorrect x high/low confidence.
type Fig4Cell struct {
	Config         string
	Update         cpu.UpdateTiming
	CH, CL, IH, IL float64
}

// Fig4 is the study that measures the accuracy breakdown of the
// real-confidence Great-model runs for each configuration and update
// timing, averaging the per-benchmark fractions arithmetically as the paper
// does.
func Fig4(configs []cpu.Config, workloads []bench.Workload, scale int) *Study[[]Fig4Cell] {
	great := core.Great()
	var specs []Spec
	for _, cfg := range configs {
		for _, u := range []cpu.UpdateTiming{cpu.UpdateDelayed, cpu.UpdateImmediate} {
			for _, w := range workloads {
				specs = append(specs, Spec{
					Workload: w, Scale: scale, Config: cfg,
					Model: &great, Setting: Setting{Update: u},
				})
			}
		}
	}
	return &Study[[]Fig4Cell]{Specs: specs, Fold: fig4Cells}
}

// fig4Cells folds Fig. 4's results into one cell per configuration and
// update timing, in the order first seen.
func fig4Cells(results []Result) ([]Fig4Cell, error) {
	groups := make(map[string][]Result)
	var order []string
	for _, r := range results {
		key := ConfigName(r.Spec.Config) + "|" + r.Spec.Setting.Update.String()
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], r)
	}
	out := make([]Fig4Cell, len(order))
	for i, key := range order {
		rs := groups[key]
		out[i] = Fig4Cell{Config: ConfigName(rs[0].Spec.Config), Update: rs[0].Spec.Setting.Update}
		out[i].CH, out[i].CL, out[i].IH, out[i].IL = meanBreakdown(rs)
	}
	return out, nil
}

// meanBreakdown returns the arithmetic means of rs's Fig. 4 fractions,
// summed in order.
func meanBreakdown(rs []Result) (ch, cl, ih, il float64) {
	for _, r := range rs {
		a, b, c, d := r.Stats.Breakdown()
		ch, cl, ih, il = ch+a, cl+b, ih+c, il+d
	}
	n := float64(len(rs))
	return ch / n, cl / n, ih / n, il / n
}
