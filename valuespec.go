// Package valuespec is a library-level reproduction of "Modeling Value
// Speculation" (Sazeides, HPCA 2002).
//
// The paper's contribution is a formal model — model variables plus latency
// variables — for describing how value speculation manifests in a
// dynamically-scheduled microarchitecture. This module implements that model
// (internal/core), a full out-of-order superscalar timing simulator that
// consumes it (internal/cpu), the substrates the paper's evaluation depends
// on (ISA, emulator, caches, branch and value predictors, confidence
// estimation), a synthetic SPECint95-analog workload suite, and harnesses
// that regenerate every table and figure of the evaluation.
//
// This package is the public facade: it re-exports the stable API so
// downstream users need a single import.
//
// # Quick start
//
//	w, _ := valuespec.WorkloadByName("compress")
//	model := valuespec.Great()
//	res, err := valuespec.Simulate(valuespec.Spec{
//		Workload: w,
//		Config:   valuespec.Config8x48(),
//		Model:    &model,
//		Setting:  valuespec.Setting{Update: valuespec.UpdateImmediate},
//	})
//	if err != nil { ... }
//	fmt.Printf("IPC %.3f\n", res.IPC())
//
// Compare against the base processor by passing a nil Model. See the
// examples directory for complete programs, and DESIGN.md for the mapping
// from the paper's tables and figures to the harness entry points.
package valuespec

import (
	"context"

	"valuespec/internal/bench"
	"valuespec/internal/confidence"
	"valuespec/internal/core"
	"valuespec/internal/cpu"
	"valuespec/internal/emu"
	"valuespec/internal/harness"
	"valuespec/internal/program"
	"valuespec/internal/trace"
	"valuespec/internal/vpred"
)

// The speculative-execution model (the paper's Section 4).
type (
	// Model is a complete speculative-execution model: model variables plus
	// latency variables.
	Model = core.Model
	// Latencies are the paper's latency variables, in cycles.
	Latencies = core.Latencies
	// ValueState is the four-state operand readiness introduced by value
	// speculation.
	ValueState = core.ValueState
	// VerificationScheme selects how validity propagates to successors.
	VerificationScheme = core.VerificationScheme
	// InvalidationScheme selects how mispredictions reach successors.
	InvalidationScheme = core.InvalidationScheme
	// ResolutionPolicy selects speculative or valid-only resolution for
	// branches and memory instructions.
	ResolutionPolicy = core.ResolutionPolicy
	// WakeupPolicy selects when nullified instructions wake up again.
	WakeupPolicy = core.WakeupPolicy
	// SelectionPolicy selects how issue slots are granted.
	SelectionPolicy = core.SelectionPolicy
)

// Value states.
const (
	StateInvalid     = core.StateInvalid
	StatePredicted   = core.StatePredicted
	StateSpeculative = core.StateSpeculative
	StateValid       = core.StateValid
)

// Verification schemes.
const (
	VerifyParallel     = core.VerifyParallel
	VerifyHierarchical = core.VerifyHierarchical
	VerifyRetirement   = core.VerifyRetirement
	VerifyHybrid       = core.VerifyHybrid
)

// Invalidation schemes.
const (
	InvalidateParallel     = core.InvalidateParallel
	InvalidateHierarchical = core.InvalidateHierarchical
	InvalidateComplete     = core.InvalidateComplete
)

// Resolution policies.
const (
	ResolveValidOnly   = core.ResolveValidOnly
	ResolveSpeculative = core.ResolveSpeculative
)

// Wakeup policies.
const (
	WakeupAnyValue = core.WakeupAnyValue
	WakeupLimited  = core.WakeupLimited
)

// Selection policies.
const (
	SelectNonSpecFirst = core.SelectNonSpecFirst
	SelectOldestFirst  = core.SelectOldestFirst
)

// Super, Great and Good return the paper's three example models
// (Section 4.1), from most to least optimistic.
func Super() Model { return core.Super() }
func Great() Model { return core.Great() }
func Good() Model  { return core.Good() }

// Models returns the paper's example models in optimism order.
func Models() []Model { return core.Presets() }

// ModelByName resolves "super", "great" or "good".
func ModelByName(name string) (Model, error) { return core.PresetByName(name) }

// ModelTable renders the latency variables of the given models in the
// format of the paper's Section 4.1 table.
func ModelTable(models ...Model) string { return core.Table(models...) }

// The simulated processor (the paper's Section 2).
type (
	// Config describes a processor configuration (issue width, window size,
	// cache hierarchy, data-cache ports).
	Config = cpu.Config
	// SpecOptions configures value speculation on a pipeline.
	SpecOptions = cpu.SpecOptions
	// Stats aggregates the measurements of one simulation.
	Stats = cpu.Stats
	// Pipeline is the out-of-order timing simulator.
	Pipeline = cpu.Pipeline
	// UpdateTiming selects immediate (I) or delayed (D) predictor training.
	UpdateTiming = cpu.UpdateTiming
)

// Observability (see docs/OBSERVABILITY.md).
type (
	// Observer receives the pipeline's microarchitectural event stream.
	Observer = cpu.Observer
	// Event is one pipeline event (dispatch, issue, verify, retire, ...).
	Event = cpu.Event
	// EventLog is an Observer retaining every event.
	EventLog = cpu.EventLog
	// RingLog is a bounded Observer overwriting its oldest events.
	RingLog = cpu.RingLog
	// Telemetry is the pipeline's instrument: interval columns, run-level
	// distributions and the speculation-outcome breakdown.
	Telemetry = cpu.Telemetry
	// TraceRecorder is an Observer producing a Chrome trace-event JSON.
	TraceRecorder = cpu.TraceRecorder
)

// NewRingLog returns an Observer keeping only the newest capacity events.
func NewRingLog(capacity int) *RingLog { return cpu.NewRingLog(capacity) }

// NewTelemetry returns an instrument sampling every interval cycles into at
// most capacity retained samples, decimating in place when full.
func NewTelemetry(interval int64, capacity int) *Telemetry {
	return cpu.NewTelemetry(interval, capacity)
}

// NewTraceRecorder returns an Observer that records a Chrome trace.
func NewTraceRecorder() *TraceRecorder { return cpu.NewTraceRecorder() }

// Tee fans one pipeline's events out to several observers.
func Tee(obs ...Observer) Observer { return cpu.Tee(obs...) }

// Update timings.
const (
	UpdateImmediate = cpu.UpdateImmediate
	UpdateDelayed   = cpu.UpdateDelayed
)

// Config4x24, Config8x48 and Config16x96 return the paper's processor
// configurations (issue width / window size).
func Config4x24() Config  { return cpu.Config4x24() }
func Config8x48() Config  { return cpu.Config8x48() }
func Config16x96() Config { return cpu.Config16x96() }

// PaperConfigs returns the paper's three configurations in order.
func PaperConfigs() []Config { return cpu.PaperConfigs() }

// NewPipeline builds a pipeline simulating the instruction stream src under
// cfg; nil spec simulates the base processor.
func NewPipeline(cfg Config, spec *SpecOptions, src trace.Source) (*Pipeline, error) {
	return cpu.New(cfg, spec, src)
}

// Programs, emulation and workloads.
type (
	// Program is an executable for the simulated machine.
	Program = program.Program
	// ProgramBuilder assembles programs with symbolic labels.
	ProgramBuilder = program.Builder
	// Machine is the functional emulator.
	Machine = emu.Machine
	// Record is one dynamic instruction of a trace.
	Record = trace.Record
	// TraceSource produces dynamic instruction streams.
	TraceSource = trace.Source
	// Workload is one benchmark of the synthetic SPECint95-analog suite.
	Workload = bench.Workload
)

// NewProgramBuilder returns an empty program builder.
func NewProgramBuilder(name string) *ProgramBuilder { return program.NewBuilder(name) }

// Assemble parses assembly text into a Program (see internal/program for
// the syntax).
func Assemble(src string) (*Program, error) { return program.Assemble(src) }

// NewMachine returns a functional emulator for p; the machine implements
// TraceSource and can drive a Pipeline directly.
func NewMachine(p *Program) (*Machine, error) { return emu.New(p) }

// Workloads returns the benchmark suite in the paper's Table 1 order.
func Workloads() []Workload { return bench.All() }

// Micro-kernels with one controlled dependence pattern each, for isolating
// model behavior (see internal/bench):

// ChainMicro builds a serial-dependence-chain kernel.
func ChainMicro(iterations, depth int) *Program { return bench.ChainMicro(iterations, depth) }

// ParallelMicro builds an independent-operations kernel.
func ParallelMicro(iterations, width int) *Program { return bench.ParallelMicro(iterations, width) }

// PointerChaseMicro builds a linked-list-walk kernel.
func PointerChaseMicro(steps, nodes int) *Program { return bench.PointerChaseMicro(steps, nodes) }

// BranchMicro builds a data-dependent-branch kernel with the given period.
func BranchMicro(iterations, period int) *Program { return bench.BranchMicro(iterations, period) }

// WorkloadByName resolves a benchmark by its SPECint95 name.
func WorkloadByName(name string) (Workload, error) { return bench.ByName(name) }

// Predictors and confidence estimation (the paper's Section 5.2).
type (
	// Predictor is the value-predictor interface.
	Predictor = vpred.Predictor
	// ConfidenceEstimator gates speculation on predictions.
	ConfidenceEstimator = confidence.Estimator
	// FCMConfig parameterizes the context-based predictor.
	FCMConfig = vpred.FCMConfig
)

// NewFCM returns the paper's two-level context-based value predictor.
func NewFCM(cfg FCMConfig) Predictor { return vpred.NewFCM(cfg) }

// DefaultFCMConfig returns the paper's 64K/64K, depth-4 configuration.
func DefaultFCMConfig() FCMConfig { return vpred.DefaultFCMConfig() }

// NewLastValuePredictor returns a last-value predictor with 1<<bits entries.
func NewLastValuePredictor(bits uint) Predictor { return vpred.NewLastValue(bits) }

// NewStridePredictor returns a stride predictor with 1<<bits entries.
func NewStridePredictor(bits uint) Predictor { return vpred.NewStride(bits) }

// NewHybridPredictor returns a stride/FCM tournament predictor with 1<<bits
// chooser counters.
func NewHybridPredictor(bits uint, fcmCfg FCMConfig) Predictor {
	return vpred.NewHybrid(bits, fcmCfg)
}

// NewResettingConfidence returns the paper's resetting-counter estimator
// (tableBits=16, counterBits=3 reproduces the paper).
func NewResettingConfidence(tableBits, counterBits uint) ConfidenceEstimator {
	return confidence.NewResetting(tableBits, counterBits)
}

// OracleConfidence speculates exactly on correct predictions.
func OracleConfidence() ConfidenceEstimator { return confidence.Oracle{} }

// AlwaysConfidence speculates on every prediction.
func AlwaysConfidence() ConfidenceEstimator { return confidence.Always{} }

// NeverConfidence disables speculation (base-processor behavior).
func NeverConfidence() ConfidenceEstimator { return confidence.Never{} }

// Experiments (the paper's Section 6).
type (
	// Spec describes one simulation for the experiment harness.
	Spec = harness.Spec
	// Result is the outcome of one simulation.
	Result = harness.Result
	// Setting is a predictor-update x confidence combination (D/R, I/R,
	// D/O, I/O).
	Setting = harness.Setting
	// Fig3Cell is one bar of the paper's Fig. 3.
	Fig3Cell = harness.Fig3Cell
	// Fig4Cell is one stacked bar of the paper's Fig. 4.
	Fig4Cell = harness.Fig4Cell
	// Table1Row is one row of the paper's Table 1.
	Table1Row = harness.Table1Row
)

// Simulate runs one simulation to completion.
func Simulate(spec Spec) (Result, error) { return harness.Simulate(spec) }

// SimulateAll runs specs concurrently, preserving input order.
func SimulateAll(specs []Spec) ([]Result, error) { return harness.SimulateAll(specs) }

// PaperSettings returns D/R, I/R, D/O, I/O in the paper's order.
func PaperSettings() []Setting { return harness.PaperSettings() }

// Table1 regenerates the paper's Table 1 (scale <= 0 selects workload
// defaults).
func Table1(scale int) ([]Table1Row, error) { return harness.Table1(scale) }

// Fig3 regenerates the paper's Fig. 3 sweep.
func Fig3(configs []Config, models []Model, settings []Setting, workloads []Workload, scale int) ([]Fig3Cell, error) {
	st := harness.Fig3(configs, models, settings, workloads, scale)
	_, err := harness.Run(context.Background(), harness.SimulateAllCtx, st)
	return st.Out, err
}

// Fig4 regenerates the paper's Fig. 4 accuracy breakdown.
func Fig4(configs []Config, workloads []Workload, scale int) ([]Fig4Cell, error) {
	st := harness.Fig4(configs, workloads, scale)
	_, err := harness.Run(context.Background(), harness.SimulateAllCtx, st)
	return st.Out, err
}
