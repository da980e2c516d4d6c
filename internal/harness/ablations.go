package harness

import (
	"fmt"

	"valuespec/internal/bench"
	"valuespec/internal/confidence"
	"valuespec/internal/core"
	"valuespec/internal/cpu"
	"valuespec/internal/isa"
	"valuespec/internal/stats"
	"valuespec/internal/vpred"
)

// meanSpeedup runs model over the workloads and returns the harmonic-mean
// speedup against per-workload base runs supplied in baseIPC (keyed by
// workload name).
func meanSpeedup(cfg cpu.Config, model core.Model, set Setting, workloads []bench.Workload,
	scale int, baseIPC map[string]float64,
	newPred func() vpred.Predictor, newConf func() confidence.Estimator) (float64, error) {

	specs := make([]Spec, 0, len(workloads))
	for _, w := range workloads {
		m := model
		specs = append(specs, Spec{
			Workload: w, Scale: scale, Config: cfg, Model: &m, Setting: set,
			NewPredictor: newPred, NewConfidence: newConf,
		})
	}
	results, err := SimulateAll(specs)
	if err != nil {
		return 0, err
	}
	vals := make([]float64, 0, len(results))
	for _, r := range results {
		sp, err := stats.Speedup(baseIPC[r.Spec.Workload.Name], r.IPC())
		if err != nil {
			return 0, err
		}
		vals = append(vals, sp)
	}
	return stats.HarmonicMean(vals)
}

// baseIPCs runs the base processor once per workload.
func baseIPCs(cfg cpu.Config, workloads []bench.Workload, scale int) (map[string]float64, error) {
	specs := make([]Spec, 0, len(workloads))
	for _, w := range workloads {
		specs = append(specs, Spec{Workload: w, Scale: scale, Config: cfg})
	}
	results, err := SimulateAll(specs)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(results))
	for _, r := range results {
		out[r.Spec.Workload.Name] = r.IPC()
	}
	return out, nil
}

// LatencyPoint is one point of a latency-sensitivity sweep.
type LatencyPoint struct {
	Variable string
	Value    int
	Speedup  float64
}

// latencyVariables enumerates the sweepable latency variables with their
// accessors and minimum legal values.
var latencyVariables = []struct {
	name string
	min  int
	set  func(*core.Latencies, int)
}{
	{"ExecEqInvalidate", 0, func(l *core.Latencies, v int) { l.ExecEqInvalidate = v }},
	{"ExecEqVerify", 0, func(l *core.Latencies, v int) { l.ExecEqVerify = v }},
	{"VerifyFreeIssue", 1, func(l *core.Latencies, v int) { l.VerifyFreeIssue = v; l.VerifyFreeRetire = v }},
	{"InvalidateReissue", 0, func(l *core.Latencies, v int) { l.InvalidateReissue = v }},
	{"VerifyBranch", 0, func(l *core.Latencies, v int) { l.VerifyBranch = v }},
	{"VerifyAddrMem", 0, func(l *core.Latencies, v int) { l.VerifyAddrMem = v }},
}

// LatencyVariableNames returns the sweepable latency-variable names.
func LatencyVariableNames() []string {
	names := make([]string, len(latencyVariables))
	for i, v := range latencyVariables {
		names[i] = v.name
	}
	return names
}

// LatencySensitivity sweeps each latency variable independently from its
// minimum to maxLat cycles, starting from the given baseline model (the
// paper's Section 4 call: "it is important to study the performance as the
// latencies change"). All other variables stay at the baseline's values.
// The returned points are grouped by variable in sweep order.
func LatencySensitivity(cfg cpu.Config, baseline core.Model, set Setting,
	workloads []bench.Workload, scale, maxLat int) ([]LatencyPoint, error) {

	base, err := baseIPCs(cfg, workloads, scale)
	if err != nil {
		return nil, err
	}
	var points []LatencyPoint
	for _, v := range latencyVariables {
		for val := v.min; val <= maxLat; val++ {
			m := baseline
			m.Name = fmt.Sprintf("%s[%s=%d]", baseline.Name, v.name, val)
			v.set(&m.Lat, val)
			sp, err := meanSpeedup(cfg, m, set, workloads, scale, base, nil, nil)
			if err != nil {
				return nil, err
			}
			points = append(points, LatencyPoint{Variable: v.name, Value: val, Speedup: sp})
		}
	}
	return points, nil
}

// SchemeResult is one row of a design-space ablation.
type SchemeResult struct {
	Scheme  string
	Speedup float64
}

// VerificationAblation compares the four verification schemes of Section
// 3.2 under the given baseline model and setting.
func VerificationAblation(cfg cpu.Config, baseline core.Model, set Setting,
	workloads []bench.Workload, scale int) ([]SchemeResult, error) {

	base, err := baseIPCs(cfg, workloads, scale)
	if err != nil {
		return nil, err
	}
	schemes := []core.VerificationScheme{
		core.VerifyParallel, core.VerifyHierarchical, core.VerifyRetirement, core.VerifyHybrid,
	}
	var out []SchemeResult
	for _, s := range schemes {
		m := baseline
		m.Name = baseline.Name + "+" + s.String()
		m.Verification = s
		sp, err := meanSpeedup(cfg, m, set, workloads, scale, base, nil, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, SchemeResult{Scheme: s.String(), Speedup: sp})
	}
	return out, nil
}

// InvalidationAblation compares the three invalidation schemes of Section
// 3.1. Because real confidence keeps misspeculation rare (the paper's
// explanation for why slow invalidation can be acceptable), the ablation
// also runs with always-speculate confidence to expose the schemes.
func InvalidationAblation(cfg cpu.Config, baseline core.Model, set Setting,
	workloads []bench.Workload, scale int, alwaysSpeculate bool) ([]SchemeResult, error) {

	base, err := baseIPCs(cfg, workloads, scale)
	if err != nil {
		return nil, err
	}
	var newConf func() confidence.Estimator
	if alwaysSpeculate {
		newConf = func() confidence.Estimator { return confidence.Always{} }
	}
	schemes := []core.InvalidationScheme{
		core.InvalidateParallel, core.InvalidateHierarchical, core.InvalidateComplete,
	}
	var out []SchemeResult
	for _, s := range schemes {
		m := baseline
		m.Name = baseline.Name + "+" + s.String()
		m.Invalidation = s
		sp, err := meanSpeedup(cfg, m, set, workloads, scale, base, nil, newConf)
		if err != nil {
			return nil, err
		}
		out = append(out, SchemeResult{Scheme: s.String(), Speedup: sp})
	}
	return out, nil
}

// ResolutionAblation compares valid-only and speculative resolution for
// branches and memory (Section 3.2, the Sodani-Sohi comparison).
func ResolutionAblation(cfg cpu.Config, baseline core.Model, set Setting,
	workloads []bench.Workload, scale int) ([]SchemeResult, error) {

	base, err := baseIPCs(cfg, workloads, scale)
	if err != nil {
		return nil, err
	}
	cases := []struct {
		name        string
		branch, mem core.ResolutionPolicy
	}{
		{"branch=valid mem=valid", core.ResolveValidOnly, core.ResolveValidOnly},
		{"branch=spec  mem=valid", core.ResolveSpeculative, core.ResolveValidOnly},
		{"branch=valid mem=spec", core.ResolveValidOnly, core.ResolveSpeculative},
		{"branch=spec  mem=spec", core.ResolveSpeculative, core.ResolveSpeculative},
	}
	var out []SchemeResult
	for _, cse := range cases {
		m := baseline
		m.Name = baseline.Name + "+" + cse.name
		m.BranchResolution = cse.branch
		m.MemResolution = cse.mem
		sp, err := meanSpeedup(cfg, m, set, workloads, scale, base, nil, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, SchemeResult{Scheme: cse.name, Speedup: sp})
	}
	return out, nil
}

// ForwardingAblation compares forwarding speculative values against holding
// them back (Section 2.2, the Rychlik et al. alternative).
func ForwardingAblation(cfg cpu.Config, baseline core.Model, set Setting,
	workloads []bench.Workload, scale int) ([]SchemeResult, error) {

	base, err := baseIPCs(cfg, workloads, scale)
	if err != nil {
		return nil, err
	}
	var out []SchemeResult
	for _, fwd := range []bool{true, false} {
		m := baseline
		m.ForwardSpeculative = fwd
		name := "forward"
		if !fwd {
			name = "no-forward"
		}
		m.Name = baseline.Name + "+" + name
		sp, err := meanSpeedup(cfg, m, set, workloads, scale, base, nil, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, SchemeResult{Scheme: name, Speedup: sp})
	}
	return out, nil
}

// PredictorAblation compares the paper's FCM against last-value and stride
// prediction under the baseline model.
func PredictorAblation(cfg cpu.Config, baseline core.Model, set Setting,
	workloads []bench.Workload, scale int) ([]SchemeResult, error) {

	base, err := baseIPCs(cfg, workloads, scale)
	if err != nil {
		return nil, err
	}
	preds := []struct {
		name string
		mk   func() vpred.Predictor
	}{
		{"fcm", func() vpred.Predictor { return vpred.NewFCM(vpred.DefaultFCMConfig()) }},
		{"last-value", func() vpred.Predictor { return vpred.NewLastValue(16) }},
		{"stride", func() vpred.Predictor { return vpred.NewStride(16) }},
		{"hybrid", func() vpred.Predictor { return vpred.NewHybrid(16, vpred.DefaultFCMConfig()) }},
	}
	var out []SchemeResult
	for _, pr := range preds {
		sp, err := meanSpeedup(cfg, baseline, set, workloads, scale, base, pr.mk, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, SchemeResult{Scheme: pr.name, Speedup: sp})
	}
	return out, nil
}

// ConfidencePoint is one row of a confidence-counter sweep.
type ConfidencePoint struct {
	CounterBits    uint
	Speedup        float64
	CH, CL, IH, IL float64 // arithmetic-mean fractions across workloads
}

// ConfidenceSweep varies the resetting-counter width (saturation threshold
// 2^bits - 1) under the baseline model, reporting speedup and the Fig. 4
// style accuracy breakdown. Wider counters trade coverage (CL grows) for
// fewer misspeculations (IH shrinks) — the tension Section 6 highlights.
func ConfidenceSweep(cfg cpu.Config, baseline core.Model, set Setting,
	workloads []bench.Workload, scale int, maxBits uint) ([]ConfidencePoint, error) {

	base, err := baseIPCs(cfg, workloads, scale)
	if err != nil {
		return nil, err
	}
	var out []ConfidencePoint
	for bits := uint(1); bits <= maxBits; bits++ {
		bits := bits
		newConf := func() confidence.Estimator { return confidence.NewResetting(16, bits) }
		specs := make([]Spec, 0, len(workloads))
		for _, w := range workloads {
			m := baseline
			specs = append(specs, Spec{
				Workload: w, Scale: scale, Config: cfg, Model: &m, Setting: set,
				NewConfidence: newConf,
			})
		}
		results, err := SimulateAll(specs)
		if err != nil {
			return nil, err
		}
		var sps []float64
		pt := ConfidencePoint{CounterBits: bits}
		for _, r := range results {
			sp, err := stats.Speedup(base[r.Spec.Workload.Name], r.IPC())
			if err != nil {
				return nil, err
			}
			sps = append(sps, sp)
			ch, cl, ih, il := r.Stats.Breakdown()
			pt.CH += ch
			pt.CL += cl
			pt.IH += ih
			pt.IL += il
		}
		n := float64(len(results))
		pt.CH /= n
		pt.CL /= n
		pt.IH /= n
		pt.IL /= n
		pt.Speedup, err = stats.HarmonicMean(sps)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// WakeupAblation compares the any-value and limited wakeup policies
// (Section 3.4), with always-speculate confidence so reissues actually
// occur.
func WakeupAblation(cfg cpu.Config, baseline core.Model, set Setting,
	workloads []bench.Workload, scale int, alwaysSpeculate bool) ([]SchemeResult, error) {

	base, err := baseIPCs(cfg, workloads, scale)
	if err != nil {
		return nil, err
	}
	var newConf func() confidence.Estimator
	if alwaysSpeculate {
		newConf = func() confidence.Estimator { return confidence.Always{} }
	}
	var out []SchemeResult
	for _, w := range []core.WakeupPolicy{core.WakeupAnyValue, core.WakeupLimited} {
		m := baseline
		m.Name = baseline.Name + "+" + w.String()
		m.Wakeup = w
		sp, err := meanSpeedup(cfg, m, set, workloads, scale, base, nil, newConf)
		if err != nil {
			return nil, err
		}
		out = append(out, SchemeResult{Scheme: w.String(), Speedup: sp})
	}
	return out, nil
}

// SelectionAblation compares the paper's non-speculative-first selection
// against strict oldest-first selection (Section 3.5).
func SelectionAblation(cfg cpu.Config, baseline core.Model, set Setting,
	workloads []bench.Workload, scale int) ([]SchemeResult, error) {

	base, err := baseIPCs(cfg, workloads, scale)
	if err != nil {
		return nil, err
	}
	var out []SchemeResult
	for _, s := range []core.SelectionPolicy{core.SelectNonSpecFirst, core.SelectOldestFirst} {
		m := baseline
		m.Name = baseline.Name + "+" + s.String()
		m.Selection = s
		sp, err := meanSpeedup(cfg, m, set, workloads, scale, base, nil, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, SchemeResult{Scheme: s.String(), Speedup: sp})
	}
	return out, nil
}

// ScalingPoint is one point of a width/window scaling sweep.
type ScalingPoint struct {
	Config  string
	BaseIPC float64 // harmonic mean across workloads
	Speedup float64 // harmonic-mean speedup of the model
}

// ScalingSweep extends Fig. 3's three configurations into a finer
// width/window curve, quantifying the paper's claim that "wider processors
// expose more dependences and hence increase the potential of
// value-speculation" (Gabbay-Mendelson, cited in Section 6).
func ScalingSweep(model core.Model, set Setting, workloads []bench.Workload,
	scale int, configs []cpu.Config) ([]ScalingPoint, error) {

	var out []ScalingPoint
	for _, cfg := range configs {
		base, err := baseIPCs(cfg, workloads, scale)
		if err != nil {
			return nil, err
		}
		baseHM, err := harmonicMeanByName(base)
		if err != nil {
			return nil, err
		}
		sp, err := meanSpeedup(cfg, model, set, workloads, scale, base, nil, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, ScalingPoint{Config: ConfigName(cfg), BaseIPC: baseHM, Speedup: sp})
	}
	return out, nil
}

// DefaultScalingConfigs returns a finer-grained width/window ladder around
// the paper's three points.
func DefaultScalingConfigs() []cpu.Config {
	return []cpu.Config{
		{IssueWidth: 2, WindowSize: 12},
		{IssueWidth: 4, WindowSize: 24},
		{IssueWidth: 6, WindowSize: 36},
		{IssueWidth: 8, WindowSize: 48},
		{IssueWidth: 12, WindowSize: 72},
		{IssueWidth: 16, WindowSize: 96},
	}
}

// GeometryPoint is one row of a predictor-geometry sweep.
type GeometryPoint struct {
	TableBits uint
	Speedup   float64
	Accuracy  float64 // arithmetic-mean prediction accuracy
}

// PredictorGeometrySweep varies the FCM table sizes (history and prediction
// tables both 1<<bits entries) under the baseline model — the predictor-
// configuration dimension the paper defers to its references [20, 31, 32].
func PredictorGeometrySweep(cfg cpu.Config, baseline core.Model, set Setting,
	workloads []bench.Workload, scale int, bitsList []uint) ([]GeometryPoint, error) {

	base, err := baseIPCs(cfg, workloads, scale)
	if err != nil {
		return nil, err
	}
	var out []GeometryPoint
	for _, bits := range bitsList {
		bits := bits
		newPred := func() vpred.Predictor {
			return vpred.NewFCM(vpred.FCMConfig{HistoryBits: bits, PredictionBits: bits, HistoryDepth: 4})
		}
		specs := make([]Spec, 0, len(workloads))
		for _, w := range workloads {
			m := baseline
			specs = append(specs, Spec{
				Workload: w, Scale: scale, Config: cfg, Model: &m, Setting: set,
				NewPredictor: newPred,
			})
		}
		results, err := SimulateAll(specs)
		if err != nil {
			return nil, err
		}
		var sps []float64
		acc := 0.0
		for _, r := range results {
			sp, err := stats.Speedup(base[r.Spec.Workload.Name], r.IPC())
			if err != nil {
				return nil, err
			}
			sps = append(sps, sp)
			acc += r.Stats.PredictionAccuracy()
		}
		hm, err := stats.HarmonicMean(sps)
		if err != nil {
			return nil, err
		}
		out = append(out, GeometryPoint{
			TableBits: bits,
			Speedup:   hm,
			Accuracy:  acc / float64(len(results)),
		})
	}
	return out, nil
}

// ScopeAblation compares predicting every register writer (the paper's
// setup) against Lipasti's original load-value prediction and an
// ALU-results-only scope.
func ScopeAblation(cfg cpu.Config, baseline core.Model, set Setting,
	workloads []bench.Workload, scale int) ([]SchemeResult, error) {

	base, err := baseIPCs(cfg, workloads, scale)
	if err != nil {
		return nil, err
	}
	scopes := []struct {
		name   string
		filter func(op isa.Op) bool
	}{
		{"all reg-writers", nil},
		{"loads only", func(op isa.Op) bool { return op == isa.LD }},
		{"non-loads only", func(op isa.Op) bool { return op != isa.LD }},
	}
	var out []SchemeResult
	for _, sc := range scopes {
		sc := sc
		specs := make([]Spec, 0, len(workloads))
		for _, w := range workloads {
			m := baseline
			specs = append(specs, Spec{
				Workload: w, Scale: scale, Config: cfg, Model: &m, Setting: set,
				Predictable: sc.filter,
			})
		}
		results, err := SimulateAll(specs)
		if err != nil {
			return nil, err
		}
		var sps []float64
		for _, r := range results {
			sp, err := stats.Speedup(base[r.Spec.Workload.Name], r.IPC())
			if err != nil {
				return nil, err
			}
			sps = append(sps, sp)
		}
		hm, err := stats.HarmonicMean(sps)
		if err != nil {
			return nil, err
		}
		out = append(out, SchemeResult{Scheme: sc.name, Speedup: hm})
	}
	return out, nil
}

// BranchQualityAblation measures value-speculation speedup under gshare and
// under perfect branch prediction, against matching base machines — value
// speculation and control speculation compete for the same exposed ILP.
func BranchQualityAblation(cfg cpu.Config, baseline core.Model, set Setting,
	workloads []bench.Workload, scale int) ([]SchemeResult, error) {

	var out []SchemeResult
	for _, perfect := range []bool{false, true} {
		c := cfg
		c.PerfectBranches = perfect
		base, err := baseIPCs(c, workloads, scale)
		if err != nil {
			return nil, err
		}
		sp, err := meanSpeedup(c, baseline, set, workloads, scale, base, nil, nil)
		if err != nil {
			return nil, err
		}
		name := "gshare"
		if perfect {
			name = "perfect branches"
		}
		out = append(out, SchemeResult{Scheme: name, Speedup: sp})
	}
	return out, nil
}
