package harness

import (
	"fmt"
	"slices"

	"valuespec/internal/bench"
	"valuespec/internal/confidence"
	"valuespec/internal/core"
	"valuespec/internal/cpu"
	"valuespec/internal/isa"
	"valuespec/internal/stats"
	"valuespec/internal/vpred"
)

// armResults is one arm's share of an ablation's results.
type armResults struct {
	base, runs []Result // the base machine and the arm, in workload order
	speedup    float64  // harmonic mean of runs over base, folded in workload order
}

// ablation is the body every ablation and sweep shares: the base machine
// of each distinct arm config on every workload, then every arm on every
// workload. An arm is a spec template: config, model, setting and any
// component closures, but no workload. rows holds one labelled output row
// per arm; the fold copies them and fill completes each from its arm's
// results.
func ablation[T any](workloads []bench.Workload, scale int, arms []Spec, rows []T,
	fill func(row *T, r armResults)) *Study[[]T] {

	var configs []cpu.Config
	baseOf := make([]int, len(arms))
	for i, a := range arms {
		j := slices.Index(configs, a.Config)
		if j < 0 {
			j = len(configs)
			configs = append(configs, a.Config)
		}
		baseOf[i] = j
	}
	var specs []Spec
	for _, cfg := range configs {
		for _, w := range workloads {
			specs = append(specs, Spec{Workload: w, Scale: scale, Config: cfg})
		}
	}
	for _, a := range arms {
		for _, w := range workloads {
			a.Workload, a.Scale = w, scale
			specs = append(specs, a)
		}
	}
	n := len(workloads)
	return &Study[[]T]{Specs: specs, Fold: func(rs []Result) ([]T, error) {
		out := slices.Clone(rows)
		runs := rs[len(configs)*n:]
		for i := range out {
			r := armResults{base: rs[baseOf[i]*n:][:n], runs: runs[i*n:][:n]}
			sps := make([]float64, n)
			for k := range sps {
				sp, err := stats.Speedup(r.base[k].IPC(), r.runs[k].IPC())
				if err != nil {
					return nil, err
				}
				sps[k] = sp
			}
			var err error
			if r.speedup, err = stats.HarmonicMean(sps); err != nil {
				return nil, err
			}
			fill(&out[i], r)
		}
		return out, nil
	}}
}

// arm returns the spec template of model m under set on cfg.
func arm(cfg cpu.Config, m core.Model, set Setting) Spec {
	return Spec{Config: cfg, Model: &m, Setting: set}
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
// The points are grouped by variable in sweep order.
func LatencySensitivity(cfg cpu.Config, baseline core.Model, set Setting,
	workloads []bench.Workload, scale, maxLat int) *Study[[]LatencyPoint] {

	var points []LatencyPoint
	var arms []Spec
	for _, v := range latencyVariables {
		for val := v.min; val <= maxLat; val++ {
			m := baseline
			m.Name = fmt.Sprintf("%s[%s=%d]", baseline.Name, v.name, val)
			v.set(&m.Lat, val)
			points = append(points, LatencyPoint{Variable: v.name, Value: val})
			arms = append(arms, arm(cfg, m, set))
		}
	}
	return ablation(workloads, scale, arms, points, func(p *LatencyPoint, r armResults) { p.Speedup = r.speedup })
}

// SchemeResult is one row of a design-space ablation.
type SchemeResult struct {
	Scheme  string
	Speedup float64
}

// SchemeAblation is the study of one arm per name: template(i) is arm i's
// spec template (config, model, setting and any component closures, but no
// workload). Every arm runs on every workload against the base machine of
// its config and folds to its harmonic-mean speedup.
func SchemeAblation(workloads []bench.Workload, scale int, names []string, template func(i int) Spec) *Study[[]SchemeResult] {
	rows := make([]SchemeResult, len(names))
	arms := make([]Spec, len(names))
	for i, name := range names {
		rows[i].Scheme = name
		arms[i] = template(i)
	}
	return ablation(workloads, scale, arms, rows, func(row *SchemeResult, r armResults) { row.Speedup = r.speedup })
}

// schemes is the scheme ablation with one arm per label: baseline under
// set on cfg, changed by change.
func schemes(cfg cpu.Config, baseline core.Model, set Setting, workloads []bench.Workload, scale int,
	labels []string, change func(i int, s *Spec, m *core.Model)) *Study[[]SchemeResult] {

	return SchemeAblation(workloads, scale, labels, func(i int) Spec {
		s := arm(cfg, baseline, set)
		change(i, &s, s.Model)
		return s
	})
}

// modelSchemes is schemes over model changes; arm i's model is renamed
// baseline+labels[i], so the spec report tells the arms apart.
func modelSchemes(cfg cpu.Config, baseline core.Model, set Setting, workloads []bench.Workload, scale int,
	labels []string, change func(i int, s *Spec, m *core.Model)) *Study[[]SchemeResult] {

	return schemes(cfg, baseline, set, workloads, scale, labels, func(i int, s *Spec, m *core.Model) {
		m.Name = baseline.Name + "+" + labels[i]
		change(i, s, m)
	})
}

// labelsOf returns the names of xs.
func labelsOf[T fmt.Stringer](xs []T) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = x.String()
	}
	return out
}

// always is the always-speculate confidence factory.
func always() confidence.Estimator { return confidence.Always{} }

// VerificationAblation compares the four verification schemes of Section
// 3.2 under the given baseline model and setting.
func VerificationAblation(cfg cpu.Config, baseline core.Model, set Setting,
	workloads []bench.Workload, scale int) *Study[[]SchemeResult] {

	vs := []core.VerificationScheme{core.VerifyParallel, core.VerifyHierarchical, core.VerifyRetirement, core.VerifyHybrid}
	return modelSchemes(cfg, baseline, set, workloads, scale, labelsOf(vs), func(i int, _ *Spec, m *core.Model) {
		m.Verification = vs[i]
	})
}

// InvalidationAblation compares the three invalidation schemes of Section
// 3.1. Because real confidence keeps misspeculation rare (the paper's
// explanation for why slow invalidation can be acceptable), the ablation
// also runs with always-speculate confidence to expose the schemes.
func InvalidationAblation(cfg cpu.Config, baseline core.Model, set Setting,
	workloads []bench.Workload, scale int, alwaysSpeculate bool) *Study[[]SchemeResult] {

	is := []core.InvalidationScheme{core.InvalidateParallel, core.InvalidateHierarchical, core.InvalidateComplete}
	return modelSchemes(cfg, baseline, set, workloads, scale, labelsOf(is), func(i int, s *Spec, m *core.Model) {
		m.Invalidation = is[i]
		if alwaysSpeculate {
			s.NewConfidence = always
		}
	})
}

// ResolutionAblation compares valid-only and speculative resolution for
// branches and memory (Section 3.2, the Sodani-Sohi comparison).
func ResolutionAblation(cfg cpu.Config, baseline core.Model, set Setting,
	workloads []bench.Workload, scale int) *Study[[]SchemeResult] {

	valid, spec := core.ResolveValidOnly, core.ResolveSpeculative
	policies := [][2]core.ResolutionPolicy{{valid, valid}, {spec, valid}, {valid, spec}, {spec, spec}}
	names := []string{"branch=valid mem=valid", "branch=spec  mem=valid", "branch=valid mem=spec", "branch=spec  mem=spec"}
	return modelSchemes(cfg, baseline, set, workloads, scale, names, func(i int, _ *Spec, m *core.Model) {
		m.BranchResolution, m.MemResolution = policies[i][0], policies[i][1]
	})
}

// ForwardingAblation compares forwarding speculative values against holding
// them back (Section 2.2, the Rychlik et al. alternative).
func ForwardingAblation(cfg cpu.Config, baseline core.Model, set Setting,
	workloads []bench.Workload, scale int) *Study[[]SchemeResult] {

	return modelSchemes(cfg, baseline, set, workloads, scale, []string{"forward", "no-forward"},
		func(i int, _ *Spec, m *core.Model) { m.ForwardSpeculative = i == 0 })
}

// PredictorAblation compares the paper's FCM against last-value and stride
// prediction under the baseline model.
func PredictorAblation(cfg cpu.Config, baseline core.Model, set Setting,
	workloads []bench.Workload, scale int) *Study[[]SchemeResult] {

	preds := []func() vpred.Predictor{
		func() vpred.Predictor { return vpred.NewFCM(vpred.DefaultFCMConfig()) },
		func() vpred.Predictor { return vpred.NewLastValue(16) },
		func() vpred.Predictor { return vpred.NewStride(16) },
		func() vpred.Predictor { return vpred.NewHybrid(16, vpred.DefaultFCMConfig()) },
	}
	return schemes(cfg, baseline, set, workloads, scale, []string{"fcm", "last-value", "stride", "hybrid"},
		func(i int, s *Spec, _ *core.Model) { s.NewPredictor = preds[i] })
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
	workloads []bench.Workload, scale int, maxBits uint) *Study[[]ConfidencePoint] {

	var points []ConfidencePoint
	var arms []Spec
	for bits := uint(1); bits <= maxBits; bits++ {
		a := arm(cfg, baseline, set)
		a.NewConfidence = func() confidence.Estimator { return confidence.NewResetting(16, bits) }
		points = append(points, ConfidencePoint{CounterBits: bits})
		arms = append(arms, a)
	}
	return ablation(workloads, scale, arms, points, func(pt *ConfidencePoint, r armResults) {
		pt.Speedup = r.speedup
		pt.CH, pt.CL, pt.IH, pt.IL = meanBreakdown(r.runs)
	})
}

// WakeupAblation compares the any-value and limited wakeup policies
// (Section 3.4), with always-speculate confidence so reissues actually
// occur.
func WakeupAblation(cfg cpu.Config, baseline core.Model, set Setting,
	workloads []bench.Workload, scale int, alwaysSpeculate bool) *Study[[]SchemeResult] {

	ws := []core.WakeupPolicy{core.WakeupAnyValue, core.WakeupLimited}
	return modelSchemes(cfg, baseline, set, workloads, scale, labelsOf(ws), func(i int, s *Spec, m *core.Model) {
		m.Wakeup = ws[i]
		if alwaysSpeculate {
			s.NewConfidence = always
		}
	})
}

// SelectionAblation compares the paper's non-speculative-first selection
// against strict oldest-first selection (Section 3.5).
func SelectionAblation(cfg cpu.Config, baseline core.Model, set Setting,
	workloads []bench.Workload, scale int) *Study[[]SchemeResult] {

	ss := []core.SelectionPolicy{core.SelectNonSpecFirst, core.SelectOldestFirst}
	return modelSchemes(cfg, baseline, set, workloads, scale, labelsOf(ss), func(i int, _ *Spec, m *core.Model) {
		m.Selection = ss[i]
	})
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
	scale int, configs []cpu.Config) *Study[[]ScalingPoint] {

	var points []ScalingPoint
	var arms []Spec
	for _, cfg := range configs {
		points = append(points, ScalingPoint{Config: ConfigName(cfg)})
		arms = append(arms, arm(cfg, model, set))
	}
	return ablation(workloads, scale, arms, points, func(p *ScalingPoint, r armResults) {
		ipc := make(map[string]float64, len(r.base))
		for _, b := range r.base {
			ipc[b.Spec.Workload.Name] = b.IPC()
		}
		// The speedup fold already held every base IPC positive.
		p.BaseIPC, _ = harmonicMeanByName(ipc)
		p.Speedup = r.speedup
	})
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
	workloads []bench.Workload, scale int, bitsList []uint) *Study[[]GeometryPoint] {

	var points []GeometryPoint
	var arms []Spec
	for _, bits := range bitsList {
		a := arm(cfg, baseline, set)
		a.NewPredictor = func() vpred.Predictor {
			return vpred.NewFCM(vpred.FCMConfig{HistoryBits: bits, PredictionBits: bits, HistoryDepth: 4})
		}
		points = append(points, GeometryPoint{TableBits: bits})
		arms = append(arms, a)
	}
	return ablation(workloads, scale, arms, points, func(p *GeometryPoint, r armResults) {
		p.Speedup = r.speedup
		for _, res := range r.runs {
			p.Accuracy += res.Stats.PredictionAccuracy()
		}
		p.Accuracy /= float64(len(r.runs))
	})
}

// ScopeAblation compares predicting every register writer (the paper's
// setup) against Lipasti's original load-value prediction and an
// ALU-results-only scope.
func ScopeAblation(cfg cpu.Config, baseline core.Model, set Setting,
	workloads []bench.Workload, scale int) *Study[[]SchemeResult] {

	filters := []func(op isa.Op) bool{
		nil,
		func(op isa.Op) bool { return op == isa.LD },
		func(op isa.Op) bool { return op != isa.LD },
	}
	return schemes(cfg, baseline, set, workloads, scale, []string{"all reg-writers", "loads only", "non-loads only"},
		func(i int, s *Spec, _ *core.Model) { s.Predictable = filters[i] })
}

// BranchQualityAblation measures value-speculation speedup under gshare and
// under perfect branch prediction, against matching base machines — value
// speculation and control speculation compete for the same exposed ILP.
func BranchQualityAblation(cfg cpu.Config, baseline core.Model, set Setting,
	workloads []bench.Workload, scale int) *Study[[]SchemeResult] {

	return schemes(cfg, baseline, set, workloads, scale, []string{"gshare", "perfect branches"},
		func(i int, s *Spec, _ *core.Model) { s.Config.PerfectBranches = i == 1 })
}
