package harness

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"valuespec/internal/bench"
	"valuespec/internal/core"
	"valuespec/internal/cpu"
	"valuespec/internal/obs"
	"valuespec/internal/vpred"
)

// everyStudy returns every study vsweep runs, on the given workloads at
// scale 1 on 4/24.
func everyStudy(ws []bench.Workload) []AnyStudy {
	cfg := cpu.Config4x24()
	great := core.Great()
	set := Setting{Update: cpu.UpdateImmediate}
	return []AnyStudy{
		Fig3([]cpu.Config{cfg}, core.Presets(), PaperSettings(), ws, 1),
		Fig4([]cpu.Config{cfg}, ws, 1),
		LatencySensitivity(cfg, great, set, ws, 1, 1),
		VerificationAblation(cfg, great, set, ws, 1),
		InvalidationAblation(cfg, great, set, ws, 1, false),
		InvalidationAblation(cfg, great, set, ws, 1, true),
		ResolutionAblation(cfg, great, set, ws, 1),
		ForwardingAblation(cfg, great, set, ws, 1),
		WakeupAblation(cfg, great, set, ws, 1, true),
		SelectionAblation(cfg, great, set, ws, 1),
		PredictorAblation(cfg, great, set, ws, 1),
		ScalingSweep(great, set, ws, 1, []cpu.Config{{IssueWidth: 2, WindowSize: 12}, cfg}),
		ScopeAblation(cfg, great, set, ws, 1),
		BranchQualityAblation(cfg, great, set, ws, 1),
		PredictorGeometrySweep(cfg, great, set, ws, 1, []uint{6, 10}),
		ConfidenceSweep(cfg, great, set, ws, 1, 2),
	}
}

// out returns a study's fold output, whatever its type.
func out(st AnyStudy) any { return reflect.ValueOf(st).Elem().FieldByName("Out").Interface() }

// tracked returns a batch that reports into a fresh progress tracker, and
// the tracker.
func tracked() (func(context.Context, []Spec) ([]Result, error), *Progress) {
	pr := NewProgress(obs.NewSharedRegistry())
	return func(ctx context.Context, specs []Spec) ([]Result, error) { return SimulateBatch(ctx, specs, pr) }, pr
}

// TestRunMatchesSeparateRuns runs every study, on the two shortest kernels,
// once as a single run and once each on its own: the folds must match bit
// for bit (== on every float64, none of which is zero or NaN), the single
// run must simulate fewer specs than it was asked for, and the spec report
// must still record every spec that asked.
func TestRunMatchesSeparateRuns(t *testing.T) {
	var ws []bench.Workload
	for _, name := range []string{"gcc", "m88ksim"} {
		w, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	together := everyStudy(ws)
	asked, speculative := 0, 0
	for _, st := range together {
		for _, s := range st.specs() {
			asked++
			if s.Model != nil {
				speculative++
			}
		}
	}
	batch, pr := tracked()
	results, err := Run(context.Background(), batch, together...)
	if err != nil {
		t.Fatal(err)
	}
	simulated := pr.Snapshot().SpecsTotal
	if simulated >= int64(asked) || len(results) != asked {
		t.Errorf("one run simulated %d specs and returned %d results for %d asked", simulated, len(results), asked)
	}
	recorded := 0
	for _, row := range SpecReportRows(results) {
		recorded += row.Specs
	}
	if recorded != speculative {
		t.Errorf("spec report recorded %d specs, want all %d speculative specs asked", recorded, speculative)
	}
	t.Logf("%d specs asked, %d simulated", asked, simulated)

	for i, st := range everyStudy(ws) {
		runStudies(t, st)
		if got, want := out(st), out(together[i]); !reflect.DeepEqual(got, want) {
			t.Errorf("study %d: on its own %v, in one run %v", i, got, want)
		}
	}
}

// TestRunDeduplicatesByContent holds the merge rule: a renamed model with
// the same content is simulated once and each result carries the spec that
// asked; a closure spec always runs, even when its content equals a
// closure-free spec; a nameless model is never merged, so its validation
// error surfaces.
func TestRunDeduplicatesByContent(t *testing.T) {
	w := testWorkloads(t)[0]
	great := core.Great()
	twin := great
	twin.Name = "great-twin"
	spec := Spec{Workload: w, Scale: 1, Config: cpu.Config4x24(), Model: &great, Setting: Setting{Update: cpu.UpdateImmediate}}
	renamed := spec
	renamed.Model = &twin
	closure := spec
	closure.NewPredictor = func() vpred.Predictor { return vpred.NewFCM(vpred.DefaultFCMConfig()) }
	asIs := func(specs ...Spec) *Study[[]Result] {
		return &Study[[]Result]{Specs: specs, Fold: func(rs []Result) ([]Result, error) { return rs, nil }}
	}

	batch, pr := tracked()
	st := asIs(spec, renamed, closure)
	if _, err := Run(context.Background(), batch, st); err != nil {
		t.Fatal(err)
	}
	if n := pr.Snapshot().SpecsTotal; n != 2 {
		t.Errorf("simulated %d specs, want 2: the renamed twin merges, the closure spec runs", n)
	}
	for i, r := range st.Out {
		if r.Spec.Model != st.Specs[i].Model {
			t.Errorf("result %d carries model %q, asked with %q", i, r.Spec.Model.Name, st.Specs[i].Model.Name)
		}
		if *r.Stats != *st.Out[0].Stats {
			t.Errorf("result %d: stats differ from the first spec's", i)
		}
	}

	nameless := great
	nameless.Name = ""
	unnamed := spec
	unnamed.Model = &nameless
	_, err := Run(context.Background(), SimulateAllCtx, asIs(spec, unnamed))
	var be *BatchError
	if !errors.As(err, &be) || len(be.Failures) != 1 || be.Failures[0].Index != 1 {
		t.Fatalf("nameless model: got %v, want one failure at index 1", err)
	}
}

// TestRunChecksBatchLength: a batch that answers with fewer or more results
// than the specs it was given fails the run instead of folding misaligned
// results.
func TestRunChecksBatchLength(t *testing.T) {
	w := testWorkloads(t)[0]
	st := Fig4([]cpu.Config{cpu.Config4x24()}, []bench.Workload{w}, 1)
	for _, skew := range []int{-1, 1} {
		batch := func(ctx context.Context, specs []Spec) ([]Result, error) {
			rs, err := SimulateAllCtx(ctx, specs)
			if skew < 0 {
				return rs[:len(rs)-1], err
			}
			return append(rs, rs[0]), err
		}
		if _, err := Run(context.Background(), batch, st); err == nil ||
			!strings.Contains(err.Error(), "results for 2 specs") {
			t.Errorf("skew %d: err = %v, want a result-count error", skew, err)
		}
	}
}
