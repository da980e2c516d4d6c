package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"testing"

	"valuespec/internal/bench"
	"valuespec/internal/core"
	"valuespec/internal/cpu"
	"valuespec/internal/harness"
)

// vsweepStudy is one study of vsweep -all, named after its flag.
type vsweepStudy struct {
	name  string
	study harness.AnyStudy
}

// vsweepStudies returns the sixteen studies of vsweep -all with vsweep's
// parameters: Fig. 3 and Fig. 4 on configs, every ablation and sweep on
// 8/48 under the Great model, immediate update and real confidence.
func vsweepStudies(configs []cpu.Config, ws []bench.Workload, scale int) []vsweepStudy {
	cfg := cpu.Config8x48()
	great := core.Great()
	set := harness.Setting{Update: cpu.UpdateImmediate}
	return []vsweepStudy{
		{"fig3", harness.Fig3(configs, core.Presets(), harness.PaperSettings(), ws, scale)},
		{"fig4", harness.Fig4(configs, ws, scale)},
		{"latency", harness.LatencySensitivity(cfg, great, set, ws, scale, 4)},
		{"verification", harness.VerificationAblation(cfg, great, set, ws, scale)},
		{"invalidation", harness.InvalidationAblation(cfg, great, set, ws, scale, false)},
		{"invalidation always-speculate", harness.InvalidationAblation(cfg, great, set, ws, scale, true)},
		{"resolution", harness.ResolutionAblation(cfg, great, set, ws, scale)},
		{"forwarding", harness.ForwardingAblation(cfg, great, set, ws, scale)},
		{"wakeup", harness.WakeupAblation(cfg, great, set, ws, scale, true)},
		{"selection", harness.SelectionAblation(cfg, great, set, ws, scale)},
		{"predictors", harness.PredictorAblation(cfg, great, set, ws, scale)},
		{"scaling", harness.ScalingSweep(great, set, ws, scale, harness.DefaultScalingConfigs())},
		{"scope", harness.ScopeAblation(cfg, great, set, ws, scale)},
		{"branchq", harness.BranchQualityAblation(cfg, great, set, ws, scale)},
		{"geometry", harness.PredictorGeometrySweep(cfg, great, set, ws, scale, []uint{8, 10, 12, 14, 16})},
		{"confsweep", harness.ConfidenceSweep(cfg, great, set, ws, scale, 5)},
	}
}

// closureStudies are the studies of vsweep -all that hold a component
// closure, so FromHarness refuses them.
var closureStudies = []string{"invalidation always-speculate", "wakeup", "predictors", "scope", "geometry", "confsweep"}

// field returns a study's exported field, whatever its output type.
func field(st harness.AnyStudy, name string) any {
	return reflect.ValueOf(st).Elem().FieldByName(name).Interface()
}

// submittable splits studies into those whose every spec FromHarness
// converts and the names of the rest.
func submittable(studies []vsweepStudy) (sent []harness.AnyStudy, refused []string) {
	for _, s := range studies {
		ok := true
		for _, hs := range field(s.study, "Specs").([]harness.Spec) {
			if _, err := FromHarness(hs); err != nil {
				ok = false
				break
			}
		}
		if ok {
			sent = append(sent, s.study)
		} else {
			refused = append(refused, s.name)
		}
	}
	return sent, refused
}

// distinctSpecs returns the specs harness.Run hands its batch for studies:
// each distinct spec once, in the order first asked.
func distinctSpecs(t *testing.T, studies ...harness.AnyStudy) []harness.Spec {
	t.Helper()
	var got []harness.Spec
	stop := errors.New("captured")
	_, err := harness.Run(context.Background(), func(_ context.Context, specs []harness.Spec) ([]harness.Result, error) {
		got = specs
		return nil, stop
	}, studies...)
	if !errors.Is(err, stop) {
		t.Fatalf("Run: %v", err)
	}
	return got
}

// overTheWire is a batch that sends its specs the way vsweep -submit sends
// them and a daemon receives them, FromHarness, a JSON Request, decoding,
// Validate and HarnessSpecs, then simulates what arrived.
func overTheWire(ctx context.Context, specs []harness.Spec) ([]harness.Result, error) {
	req := Request{Name: "vsweep"}
	for _, hs := range specs {
		ss, err := FromHarness(hs)
		if err != nil {
			return nil, err
		}
		req.Specs = append(req.Specs, ss)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var got Request
	if err := json.Unmarshal(body, &got); err != nil {
		return nil, err
	}
	if err := got.Validate(); err != nil {
		return nil, err
	}
	arrived, err := got.HarnessSpecs()
	if err != nil {
		return nil, err
	}
	return harness.SimulateAllCtx(ctx, arrived)
}

// TestVsweepStudiesOverTheWire runs every study of vsweep -all at scale 1 on
// the two shortest kernels, once locally and once through a batch that
// sends each spec over the wire: FromHarness refuses exactly the studies
// that hold a closure, and every other study folds to the same output
// either way.
func TestVsweepStudiesOverTheWire(t *testing.T) {
	var ws []bench.Workload
	for _, name := range []string{"gcc", "m88ksim"} {
		w, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	local := vsweepStudies([]cpu.Config{cpu.Config8x48()}, ws, 1)
	var all []harness.AnyStudy
	for _, s := range local {
		all = append(all, s.study)
	}
	if _, err := harness.Run(context.Background(), harness.SimulateAllCtx, all...); err != nil {
		t.Fatal(err)
	}

	remote := vsweepStudies([]cpu.Config{cpu.Config8x48()}, ws, 1)
	sent, refused := submittable(remote)
	if !slices.Equal(refused, closureStudies) {
		t.Errorf("FromHarness refused %q, want %q", refused, closureStudies)
	}
	if _, err := harness.Run(context.Background(), overTheWire, sent...); err != nil {
		t.Fatal(err)
	}
	for i, s := range remote {
		if slices.Contains(refused, s.name) {
			continue
		}
		if got, want := field(s.study, "Out"), field(local[i].study, "Out"); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: over the wire %v, locally %v", s.name, got, want)
		}
	}
}
