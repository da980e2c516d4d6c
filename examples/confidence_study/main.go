// Confidence study: the paper's Section 6 finds that confidence estimation,
// not predictor update timing, is the first-order performance lever — the
// 3-bit resetting counters keep misspeculation tiny (IH < 1%) at the cost of
// leaving 20-25% of correct predictions unused (CL).
//
// This example reproduces that analysis: it compares never/real/oracle/
// always confidence under the Great model, then sweeps the resetting-counter
// width to chart the coverage-versus-misspeculation tradeoff.
//
// Run with: go run ./examples/confidence_study  (takes a couple of minutes)
package main

import (
	"context"
	"fmt"
	"log"

	"valuespec"
	"valuespec/internal/harness"
	"valuespec/internal/textplot"
)

func main() {
	log.SetFlags(0)

	cfg := valuespec.Config8x48()
	model := valuespec.Great()
	setting := valuespec.Setting{Update: valuespec.UpdateImmediate}
	workloads := valuespec.Workloads()

	// The estimator comparison is a scheme ablation of its own: one arm per
	// estimator, each against the base machine on every workload.
	estimators := []struct {
		name string
		mk   func() valuespec.ConfidenceEstimator
	}{
		{"never (base)", valuespec.NeverConfidence},
		{"real 3-bit", func() valuespec.ConfidenceEstimator { return valuespec.NewResettingConfidence(16, 3) }},
		{"oracle", valuespec.OracleConfidence},
		{"always", valuespec.AlwaysConfidence},
	}
	var names []string
	for _, est := range estimators {
		names = append(names, est.name)
	}
	byEstimator := harness.SchemeAblation(workloads, 0, names, func(i int) valuespec.Spec {
		return valuespec.Spec{Config: cfg, Model: &model, Setting: setting, NewConfidence: estimators[i].mk}
	})
	// The counter-width sweep runs in the same batch and shares its base
	// runs with the comparison.
	sweep := harness.ConfidenceSweep(cfg, model, setting, workloads, 0, 5)
	if _, err := harness.Run(context.Background(), harness.SimulateAllCtx, byEstimator, sweep); err != nil {
		log.Fatal(err)
	}
	var bars []textplot.Bar
	for _, r := range byEstimator.Out {
		bars = append(bars, textplot.Bar{Label: r.Scheme, Value: r.Speedup})
	}
	fmt.Print(textplot.BarChart("Great model, I update — speedup by confidence estimator:", bars, 45, 1.0))

	fmt.Println("\nResetting-counter width sweep (coverage vs. misspeculation):")
	var cells [][]string
	for _, p := range sweep.Out {
		cells = append(cells, []string{
			fmt.Sprintf("%d", p.CounterBits),
			fmt.Sprintf("%d correct in a row", 1<<p.CounterBits-1),
			fmt.Sprintf("%.3f", p.Speedup),
			fmt.Sprintf("%.1f%%", 100*(p.CH+p.IH)),
			fmt.Sprintf("%.1f%%", 100*p.IH),
			fmt.Sprintf("%.1f%%", 100*p.CL),
		})
	}
	fmt.Print(textplot.Table(
		[]string{"Bits", "Threshold", "Speedup", "Speculated", "IH (bad)", "CL (wasted)"}, cells))
	fmt.Println("\nNarrow counters speculate eagerly (high IH); wide counters waste")
	fmt.Println("correct predictions (high CL). The paper's 3-bit choice sits between.")
}
