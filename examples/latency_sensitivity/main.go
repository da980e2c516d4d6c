// Latency sensitivity: the question an architect would ask with the paper's
// model in hand — "which speculation-event latencies must be fast, and where
// can the hardware afford to be lazy?"
//
// Starting from the Great model, each latency variable is swept
// independently from its minimum to three cycles over the benchmark suite,
// and the harmonic-mean speedup is charted. The paper's headline results
// appear directly: verification latency (ExecEqVerify) is critical, while
// invalidation-side latencies barely matter when real confidence keeps
// misspeculation rare.
//
// Run with: go run ./examples/latency_sensitivity  (takes a few minutes)
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
	baseline := valuespec.Great()
	setting := valuespec.Setting{Update: valuespec.UpdateImmediate}

	st := harness.LatencySensitivity(cfg, baseline, setting, valuespec.Workloads(), 0, 3)
	if _, err := harness.Run(context.Background(), harness.SimulateAllCtx, st); err != nil {
		log.Fatal(err)
	}

	byVar := map[string][]textplot.Bar{}
	var order []string
	for _, p := range st.Out {
		if _, seen := byVar[p.Variable]; !seen {
			order = append(order, p.Variable)
		}
		byVar[p.Variable] = append(byVar[p.Variable], textplot.Bar{
			Label: fmt.Sprintf("%d cycles", p.Value),
			Value: p.Speedup,
		})
	}
	for _, v := range order {
		fmt.Print(textplot.BarChart(v+" (| marks speedup 1.0):", byVar[v], 40, 1.0))
		fmt.Println()
	}
	fmt.Println("Reading: bars that fall as the latency grows mark hardware worth")
	fmt.Println("optimizing; flat groups mark events that tolerate slow circuits.")
}
