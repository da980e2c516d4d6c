package harness

import (
	"context"
	"testing"

	"valuespec/internal/bench"
	"valuespec/internal/core"
	"valuespec/internal/cpu"
)

// fig3Batch builds a reduced Fig. 3-shaped batch: per-workload base runs
// plus model x setting x workload speculative runs on one configuration.
func fig3Batch(scaleDiv int) []Spec {
	cfg := cpu.Config8x48()
	models := core.Presets()
	settings := []Setting{
		{Update: cpu.UpdateDelayed},
		{Update: cpu.UpdateImmediate},
	}
	var specs []Spec
	for _, w := range bench.All() {
		scale := w.DefaultScale / scaleDiv
		if scale < 1 {
			scale = 1
		}
		specs = append(specs, Spec{Workload: w, Scale: scale, Config: cfg})
		for _, set := range settings {
			for i := range models {
				specs = append(specs, Spec{
					Workload: w, Scale: scale, Config: cfg,
					Model: &models[i], Setting: set,
				})
			}
		}
	}
	return specs
}

// BenchmarkSimulateAllCached measures a Fig. 3-shaped SimulateAll batch with
// and without the trace cache. "uncached" re-builds and re-emulates every
// workload per spec (execute-driven, as harness.Simulate runs); "cached"
// emulates each workload once into a compact recording and replays it for
// the remaining specs in the batch.
func BenchmarkSimulateAllCached(b *testing.B) {
	specs := fig3Batch(12)
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := simulateAll(context.Background(), specs, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := simulateAll(context.Background(), specs, NewTraceCache(), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
