// Custom predictor: the Predictor interface accepts user implementations,
// so the simulator doubles as a test bench for new value predictors.
//
// This example implements a two-component hybrid — a stride predictor and
// the paper's FCM arbitrated by per-PC chooser counters (the classic
// tournament organization) — and races it against the built-in predictors
// under the Great model.
//
// Run with: go run ./examples/custom_predictor
package main

import (
	"fmt"
	"log"

	"valuespec"
	"valuespec/internal/textplot"
)

// hybrid arbitrates between stride and FCM with 2-bit per-PC choosers.
type hybrid struct {
	stride    valuespec.Predictor
	fcm       valuespec.Predictor
	chooser   []uint8 // >= 2 selects the FCM
	states    map[uint64]*hybridState
	nextState uint64
}

func newHybrid() *hybrid {
	return &hybrid{
		stride:  valuespec.NewStridePredictor(16),
		fcm:     valuespec.NewFCM(valuespec.DefaultFCMConfig()),
		chooser: make([]uint8, 1<<16),
		states:  make(map[uint64]*hybridState),
	}
}

func (h *hybrid) slot(pc int) *uint8 { return &h.chooser[uint32(pc)&0xFFFF] }

// hybridState packs both components' cookies plus both predictions so
// training can credit the right component; the returned cookie is an id
// into the states map.
type hybridState struct {
	strideCk, fcmCk     uint64
	stridePred, fcmPred int64
}

func (h *hybrid) Lookup(pc int) (int64, uint64) {
	sp, sck := h.stride.Lookup(pc)
	fp, fck := h.fcm.Lookup(pc)
	id := h.nextState
	h.nextState++
	h.states[id] = &hybridState{strideCk: sck, fcmCk: fck, stridePred: sp, fcmPred: fp}
	if *h.slot(pc) >= 2 {
		return fp, id
	}
	return sp, id
}

func (h *hybrid) train(pc int, st *hybridState, actual int64) {
	// Credit assignment: move the chooser toward the component that was
	// right when they disagree in correctness.
	sOK, fOK := st.stridePred == actual, st.fcmPred == actual
	c := h.slot(pc)
	switch {
	case fOK && !sOK && *c < 3:
		*c++
	case sOK && !fOK && *c > 0:
		*c--
	}
}

func (h *hybrid) TrainImmediate(pc int, cookie uint64, actual int64) {
	st := h.states[cookie]
	delete(h.states, cookie)
	h.train(pc, st, actual)
	h.stride.TrainImmediate(pc, st.strideCk, actual)
	h.fcm.TrainImmediate(pc, st.fcmCk, actual)
}

func (h *hybrid) SpeculateHistory(pc int, pred int64) {
	h.fcm.SpeculateHistory(pc, pred)
}

func (h *hybrid) TrainDelayed(pc int, cookie uint64, pred, actual int64) {
	st := h.states[cookie]
	delete(h.states, cookie)
	h.train(pc, st, actual)
	h.stride.TrainDelayed(pc, st.strideCk, st.stridePred, actual)
	h.fcm.TrainDelayed(pc, st.fcmCk, st.fcmPred, actual)
}

func (h *hybrid) Reset() {
	h.stride.Reset()
	h.fcm.Reset()
	for i := range h.chooser {
		h.chooser[i] = 0
	}
	h.states = make(map[uint64]*hybridState)
}

func main() {
	log.SetFlags(0)

	cfg := valuespec.Config8x48()
	model := valuespec.Great()
	predictors := []struct {
		name string
		mk   func() valuespec.Predictor
	}{
		{"last-value", func() valuespec.Predictor { return valuespec.NewLastValuePredictor(16) }},
		{"stride", func() valuespec.Predictor { return valuespec.NewStridePredictor(16) }},
		{"fcm (paper)", func() valuespec.Predictor { return valuespec.NewFCM(valuespec.DefaultFCMConfig()) }},
		{"hybrid (custom)", func() valuespec.Predictor { return newHybrid() }},
	}

	// One batch: the base machine once per workload, then every
	// predictor on every workload, all run concurrently.
	workloads := valuespec.Workloads()
	var specs []valuespec.Spec
	for _, w := range workloads {
		specs = append(specs, valuespec.Spec{Workload: w, Config: cfg})
	}
	for _, pr := range predictors {
		for _, w := range workloads {
			m := model
			specs = append(specs, valuespec.Spec{
				Workload: w, Config: cfg, Model: &m,
				Setting:      valuespec.Setting{Update: valuespec.UpdateImmediate},
				NewPredictor: pr.mk,
			})
		}
	}
	results, err := valuespec.SimulateAll(specs)
	if err != nil {
		log.Fatal(err)
	}
	base, runs := results[:len(workloads)], results[len(workloads):]

	fmt.Println("Prediction accuracy and speedup by predictor (Great, I/R, 8/48):")
	var rows [][]string
	for i, pr := range predictors {
		var accSum, spSum float64
		for j := range workloads {
			res := runs[i*len(workloads)+j]
			accSum += res.Stats.PredictionAccuracy()
			spSum += res.IPC() / base[j].IPC()
		}
		n := float64(len(workloads))
		rows = append(rows, []string{
			pr.name,
			fmt.Sprintf("%.1f%%", 100*accSum/n),
			fmt.Sprintf("%.3f", spSum/n),
		})
	}
	fmt.Print(textplot.Table([]string{"Predictor", "Mean accuracy", "Mean speedup"}, rows))
}
