package vpred

import "valuespec/internal/pctable"

// Hybrid is a two-component tournament predictor: a stride predictor and a
// context-based FCM arbitrated by per-PC 2-bit chooser counters. The paper's
// related work (Section 3) points at hybrid organizations as the natural
// next step beyond single-scheme predictors; this implementation lets the
// harness quantify that step.
type Hybrid struct {
	stride  *Stride
	fcm     *FCM
	chooser pctable.Table[uint8] // per-PC 2-bit counters; >= 2 selects the FCM

	// In-flight prediction state, addressed by a ring cookie. The ring only
	// needs to cover predictions outstanding between Lookup and training,
	// which is bounded by the instruction window; 4096 slots is generous.
	ring [4096]hybridSlot
	next uint64
}

type hybridSlot struct {
	strideCk, fcmCk     uint64
	stridePred, fcmPred int64
}

var _ Predictor = (*Hybrid)(nil)

// NewHybrid returns a tournament of NewStride(bits) and an FCM with the
// given configuration, with 1<<bits chooser counters.
func NewHybrid(bits uint, fcmCfg FCMConfig) *Hybrid {
	return &Hybrid{
		stride:  NewStride(bits),
		fcm:     NewFCM(fcmCfg),
		chooser: pctable.New[uint8](bits),
	}
}

// Lookup implements Predictor.
func (h *Hybrid) Lookup(pc int) (int64, uint64) {
	sp, sck := h.stride.Lookup(pc)
	fp, fck := h.fcm.Lookup(pc)
	ck := h.next % uint64(len(h.ring))
	h.next++
	h.ring[ck] = hybridSlot{strideCk: sck, fcmCk: fck, stridePred: sp, fcmPred: fp}
	if h.chooser.Get(h.chooser.Index(pc)) >= 2 {
		return fp, ck
	}
	return sp, ck
}

// train updates the chooser toward whichever component was right when they
// disagree in correctness.
func (h *Hybrid) train(pc int, s hybridSlot, actual int64) {
	strideOK, fcmOK := s.stridePred == actual, s.fcmPred == actual
	idx := h.chooser.Index(pc)
	switch c := h.chooser.Get(idx); {
	case fcmOK && !strideOK && c < 3:
		h.chooser.Set(idx, c+1)
	case strideOK && !fcmOK && c > 0:
		h.chooser.Set(idx, c-1)
	}
}

// TrainImmediate implements Predictor.
func (h *Hybrid) TrainImmediate(pc int, cookie uint64, actual int64) {
	s := h.ring[cookie%uint64(len(h.ring))]
	h.train(pc, s, actual)
	h.stride.TrainImmediate(pc, s.strideCk, actual)
	h.fcm.TrainImmediate(pc, s.fcmCk, actual)
}

// SpeculateHistory implements Predictor.
func (h *Hybrid) SpeculateHistory(pc int, pred int64) {
	h.fcm.SpeculateHistory(pc, pred)
}

// TrainDelayed implements Predictor.
func (h *Hybrid) TrainDelayed(pc int, cookie uint64, pred, actual int64) {
	s := h.ring[cookie%uint64(len(h.ring))]
	h.train(pc, s, actual)
	h.stride.TrainDelayed(pc, s.strideCk, s.stridePred, actual)
	h.fcm.TrainDelayed(pc, s.fcmCk, s.fcmPred, actual)
}

// Reset implements Predictor.
func (h *Hybrid) Reset() {
	h.stride.Reset()
	h.fcm.Reset()
	h.chooser.Reset()
	h.ring = [4096]hybridSlot{}
	h.next = 0
}
