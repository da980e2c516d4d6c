// Package confidence implements confidence estimation for value predictions.
//
// The paper (Sections 3.6, 5.2) uses a 64K-entry table of 3-bit resetting
// counters indexed by instruction PC: a counter is incremented by one on a
// correct prediction and reset to zero on an incorrect one, and a prediction
// is considered confident only when its counter is saturated. The paper
// compares this "real" estimator against an oracle that speculates exactly
// on the predictions that will be correct.
package confidence

import "valuespec/internal/pctable"

// Estimator decides whether to speculate on a value prediction.
//
// willBeCorrect is the ground-truth outcome of the prediction, available to
// the simulator; realistic estimators must ignore it, the oracle returns it.
type Estimator interface {
	// Confident reports whether the prediction for pc should drive
	// speculation.
	Confident(pc int, willBeCorrect bool) bool
	// Update trains the estimator with the outcome of the prediction at pc.
	Update(pc int, correct bool)
	// Reset restores initial state.
	Reset()
}

// Resetting is the paper's table of saturating, resetting counters. The
// table holds only the PCs its program writes (see pctable).
type Resetting struct {
	max   uint8
	table pctable.Table[uint8]
}

var _ Estimator = (*Resetting)(nil)

// NewResetting returns an estimator with 1<<tableBits counters of
// counterBits bits each. The paper uses tableBits=16, counterBits=3.
func NewResetting(tableBits, counterBits uint) *Resetting {
	if counterBits == 0 || counterBits > 7 {
		panic("confidence: counterBits must be in [1,7]")
	}
	return &Resetting{
		max:   uint8(1)<<counterBits - 1,
		table: pctable.New[uint8](tableBits),
	}
}

// Default returns the paper's 64K-entry, 3-bit configuration.
func Default() *Resetting { return NewResetting(16, 3) }

// Confident implements Estimator: confident only at counter saturation.
func (r *Resetting) Confident(pc int, willBeCorrect bool) bool {
	return r.table.Get(r.table.Index(pc)) == r.max
}

// Update implements Estimator: increment on correct, reset on incorrect.
func (r *Resetting) Update(pc int, correct bool) {
	idx := r.table.Index(pc)
	if c := r.table.Get(idx); !correct {
		r.table.Set(idx, 0)
	} else if c < r.max {
		r.table.Set(idx, c+1)
	}
}

// Reset implements Estimator.
func (r *Resetting) Reset() { r.table.Reset() }

// Max returns the saturation value of the counters.
func (r *Resetting) Max() uint8 { return r.max }

// Oracle speculates exactly on the predictions that will be correct.
type Oracle struct{}

var _ Estimator = Oracle{}

// Confident implements Estimator.
func (Oracle) Confident(pc int, willBeCorrect bool) bool { return willBeCorrect }

// Update implements Estimator.
func (Oracle) Update(pc int, correct bool) {}

// Reset implements Estimator.
func (Oracle) Reset() {}

// Always speculates on every prediction; the no-confidence baseline used to
// show how essential confidence estimation is.
type Always struct{}

var _ Estimator = Always{}

// Confident implements Estimator.
func (Always) Confident(pc int, willBeCorrect bool) bool { return true }

// Update implements Estimator.
func (Always) Update(pc int, correct bool) {}

// Reset implements Estimator.
func (Always) Reset() {}

// Never disables value speculation entirely; with Never the value-speculative
// pipeline must behave exactly like the base processor (a property the test
// suite checks).
type Never struct{}

var _ Estimator = Never{}

// Confident implements Estimator.
func (Never) Confident(pc int, willBeCorrect bool) bool { return false }

// Update implements Estimator.
func (Never) Update(pc int, correct bool) {}

// Reset implements Estimator.
func (Never) Reset() {}
