// Package vpred implements value predictors.
//
// The paper's predictor (Section 5.2) is the Sazeides–Smith context-based
// (FCM) predictor: a first-level history table indexed by instruction PC
// holds a hashed context of the most recent 4 result values; the context
// indexes a second-level prediction table holding a 64-bit prediction and a
// 1-bit counter that guides replacement. Both tables have 64K direct-mapped
// entries. The history table is always updated; in immediate-update mode (I)
// it is updated with the correct value right after prediction, while in
// delayed-update mode (D) it is updated speculatively with the prediction at
// prediction time and the prediction table is trained at retirement.
//
// Last-value and stride predictors are provided for the design-space
// ablations discussed alongside the paper's related work.
//
// Every PC-indexed table here is a pctable.Table: it keeps the modeled size
// and index, and holds only the entries its program writes.
package vpred

import "valuespec/internal/pctable"

// Predictor is the interface between the pipeline and a value predictor.
//
// The timing simulator drives it in one of two disciplines:
//
//	immediate (I): pred, ck := Lookup(pc); TrainImmediate(pc, ck, actual)
//	delayed   (D): pred, ck := Lookup(pc); SpeculateHistory(pc, pred)
//	               ... at retirement: TrainDelayed(pc, ck, pred, actual)
//
// The cookie returned by Lookup captures whatever index state the predictor
// needs to train the right entry later (for the FCM, the second-level index
// live at prediction time).
type Predictor interface {
	// Lookup returns the predicted result for the instruction at pc.
	Lookup(pc int) (pred int64, cookie uint64)
	// TrainImmediate trains both levels with the correct value right after
	// prediction.
	TrainImmediate(pc int, cookie uint64, actual int64)
	// SpeculateHistory pushes the predicted value into the first-level
	// history at prediction time (delayed-update mode), so back-to-back
	// instances of the same instruction see advancing contexts.
	SpeculateHistory(pc int, pred int64)
	// TrainDelayed trains the prediction table at retirement
	// (delayed-update mode) and repairs the speculative history if the
	// prediction that advanced it was wrong.
	TrainDelayed(pc int, cookie uint64, pred, actual int64)
	// Reset restores initial state.
	Reset()
}

// FCMConfig parameterizes the context-based predictor.
type FCMConfig struct {
	HistoryBits    uint // log2 entries of the first-level (history) table; 16 in the paper
	PredictionBits uint // log2 entries of the second-level (prediction) table; 16 in the paper
	HistoryDepth   uint // values folded into the context; 4 in the paper
}

// DefaultFCMConfig returns the paper's 64K/64K, depth-4 configuration.
func DefaultFCMConfig() FCMConfig {
	return FCMConfig{HistoryBits: 16, PredictionBits: 16, HistoryDepth: 4}
}

// FCM is the two-level context-based predictor. In delayed-update mode the
// lookup history (hist) runs ahead speculatively while histArch tracks the
// architectural value sequence trained at retirement; a misprediction
// squashes the speculative history back to the architectural one, modeling
// the standard recovery of speculatively-updated predictor state.
//
// The prediction table is packed: the context-indexed values in one slice
// and their 1-bit replacement counters in a bitset beside it, 8 bytes and
// 1 bit per entry, so a recycled predictor has half as much to clear.
type FCM struct {
	cfg        FCMConfig
	hist       pctable.Table[uint32] // per-PC speculative context
	histArch   pctable.Table[uint32] // per-PC architectural context (delayed mode)
	vals       []int64               // context-indexed predictions
	counters   []uint64              // bitset: the 1-bit replacement counter of each vals entry
	bitsPerVal uint                  // context bits contributed by each value
}

var _ Predictor = (*FCM)(nil)

// NewFCM builds a context-based predictor; it panics on a configuration
// whose context cannot hold HistoryDepth values (static misconfiguration).
func NewFCM(cfg FCMConfig) *FCM {
	if cfg.HistoryDepth == 0 || cfg.PredictionBits == 0 || cfg.HistoryBits == 0 {
		panic("vpred: FCMConfig fields must be positive")
	}
	bpv := cfg.PredictionBits / cfg.HistoryDepth
	if bpv == 0 {
		panic("vpred: PredictionBits must be >= HistoryDepth")
	}
	return &FCM{
		cfg:        cfg,
		hist:       pctable.New[uint32](cfg.HistoryBits),
		histArch:   pctable.New[uint32](cfg.HistoryBits),
		vals:       make([]int64, 1<<cfg.PredictionBits),
		counters:   make([]uint64, (1<<cfg.PredictionBits+63)/64),
		bitsPerVal: bpv,
	}
}

// Config returns the predictor geometry.
func (f *FCM) Config() FCMConfig { return f.cfg }

// foldValue hashes a 64-bit value down to the context bits contributed per
// value, mixing all input bits so that small and large values spread.
func (f *FCM) foldValue(v int64) uint32 {
	x := uint64(v)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 29
	return uint32(x) & (uint32(1)<<f.bitsPerVal - 1)
}

// pushContext shifts v into context ctx, retiring the oldest value's bits.
func (f *FCM) pushContext(ctx uint32, v int64) uint32 {
	mask := uint32(1)<<f.cfg.PredictionBits - 1
	return ((ctx << f.bitsPerVal) | f.foldValue(v)) & mask
}

// Lookup implements Predictor. The cookie is the second-level index used.
func (f *FCM) Lookup(pc int) (int64, uint64) {
	ctx := f.hist.Get(f.hist.Index(pc))
	return f.vals[ctx], uint64(ctx)
}

// TrainImmediate implements Predictor.
func (f *FCM) TrainImmediate(pc int, cookie uint64, actual int64) {
	idx := f.hist.Index(pc)
	f.hist.Set(idx, f.pushContext(f.hist.Get(idx), actual))
	f.trainEntry(uint32(cookie), actual)
}

// SpeculateHistory implements Predictor.
func (f *FCM) SpeculateHistory(pc int, pred int64) {
	idx := f.hist.Index(pc)
	f.hist.Set(idx, f.pushContext(f.hist.Get(idx), pred))
}

// TrainDelayed implements Predictor.
func (f *FCM) TrainDelayed(pc int, cookie uint64, pred, actual int64) {
	idx := f.histArch.Index(pc)
	arch := f.pushContext(f.histArch.Get(idx), actual)
	f.histArch.Set(idx, arch)
	if pred != actual {
		// The speculative history consumed a wrong value; recover it to the
		// architectural sequence.
		f.hist.Set(idx, arch)
	}
	f.trainEntry(uint32(cookie), actual)
}

// trainEntry applies the 1-bit-counter replacement policy: a matching value
// sets the counter; a mismatch first clears the counter and only replaces
// the stored value once the counter is already clear.
func (f *FCM) trainEntry(ctx uint32, actual int64) {
	word, bit := &f.counters[ctx>>6], uint64(1)<<(ctx&63)
	switch {
	case f.vals[ctx] == actual:
		*word |= bit
	case *word&bit != 0:
		*word &^= bit
	default:
		f.vals[ctx] = actual
		*word |= bit
	}
}

// Reset implements Predictor.
func (f *FCM) Reset() {
	f.hist.Reset()
	f.histArch.Reset()
	clear(f.vals)
	clear(f.counters)
}

// LastValue predicts that an instruction produces the same value as its
// previous dynamic instance (Lipasti et al.). Used as an ablation baseline.
type LastValue struct {
	table pctable.Table[int64]
}

var _ Predictor = (*LastValue)(nil)

// NewLastValue returns a last-value predictor with 1<<bits entries.
func NewLastValue(bits uint) *LastValue {
	return &LastValue{table: pctable.New[int64](bits)}
}

// Lookup implements Predictor.
func (l *LastValue) Lookup(pc int) (int64, uint64) {
	idx := l.table.Index(pc)
	return l.table.Get(idx), uint64(idx)
}

// TrainImmediate implements Predictor.
func (l *LastValue) TrainImmediate(pc int, cookie uint64, actual int64) {
	l.table.Set(uint32(cookie), actual)
}

// SpeculateHistory implements Predictor: the last-value table *is* the
// history, so delayed mode inserts the prediction (a no-op value-wise, since
// the prediction is the table content) — nothing to do.
func (l *LastValue) SpeculateHistory(pc int, pred int64) {}

// TrainDelayed implements Predictor.
func (l *LastValue) TrainDelayed(pc int, cookie uint64, pred, actual int64) {
	l.table.Set(uint32(cookie), actual)
}

// Reset implements Predictor.
func (l *LastValue) Reset() { l.table.Reset() }

// Stride predicts value + stride from the last two dynamic instances
// (Gabbay–Mendelson). Used as an ablation baseline.
type Stride struct {
	last, str pctable.Table[int64]
}

var _ Predictor = (*Stride)(nil)

// NewStride returns a stride predictor with 1<<bits entries.
func NewStride(bits uint) *Stride {
	return &Stride{last: pctable.New[int64](bits), str: pctable.New[int64](bits)}
}

// Lookup implements Predictor.
func (s *Stride) Lookup(pc int) (int64, uint64) {
	idx := s.last.Index(pc)
	return s.last.Get(idx) + s.str.Get(idx), uint64(idx)
}

// TrainImmediate implements Predictor.
func (s *Stride) TrainImmediate(pc int, cookie uint64, actual int64) {
	s.train(uint32(cookie), actual)
}

// SpeculateHistory implements Predictor. In delayed mode the last/stride
// state is only trained at retirement, so prediction time does nothing.
func (s *Stride) SpeculateHistory(pc int, pred int64) {}

// TrainDelayed implements Predictor.
func (s *Stride) TrainDelayed(pc int, cookie uint64, pred, actual int64) {
	s.train(uint32(cookie), actual)
}

func (s *Stride) train(idx uint32, actual int64) {
	s.str.Set(idx, actual-s.last.Get(idx))
	s.last.Set(idx, actual)
}

// Reset implements Predictor.
func (s *Stride) Reset() {
	s.last.Reset()
	s.str.Reset()
}
