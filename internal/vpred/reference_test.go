package vpred

import (
	"fmt"
	"math/rand"
	"testing"
)

// The references below hold every PC-indexed table at its full modeled
// size, a plain slice indexed by the modeled mask, as the predictors did
// before their tables grew on demand. The property test and the fuzz target
// drive each shipped predictor and its reference in lockstep.

// fullIndex is the modeled PC index of a table of 1<<bits entries.
func fullIndex(pc int, bits uint) uint32 { return uint32(pc) & (uint32(1)<<bits - 1) }

// refFCM is the FCM with full-size history tables. It borrows the shipped
// FCM's prediction table, context hash and training rule, so the history
// tables are the only thing the two differ in.
type refFCM struct {
	*FCM
	hist, histArch []uint32
}

func newRefFCM(cfg FCMConfig) *refFCM {
	return &refFCM{
		FCM:      NewFCM(cfg),
		hist:     make([]uint32, 1<<cfg.HistoryBits),
		histArch: make([]uint32, 1<<cfg.HistoryBits),
	}
}

func (r *refFCM) Lookup(pc int) (int64, uint64) {
	ctx := r.hist[fullIndex(pc, r.cfg.HistoryBits)]
	return r.vals[ctx], uint64(ctx)
}

func (r *refFCM) TrainImmediate(pc int, cookie uint64, actual int64) {
	idx := fullIndex(pc, r.cfg.HistoryBits)
	r.hist[idx] = r.pushContext(r.hist[idx], actual)
	r.trainEntry(uint32(cookie), actual)
}

func (r *refFCM) SpeculateHistory(pc int, pred int64) {
	idx := fullIndex(pc, r.cfg.HistoryBits)
	r.hist[idx] = r.pushContext(r.hist[idx], pred)
}

func (r *refFCM) TrainDelayed(pc int, cookie uint64, pred, actual int64) {
	idx := fullIndex(pc, r.cfg.HistoryBits)
	r.histArch[idx] = r.pushContext(r.histArch[idx], actual)
	if pred != actual {
		r.hist[idx] = r.histArch[idx]
	}
	r.trainEntry(uint32(cookie), actual)
}

func (r *refFCM) Reset() {
	clear(r.hist)
	clear(r.histArch)
	r.FCM.Reset()
}

// refLastValue is the last-value predictor with a full-size table.
type refLastValue struct {
	bits  uint
	table []int64
}

func (l *refLastValue) Lookup(pc int) (int64, uint64) {
	idx := fullIndex(pc, l.bits)
	return l.table[idx], uint64(idx)
}
func (l *refLastValue) TrainImmediate(pc int, cookie uint64, actual int64) {
	l.table[cookie] = actual
}
func (l *refLastValue) SpeculateHistory(pc int, pred int64) {}
func (l *refLastValue) TrainDelayed(pc int, cookie uint64, pred, actual int64) {
	l.table[cookie] = actual
}
func (l *refLastValue) Reset() { clear(l.table) }

// refStride is the stride predictor with full-size tables.
type refStride struct {
	bits      uint
	last, str []int64
}

func newRefStride(bits uint) *refStride {
	return &refStride{bits: bits, last: make([]int64, 1<<bits), str: make([]int64, 1<<bits)}
}

func (s *refStride) Lookup(pc int) (int64, uint64) {
	idx := fullIndex(pc, s.bits)
	return s.last[idx] + s.str[idx], uint64(idx)
}
func (s *refStride) TrainImmediate(pc int, cookie uint64, actual int64) { s.train(cookie, actual) }
func (s *refStride) SpeculateHistory(pc int, pred int64)                {}
func (s *refStride) TrainDelayed(pc int, cookie uint64, pred, actual int64) {
	s.train(cookie, actual)
}
func (s *refStride) train(idx uint64, actual int64) {
	s.str[idx] = actual - s.last[idx]
	s.last[idx] = actual
}
func (s *refStride) Reset() {
	clear(s.last)
	clear(s.str)
}

// refHybrid is the tournament of refStride and refFCM with a full-size
// chooser table.
type refHybrid struct {
	stride  *refStride
	fcm     *refFCM
	bits    uint
	chooser []uint8
	ring    [4096]hybridSlot
	next    uint64
}

func newRefHybrid(bits uint, cfg FCMConfig) *refHybrid {
	return &refHybrid{stride: newRefStride(bits), fcm: newRefFCM(cfg), bits: bits, chooser: make([]uint8, 1<<bits)}
}

func (h *refHybrid) Lookup(pc int) (int64, uint64) {
	sp, sck := h.stride.Lookup(pc)
	fp, fck := h.fcm.Lookup(pc)
	ck := h.next % uint64(len(h.ring))
	h.next++
	h.ring[ck] = hybridSlot{strideCk: sck, fcmCk: fck, stridePred: sp, fcmPred: fp}
	if h.chooser[fullIndex(pc, h.bits)] >= 2 {
		return fp, ck
	}
	return sp, ck
}

func (h *refHybrid) train(pc int, s hybridSlot, actual int64) {
	strideOK, fcmOK := s.stridePred == actual, s.fcmPred == actual
	c := &h.chooser[fullIndex(pc, h.bits)]
	switch {
	case fcmOK && !strideOK && *c < 3:
		*c++
	case strideOK && !fcmOK && *c > 0:
		*c--
	}
}

func (h *refHybrid) TrainImmediate(pc int, cookie uint64, actual int64) {
	s := h.ring[cookie%uint64(len(h.ring))]
	h.train(pc, s, actual)
	h.stride.TrainImmediate(pc, s.strideCk, actual)
	h.fcm.TrainImmediate(pc, s.fcmCk, actual)
}
func (h *refHybrid) SpeculateHistory(pc int, pred int64) { h.fcm.SpeculateHistory(pc, pred) }
func (h *refHybrid) TrainDelayed(pc int, cookie uint64, pred, actual int64) {
	s := h.ring[cookie%uint64(len(h.ring))]
	h.train(pc, s, actual)
	h.stride.TrainDelayed(pc, s.strideCk, s.stridePred, actual)
	h.fcm.TrainDelayed(pc, s.fcmCk, s.fcmPred, actual)
}
func (h *refHybrid) Reset() {
	h.stride.Reset()
	h.fcm.Reset()
	clear(h.chooser)
	h.ring = [4096]hybridSlot{}
	h.next = 0
}

// predictorPair builds predictor kind (0 FCM, 1 last value, 2 stride,
// 3 hybrid) with 1<<bits PC-indexed entries per table, and its reference.
func predictorPair(kind int, bits, predBits uint) (string, Predictor, Predictor) {
	cfg := FCMConfig{HistoryBits: bits, PredictionBits: predBits, HistoryDepth: 4}
	switch kind % 4 {
	case 0:
		return "fcm", NewFCM(cfg), newRefFCM(cfg)
	case 1:
		return "last-value", NewLastValue(bits), &refLastValue{bits: bits, table: make([]int64, 1<<bits)}
	case 2:
		return "stride", NewStride(bits), newRefStride(bits)
	default:
		return "hybrid", NewHybrid(bits, cfg), newRefHybrid(bits, cfg)
	}
}

// predOp is one step of a predictor stream: predict the instruction at pc
// and train it with val, or, with reset set, Reset both predictors.
type predOp struct {
	pc    int
	val   int64
	reset bool
}

// inFlight is a prediction awaiting its delayed-update training.
type inFlight struct {
	pc        int
	ck, refCk uint64
	pred, val int64
}

// lockstep drives p and ref through ops under one update discipline and
// reports the first step where their predictions, cookies or counts of
// correct predictions differ. Delayed update keeps up to window
// predictions in flight and trains them oldest first at "retirement", as
// the pipeline does.
func lockstep(p, ref Predictor, ops []predOp, delayed bool, window int) error {
	var q []inFlight
	correct, refCorrect := 0, 0
	retire := func() {
		f := q[0]
		q = q[1:]
		p.TrainDelayed(f.pc, f.ck, f.pred, f.val)
		ref.TrainDelayed(f.pc, f.refCk, f.pred, f.val)
	}
	for i, op := range ops {
		if op.reset {
			for len(q) > 0 {
				retire()
			}
			p.Reset()
			ref.Reset()
			continue
		}
		pred, ck := p.Lookup(op.pc)
		rpred, rck := ref.Lookup(op.pc)
		if pred != rpred || ck != rck {
			return fmt.Errorf("step %d pc %#x: Lookup = (%d, %d), reference (%d, %d)", i, op.pc, pred, ck, rpred, rck)
		}
		if pred == op.val {
			correct++
		}
		if rpred == op.val {
			refCorrect++
		}
		if !delayed {
			p.TrainImmediate(op.pc, ck, op.val)
			ref.TrainImmediate(op.pc, rck, op.val)
			continue
		}
		p.SpeculateHistory(op.pc, pred)
		ref.SpeculateHistory(op.pc, rpred)
		q = append(q, inFlight{pc: op.pc, ck: ck, refCk: rck, pred: pred, val: op.val})
		if len(q) > window {
			retire()
		}
	}
	if correct != refCorrect {
		return fmt.Errorf("%d correct predictions, reference %d", correct, refCorrect)
	}
	return nil
}

// randomStream draws n ops over a few static instructions: some at small
// dense PCs, as a kernel's, and some up to 2^20, of which some differ from
// another by a multiple of 1<<bits, so they alias in the modeled tables. Values follow per-PC periodic, strided and constant patterns with
// noise, so every predictor is right often enough to train its tables, and
// one op in about 500 is a Reset.
func randomStream(rng *rand.Rand, n int, bits uint) []predOp {
	pcs := make([]int, 2+rng.Intn(30))
	for i := range pcs {
		switch rng.Intn(3) {
		case 0:
			pcs[i] = i // a kernel's dense PCs
		case 1:
			pcs[i] = rng.Intn(1 << 20)
		default:
			if i > 0 { // an alias of an earlier PC
				pcs[i] = (pcs[rng.Intn(i)] + (1+rng.Intn(3))<<bits) & (1<<20 - 1)
			}
		}
	}
	count := make([]int64, len(pcs))
	ops := make([]predOp, n)
	for i := range ops {
		if rng.Intn(500) == 0 {
			ops[i] = predOp{reset: true}
			continue
		}
		k := rng.Intn(len(pcs))
		c := count[k]
		count[k]++
		var v int64
		switch k % 4 {
		case 0:
			v = []int64{3, 1, 4, 1, 5}[c%5]
		case 1:
			v = 100 + 8*c
		case 2:
			v = 42
		default:
			v = rng.Int63n(4)
		}
		if rng.Intn(20) == 0 {
			v = rng.Int63()
		}
		ops[i] = predOp{pc: pcs[k], val: v}
	}
	return ops
}

// TestPredictorsMatchReference runs every predictor kind against its
// full-table reference on random streams, at table sizes of 2^8 to 2^20
// entries, under both update disciplines.
func TestPredictorsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	runs := 48
	if testing.Short() {
		runs = 12
	}
	for r := 0; r < runs; r++ {
		kind, bits, predBits := r%4, uint(8+rng.Intn(13)), uint(4+rng.Intn(13))
		delayed := r/4%2 == 1
		name, p, ref := predictorPair(kind, bits, predBits)
		ops := randomStream(rng, 4000, bits)
		if err := lockstep(p, ref, ops, delayed, 1+rng.Intn(16)); err != nil {
			t.Errorf("%s, %d PC bits, %d prediction bits, delayed %t: %v", name, bits, predBits, delayed, err)
		}
	}
}

// FuzzPredictorsMatchReference decodes each input into a predictor kind, a
// table size of 2^8 to 2^20 entries, an update discipline and up to 2,048
// ops, and runs the predictor and its full-table reference in lockstep.
func FuzzPredictorsMatchReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 1, 0, 0, 7, 1, 0, 0, 7, 1, 0, 0, 7})
	f.Add([]byte{1, 8, 1, 8, 0, 0, 1, 1, 0, 1, 1, 2, 0xff, 0, 0, 0, 0, 0, 1, 1})
	f.Add([]byte{2, 12, 0, 0, 5, 0, 0, 9, 5, 0, 0, 10, 5, 0, 0, 11, 5, 16, 0, 12})
	f.Add([]byte{3, 5, 1, 2, 9, 0, 0, 3, 9, 0, 0, 3, 9, 16, 0, 3, 0xff, 9, 0, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		bits := 8 + uint(data[1]%13)
		name, p, ref := predictorPair(int(data[0]), bits, 4+uint(data[3]%13))
		delayed, window := data[2]&1 == 1, 1+int(data[2]>>1)%16
		ops := fuzzOps(data[4:], bits)
		if err := lockstep(p, ref, ops, delayed, window); err != nil {
			t.Fatalf("%s, %d PC bits, delayed %t: %v", name, bits, delayed, err)
		}
	})
}

// fuzzOps decodes four bytes per op: a PC's low byte, a multiple of the
// table size to add to it (so a PC reaches 2^20 and aliases), and two bytes
// whose difference is the value; a first byte of 0xff is a Reset.
func fuzzOps(data []byte, bits uint) []predOp {
	n := min(len(data)/4, 2048)
	ops := make([]predOp, n)
	for i := range ops {
		b := data[4*i : 4*i+4]
		if b[0] == 0xff {
			ops[i] = predOp{reset: true}
			continue
		}
		pc := (int(b[0]) + int(b[1])<<bits) & (1<<20 - 1)
		ops[i] = predOp{pc: pc, val: int64(b[3]) - int64(b[2])}
	}
	return ops
}
