// Package bpred implements the branch predictor of the simulated processor.
//
// The paper uses a gshare predictor (McFarling) that hashes 16 bits of
// global branch history with the 16 low bits of the branch PC to index a
// 64K-entry table of 2-bit saturating counters. The predictor is updated
// with the correct outcome immediately following each prediction, so the
// global history register always holds the architecturally correct history.
// Unconditional and direct jumps are always predicted correctly, and
// conditional branch targets are correct whenever the direction is correct;
// the only source of control misspeculation is conditional-branch direction.
package bpred

// Gshare is the paper's branch direction predictor. Its 2-bit counters are
// packed four to a byte, counter i in bits 2(i&3) and 2(i&3)+1 of byte
// i>>2, so the paper's 64K counters take 16 KiB.
type Gshare struct {
	historyBits uint
	history     uint64
	table       []uint8 // packed 2-bit saturating counters, taken if >= 2

	// Stats
	Lookups int64
	Correct int64
}

// NewGshare returns a gshare predictor with historyBits of global history
// and a table of 1<<historyBits 2-bit counters (16 bits / 64K entries in the
// paper). Counters start weakly taken.
func NewGshare(historyBits uint) *Gshare {
	g := &Gshare{historyBits: historyBits, table: make([]uint8, (1<<historyBits+3)/4)}
	g.Reset()
	return g
}

// weaklyTaken is a table byte of four counters at 2, weakly taken.
const weaklyTaken = 0xAA

// HistoryBits returns the global-history length, which also sizes the
// counter table.
func (g *Gshare) HistoryBits() uint { return g.historyBits }

// Default returns the paper's configuration: 16 history bits, 64K counters.
func Default() *Gshare { return NewGshare(16) }

func (g *Gshare) index(pc int) uint64 {
	mask := uint64(1)<<g.historyBits - 1
	return (g.history ^ uint64(pc)) & mask
}

// counter returns the byte holding the counter that pc indexes and the
// counter's shift within it.
func (g *Gshare) counter(pc int) (*uint8, uint) {
	idx := g.index(pc)
	return &g.table[idx>>2], uint(idx&3) * 2
}

// Predict returns the predicted direction for the conditional branch at pc.
func (g *Gshare) Predict(pc int) bool {
	b, sh := g.counter(pc)
	return *b>>sh&3 >= 2
}

// PredictAndUpdate predicts the branch at pc, then immediately trains the
// predictor with the actual outcome (the paper's update discipline). It
// reports the predicted direction and whether it was correct.
func (g *Gshare) PredictAndUpdate(pc int, taken bool) (pred, correct bool) {
	b, sh := g.counter(pc)
	c := *b >> sh & 3
	pred = c >= 2
	correct = pred == taken

	// The counter saturates, so the step never carries into its neighbour.
	if taken {
		if c < 3 {
			*b += 1 << sh
		}
	} else if c > 0 {
		*b -= 1 << sh
	}
	g.history = g.history << 1
	if taken {
		g.history |= 1
	}

	g.Lookups++
	if correct {
		g.Correct++
	}
	return pred, correct
}

// Accuracy returns the fraction of correct direction predictions so far.
func (g *Gshare) Accuracy() float64 {
	if g.Lookups == 0 {
		return 0
	}
	return float64(g.Correct) / float64(g.Lookups)
}

// Reset restores the predictor to its initial state.
func (g *Gshare) Reset() {
	g.history = 0
	for i := range g.table {
		g.table[i] = weaklyTaken
	}
	g.Lookups, g.Correct = 0, 0
}
