package bpred

import (
	"math/rand"
	"testing"
)

// refGshare is gshare with one byte per 2-bit counter, the layout before
// the counters were packed four to a byte.
type refGshare struct {
	historyBits uint
	history     uint64
	table       []uint8
	lookups     int64
	correct     int64
}

func newRefGshare(historyBits uint) *refGshare {
	g := &refGshare{historyBits: historyBits, table: make([]uint8, 1<<historyBits)}
	g.reset()
	return g
}

func (g *refGshare) index(pc int) uint64 {
	return (g.history ^ uint64(pc)) & (uint64(1)<<g.historyBits - 1)
}

func (g *refGshare) predict(pc int) bool { return g.table[g.index(pc)] >= 2 }

func (g *refGshare) predictAndUpdate(pc int, taken bool) (pred, correct bool) {
	idx := g.index(pc)
	pred = g.table[idx] >= 2
	correct = pred == taken
	if taken {
		if g.table[idx] < 3 {
			g.table[idx]++
		}
	} else if g.table[idx] > 0 {
		g.table[idx]--
	}
	g.history <<= 1
	if taken {
		g.history |= 1
	}
	g.lookups++
	if correct {
		g.correct++
	}
	return pred, correct
}

func (g *refGshare) reset() {
	g.history = 0
	for i := range g.table {
		g.table[i] = 2
	}
	g.lookups, g.correct = 0, 0
}

// TestGshareMatchesReference drives the packed gshare and the byte-per-
// counter reference through random branch streams at 0 to 16 history bits,
// with a Reset now and then: every prediction and the statistics must
// agree. The streams mix biased, periodic and random branches, so counters
// visit all four states and both saturations.
func TestGshareMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for bits := uint(0); bits <= 16; bits++ {
		g, ref := NewGshare(bits), newRefGshare(bits)
		pcs := make([]int, 1+rng.Intn(40))
		for i := range pcs {
			pcs[i] = rng.Intn(1 << 20)
		}
		count := make([]int, len(pcs))
		for step := 0; step < 20000; step++ {
			if rng.Intn(3000) == 0 {
				g.Reset()
				ref.reset()
			}
			k := rng.Intn(len(pcs))
			pc := pcs[k]
			count[k]++
			var taken bool
			switch k % 3 {
			case 0:
				taken = rng.Intn(10) != 0
			case 1:
				taken = count[k]%4 != 0
			default:
				taken = rng.Intn(2) == 0
			}
			if got, want := g.Predict(pc), ref.predict(pc); got != want {
				t.Fatalf("%d bits, step %d: Predict(%#x) = %t, reference %t", bits, step, pc, got, want)
			}
			pred, ok := g.PredictAndUpdate(pc, taken)
			rpred, rok := ref.predictAndUpdate(pc, taken)
			if pred != rpred || ok != rok {
				t.Fatalf("%d bits, step %d: PredictAndUpdate(%#x, %t) = (%t, %t), reference (%t, %t)",
					bits, step, pc, taken, pred, ok, rpred, rok)
			}
		}
		if g.Lookups != ref.lookups || g.Correct != ref.correct {
			t.Errorf("%d bits: %d lookups, %d correct; reference %d, %d", bits, g.Lookups, g.Correct, ref.lookups, ref.correct)
		}
	}
}
