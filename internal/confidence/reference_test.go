package confidence

import (
	"math/rand"
	"testing"
)

// refResetting is the resetting-counter table at its full modeled size, a
// plain slice indexed by the modeled mask, as Resetting held it before its
// table grew on demand.
type refResetting struct {
	bits  uint
	max   uint8
	table []uint8
}

func (r *refResetting) index(pc int) uint32 { return uint32(pc) & (uint32(1)<<r.bits - 1) }

func (r *refResetting) Confident(pc int) bool { return r.table[r.index(pc)] == r.max }

func (r *refResetting) Update(pc int, correct bool) {
	idx := r.index(pc)
	if correct {
		if r.table[idx] < r.max {
			r.table[idx]++
		}
	} else {
		r.table[idx] = 0
	}
}

// TestResettingMatchesReference drives Resetting and its full-table
// reference through random streams over PCs up to 2^20, some of them
// aliases in the modeled table, with a Reset now and then: every Confident
// answer and the count of confident ones must agree.
func TestResettingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	total := 0
	for run := 0; run < 40; run++ {
		tableBits, counterBits := uint(8+rng.Intn(13)), uint(1+rng.Intn(7))
		r := NewResetting(tableBits, counterBits)
		ref := &refResetting{bits: tableBits, max: r.Max(), table: make([]uint8, 1<<tableBits)}
		pcs := make([]int, 2+rng.Intn(20))
		for i := range pcs {
			pcs[i] = rng.Intn(1 << 20)
			if i > 0 && rng.Intn(3) == 0 {
				pcs[i] = (pcs[i-1] + 1<<tableBits) & (1<<20 - 1)
			}
		}
		confident, refConfident := 0, 0
		for step := 0; step < 5000; step++ {
			if rng.Intn(1000) == 0 {
				r.Reset()
				clear(ref.table)
			}
			k := rng.Intn(len(pcs))
			pc := pcs[k]
			got, want := r.Confident(pc, false), ref.Confident(pc)
			if got != want {
				t.Fatalf("table bits %d, counter bits %d, step %d, pc %#x: Confident = %t, reference %t",
					tableBits, counterBits, step, pc, got, want)
			}
			if got {
				confident++
			}
			if want {
				refConfident++
			}
			// Half the PCs are always right, so even 7-bit counters saturate.
			correct := k%2 == 0 || rng.Intn(4) != 0
			r.Update(pc, correct)
			ref.Update(pc, correct)
		}
		if confident != refConfident {
			t.Errorf("table bits %d: %d confident, reference %d", tableBits, confident, refConfident)
		}
		total += confident
	}
	if total == 0 {
		t.Error("no counter ever saturated: the streams test nothing")
	}
}
