package pctable

import (
	"math/rand"
	"testing"
)

// TestMatchesFullTable drives a Table and a full-size slice indexed by the
// same mask through random writes, reads and Resets, with PCs up to 2^20 so
// that the mask aliases: every read must agree, and the held prefix must
// stay a power of two no larger than the modeled table.
func TestMatchesFullTable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bits := range []uint{0, 1, 5, 6, 7, 8, 12, 16} {
		tab := New[int64](bits)
		full := make([]int64, 1<<bits)
		mask := uint32(1)<<bits - 1
		for step := 0; step < 20000; step++ {
			pc := rng.Intn(1 << 20)
			if rng.Intn(2) == 0 {
				pc &= 0xff // mostly a kernel's few PCs, as a program touches them
			}
			i := tab.Index(pc)
			if i != uint32(pc)&mask {
				t.Fatalf("bits %d: Index(%d) = %d, want %d", bits, pc, i, uint32(pc)&mask)
			}
			switch r := rng.Intn(100); {
			case r == 0:
				tab.Reset()
				clear(full)
			case r < 50:
				v := rng.Int63()
				tab.Set(i, v)
				full[i] = v
			default:
				if got, want := tab.Get(i), full[i]; got != want {
					t.Fatalf("bits %d step %d: Get(%d) = %d, want %d", bits, step, i, got, want)
				}
			}
			if n := len(tab.s); n > len(full) || n&(n-1) != 0 {
				t.Fatalf("bits %d: holds %d entries of %d", bits, n, len(full))
			}
		}
	}
}

// TestHoldsWhatIsWritten checks the storage rules: no entry is held before
// a write, reads past the prefix hold nothing, a write doubles the prefix
// just far enough, and Reset clears the prefix but keeps it.
func TestHoldsWhatIsWritten(t *testing.T) {
	tab := New[uint8](16)
	if tab.Get(tab.Index(70_000)) != 0 || len(tab.s) != 0 {
		t.Fatalf("a read allocated %d entries", len(tab.s))
	}
	tab.Set(tab.Index(78), 5)
	if len(tab.s) != 128 {
		t.Errorf("a write to entry 78 holds %d entries, want 128", len(tab.s))
	}
	tab.Set(tab.Index(3), 7)
	if len(tab.s) != 128 {
		t.Errorf("a write inside the prefix regrew it to %d", len(tab.s))
	}
	tab.Set(tab.Index(1<<16+1000), 9) // aliases entry 1000
	if len(tab.s) != 1024 || tab.Get(1000) != 9 {
		t.Errorf("aliased write: %d entries, entry 1000 = %d", len(tab.s), tab.Get(1000))
	}
	tab.Reset()
	if len(tab.s) != 1024 || tab.Get(78) != 0 || tab.Get(1000) != 0 {
		t.Errorf("after Reset: %d entries, entry 78 = %d", len(tab.s), tab.Get(78))
	}
	small := New[uint32](3)
	small.Set(7, 1)
	if len(small.s) != 8 {
		t.Errorf("an 8-entry table holds %d entries, want 8", len(small.s))
	}
}
