// Package pctable provides the simulator's PC-indexed tables: a modeled
// table of 1<<bits entries, indexed by the low bits of an instruction's PC,
// whose storage covers only the entries a program has written.
//
// The paper's history and confidence tables have 64K entries (Section 5.2),
// but a program indexes at most as many of them as it has static
// instructions. A Table therefore holds a prefix of the modeled table and
// grows it on demand: a write past the prefix doubles it until it covers
// the entry, never past the modeled size, and a read past it returns the
// zero value, which is every entry's initial value. Indexing is exactly the
// modeled mask, so aliasing between PCs is unchanged, and Reset clears only
// the prefix, so recycling a table costs what its program touched.
package pctable

// minLen is the prefix a table's first write allocates, in entries: the
// next doubling already covers the largest kernel's static instructions.
const minLen = 64

// Table is a PC-indexed table of 1<<bits entries of T, each initially the
// zero value. The zero Table has one entry; use New.
type Table[T any] struct {
	mask uint32 // 1<<bits - 1: an index is pc & mask
	s    []T    // entries [0, len(s)); the rest read as the zero value
}

// New returns a table of 1<<bits entries that holds none of them yet.
func New[T any](bits uint) Table[T] {
	return Table[T]{mask: uint32(1)<<bits - 1}
}

// Index returns the entry that pc indexes: its low bits.
func (t *Table[T]) Index(pc int) uint32 { return uint32(pc) & t.mask }

// Get returns entry i.
func (t *Table[T]) Get(i uint32) T {
	if int(i) < len(t.s) {
		return t.s[i]
	}
	var zero T
	return zero
}

// Set writes v to entry i, growing the held prefix to cover it.
func (t *Table[T]) Set(i uint32, v T) {
	if int(i) >= len(t.s) {
		t.grow(i)
	}
	t.s[i] = v
}

// grow doubles the held prefix until it covers entry i, capped at the
// modeled size.
func (t *Table[T]) grow(i uint32) {
	n := max(len(t.s), minLen)
	for n <= int(i) {
		n *= 2
	}
	n = min(n, int(t.mask)+1)
	s := make([]T, n)
	copy(s, t.s)
	t.s = s
}

// Reset restores every entry to the zero value, clearing only the held
// prefix; the prefix stays allocated for the next program.
func (t *Table[T]) Reset() { clear(t.s) }
