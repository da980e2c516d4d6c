// Package mem models the memory hierarchy of the simulated processor:
// set-associative L1 instruction and data caches, a unified L2, and main
// memory, with the latencies used by the paper (Section 5.1):
//
//	L1I: 64 KB, 32 B blocks, 4-way, 1-cycle hit
//	L1D: 64 KB, 32 B blocks, 4-way, 2-cycle hit, issueWidth/2 ports
//	L2:  1 MB unified, 64 B blocks, 4-way, 12-cycle hit, 36-cycle miss
//
// The hierarchy returns total access latencies; port arbitration for the
// data cache is performed by the timing simulator, which owns the per-cycle
// view of the machine.
package mem

import "fmt"

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name       string
	SizeBytes  int
	BlockBytes int
	Assoc      int
}

// Validate checks the configuration for consistency (power-of-two geometry,
// at least one set).
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.BlockBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry %+v", c.Name, c)
	}
	if c.SizeBytes%(c.BlockBytes*c.Assoc) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by block*assoc", c.Name, c.SizeBytes)
	}
	if c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("cache %s: block size %d not a power of two", c.Name, c.BlockBytes)
	}
	sets := c.SizeBytes / (c.BlockBytes * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

type line struct {
	tag   uint64
	valid bool
	lru   uint64 // larger = more recently used
}

// Cache is a set-associative cache with true-LRU replacement. The sets live
// in one flat slice, set s at lines[s*assoc:(s+1)*assoc]: one allocation
// per cache, holding no pointers for the garbage collector to scan.
type Cache struct {
	cfg       CacheConfig
	lines     []line
	blockBits uint
	setMask   uint64
	clock     uint64

	// Stats
	Accesses int64
	Misses   int64
}

// NewCache builds a cache from cfg; it panics on an invalid configuration
// (cache geometries are static properties of a simulation, not runtime
// inputs).
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / (cfg.BlockBytes * cfg.Assoc)
	c := &Cache{cfg: cfg, lines: make([]line, nsets*cfg.Assoc), setMask: uint64(nsets - 1)}
	for b := cfg.BlockBytes; b > 1; b >>= 1 {
		c.blockBits++
	}
	return c
}

// set returns the lines of the set holding block.
func (c *Cache) set(block uint64) []line {
	n := c.cfg.Assoc
	i := int(block&c.setMask) * n
	return c.lines[i : i+n : i+n]
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Access looks up the block containing byte address addr, allocating it on a
// miss (write-allocate). It reports whether the access hit.
func (c *Cache) Access(addr uint64) bool {
	c.Accesses++
	c.clock++
	block := addr >> c.blockBits
	set := c.set(block)
	tag := block >> uint(popcount(c.setMask))

	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.clock
			return true
		}
		if set[i].lru < set[victim].lru || !set[victim].valid && set[i].lru == set[victim].lru {
			victim = i
		}
		if !set[i].valid {
			victim = i
		}
	}
	c.Misses++
	set[victim] = line{tag: tag, valid: true, lru: c.clock}
	return false
}

// MissRate returns misses/accesses, or 0 before any access.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	clear(c.lines)
	c.clock, c.Accesses, c.Misses = 0, 0, 0
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// HierarchyConfig carries the latency parameters of the full hierarchy.
// Latencies are total (address to value), matching the paper's description.
type HierarchyConfig struct {
	L1I, L1D, L2 CacheConfig
	L1IHitLat    int // 1 in the paper
	L1DHitLat    int // 2 in the paper
	L2HitLat     int // 12 in the paper
	MemLat       int // 36 in the paper
}

// DefaultHierarchyConfig returns the paper's Section 5.1 parameters.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:       CacheConfig{Name: "L1I", SizeBytes: 64 << 10, BlockBytes: 32, Assoc: 4},
		L1D:       CacheConfig{Name: "L1D", SizeBytes: 64 << 10, BlockBytes: 32, Assoc: 4},
		L2:        CacheConfig{Name: "L2", SizeBytes: 1 << 20, BlockBytes: 64, Assoc: 4},
		L1IHitLat: 1,
		L1DHitLat: 2,
		L2HitLat:  12,
		MemLat:    36,
	}
}

// Hierarchy ties the three caches together.
type Hierarchy struct {
	cfg HierarchyConfig
	l1i *Cache
	l1d *Cache
	l2  *Cache
}

// NewHierarchy builds the hierarchy; it panics on invalid cache geometry.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		cfg: cfg,
		l1i: NewCache(cfg.L1I),
		l1d: NewCache(cfg.L1D),
		l2:  NewCache(cfg.L2),
	}
}

// Config returns the hierarchy parameters.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// L1I, L1D and L2 expose the individual caches for statistics.
func (h *Hierarchy) L1I() *Cache { return h.l1i }
func (h *Hierarchy) L1D() *Cache { return h.l1d }
func (h *Hierarchy) L2() *Cache  { return h.l2 }

// Inst returns the total latency to fetch the instruction block at byte
// address addr.
func (h *Hierarchy) Inst(addr uint64) int {
	if h.l1i.Access(addr) {
		return h.cfg.L1IHitLat
	}
	if h.l2.Access(addr) {
		return h.cfg.L2HitLat
	}
	return h.cfg.MemLat
}

// Data returns the total latency of a data access to byte address addr.
// Loads and stores follow the same lookup path (write-allocate).
func (h *Hierarchy) Data(addr uint64) int {
	if h.l1d.Access(addr) {
		return h.cfg.L1DHitLat
	}
	if h.l2.Access(addr) {
		return h.cfg.L2HitLat
	}
	return h.cfg.MemLat
}

// DataHit reports whether a data access would hit in L1 without performing
// it; the simulator's perfect load-hit predictor uses the real outcome, so
// this probe is only used by diagnostics.
func (h *Hierarchy) DataHit(addr uint64) bool {
	block := addr >> h.l1d.blockBits
	set := h.l1d.set(block)
	tag := block >> uint(popcount(h.l1d.setMask))
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Reset clears all three caches.
func (h *Hierarchy) Reset() {
	h.l1i.Reset()
	h.l1d.Reset()
	h.l2.Reset()
}
