package mem

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// refLine and refCache are the cache before its valid bit was folded into
// the LRU stamp: a 24-byte line with its own valid flag.
type refLine struct {
	tag   uint64
	valid bool
	lru   uint64
}

type refCache struct {
	assoc     int
	lines     []refLine
	blockBits uint
	setMask   uint64
	tagShift  uint
	clock     uint64
	accesses  int64
	misses    int64
}

func newRefCache(cfg CacheConfig) *refCache {
	nsets := cfg.SizeBytes / (cfg.BlockBytes * cfg.Assoc)
	c := &refCache{assoc: cfg.Assoc, lines: make([]refLine, nsets*cfg.Assoc), setMask: uint64(nsets - 1)}
	for m := c.setMask; m != 0; m >>= 1 {
		c.tagShift++
	}
	for b := cfg.BlockBytes; b > 1; b >>= 1 {
		c.blockBits++
	}
	return c
}

func (c *refCache) set(block uint64) []refLine {
	i := int(block&c.setMask) * c.assoc
	return c.lines[i : i+c.assoc]
}

func (c *refCache) access(addr uint64) bool {
	c.accesses++
	c.clock++
	block := addr >> c.blockBits
	set := c.set(block)
	tag := block >> c.tagShift
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
	c.misses++
	set[victim] = refLine{tag: tag, valid: true, lru: c.clock}
	return false
}

// holds is the reference's DataHit probe.
func (c *refCache) holds(addr uint64) bool {
	block := addr >> c.blockBits
	tag := block >> c.tagShift
	for _, l := range c.set(block) {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) reset() {
	clear(c.lines)
	c.clock, c.accesses, c.misses = 0, 0, 0
}

// randomGeometry draws a valid cache of 1 to 16 sets of 1 to 8 ways of 1- to
// 64-byte blocks: small enough that random streams evict.
func randomGeometry(rng *rand.Rand, name string) CacheConfig {
	block, assoc, sets := 1<<rng.Intn(7), 1+rng.Intn(8), 1<<rng.Intn(5)
	return CacheConfig{Name: name, SizeBytes: block * assoc * sets, BlockBytes: block, Assoc: assoc}
}

// randomAddr draws from a working set a few times the cache's size, with
// now and then an address in the top of the 64-bit space, where tags use
// every bit.
func randomAddr(rng *rand.Rand, span int) uint64 {
	switch rng.Intn(50) {
	case 0:
		return math.MaxUint64 - uint64(rng.Intn(span))
	case 1:
		return uint64(rng.Int63()) << 1
	}
	return uint64(rng.Intn(span))
}

// TestCacheMatchesReference drives a hierarchy of 16-byte-line caches and
// one of 24-byte-line references through random streams on random small
// geometries, with a Reset now and then: every access latency, every
// DataHit probe and the statistics must agree.
func TestCacheMatchesReference(t *testing.T) {
	if got := unsafe.Sizeof(line{}); got != 16 {
		t.Errorf("a cache line takes %d bytes, want 16", got)
	}
	rng := rand.New(rand.NewSource(22))
	var l1Hits int64
	for run := 0; run < 300; run++ {
		cfg := HierarchyConfig{
			L1I: randomGeometry(rng, "L1I"), L1D: randomGeometry(rng, "L1D"), L2: randomGeometry(rng, "L2"),
			L1IHitLat: 1, L1DHitLat: 2, L2HitLat: 12, MemLat: 36,
		}
		h := NewHierarchy(cfg)
		ref := [3]*refCache{newRefCache(cfg.L1I), newRefCache(cfg.L1D), newRefCache(cfg.L2)}
		span := 4 * cfg.L2.SizeBytes
		for step := 0; step < 2000; step++ {
			if rng.Intn(700) == 0 {
				h.Reset()
				for _, c := range ref {
					c.reset()
				}
			}
			addr := randomAddr(rng, span)
			if got, want := h.DataHit(addr), ref[1].holds(addr); got != want {
				t.Fatalf("%+v step %d: DataHit(%#x) = %t, reference %t", cfg, step, addr, got, want)
			}
			var got, want int
			if rng.Intn(2) == 0 {
				got, want = h.Inst(addr), refLatency(cfg, ref[0], ref[2], cfg.L1IHitLat, addr)
			} else {
				got, want = h.Data(addr), refLatency(cfg, ref[1], ref[2], cfg.L1DHitLat, addr)
			}
			if got != want {
				t.Fatalf("%+v step %d: access %#x took %d cycles, reference %d", cfg, step, addr, got, want)
			}
		}
		for i, c := range []*Cache{h.L1I(), h.L1D(), h.L2()} {
			if c.Accesses != ref[i].accesses || c.Misses != ref[i].misses {
				t.Errorf("%+v: %s %d accesses, %d misses; reference %d, %d",
					cfg, c.Config().Name, c.Accesses, c.Misses, ref[i].accesses, ref[i].misses)
			}
		}
		l1Hits += h.L1D().Accesses - h.L1D().Misses
	}
	if l1Hits == 0 {
		t.Error("no L1D access ever hit: the streams test nothing")
	}
}

// refLatency is Hierarchy.Inst or Hierarchy.Data on the reference caches.
func refLatency(cfg HierarchyConfig, l1, l2 *refCache, l1Lat int, addr uint64) int {
	switch {
	case l1.access(addr):
		return l1Lat
	case l2.access(addr):
		return cfg.L2HitLat
	}
	return cfg.MemLat
}
