package harness

import (
	"fmt"
	"sync"

	"valuespec/internal/bench"
	"valuespec/internal/emu"
	"valuespec/internal/obs"
	"valuespec/internal/trace"
)

// traceKey identifies one recorded instruction stream: a workload at a
// resolved (non-zero) scale. Timing parameters deliberately don't appear —
// the functional trace is the same for every processor configuration, which
// is exactly the redundancy the cache removes.
type traceKey struct {
	workload string
	scale    int
}

type traceEntry struct {
	once sync.Once
	rec  *trace.Recording
	err  error

	// Accounting, guarded by the cache mutex.
	bytes   int64 // 0 until the recording finishes and is sized
	lastUse int64 // cache clock at the most recent Source call
}

// TraceCache memoizes the functional emulation of each (workload, scale)
// pair so a sweep emulates every workload once and replays the recorded
// stream for all subsequent specs. The emulator writes a compact
// trace.Recording as it runs (emu.Record): the program and the value of
// each load, a fraction of a byte per record, never a []trace.Record. A
// workload that faults fails every spec that asks for it. Safe for
// concurrent use; each caller gets an independent replay cursor over the
// shared, immutable recording.
// Hit/miss/record/eviction counters are published through an internal
// obs.Registry.
//
// Memory is bounded by an optional byte budget (SetByteBudget): when the
// held recordings exceed it, least-recently-used entries are dropped until
// the cache fits again, so a long-lived daemon can serve arbitrarily many
// (workload, scale) pairs in constant space. Evicted recordings stay valid
// for readers that already hold a replay cursor — eviction only forgets the
// cache's reference; the garbage collector reclaims the recording once the
// last cursor drops it.
type TraceCache struct {
	mu      sync.Mutex
	entries map[traceKey]*traceEntry
	clock   int64 // LRU tick, incremented per Source call
	bytes   int64 // total held recording bytes
	budget  int64 // 0 = unbounded
	reg     *obs.Registry
	hits    *obs.Counter
	misses  *obs.Counter
	records *obs.Counter
	evicts  *obs.Counter
}

// NewTraceCache returns an empty, unbounded cache with a fresh metrics
// registry.
func NewTraceCache() *TraceCache {
	reg := obs.NewRegistry()
	return &TraceCache{
		entries: make(map[traceKey]*traceEntry),
		reg:     reg,
		hits:    reg.Counter("trace_cache.hits"),
		misses:  reg.Counter("trace_cache.misses"),
		records: reg.Counter("trace_cache.records"),
		evicts:  reg.Counter("trace_cache.evictions"),
	}
}

// SetByteBudget bounds the recordings the cache may hold, in bytes of their
// compact encoding (trace.Recording.Bytes); 0 (the default) removes the
// bound. Shrinking below the current footprint evicts immediately. A single
// recording larger than the budget is handed to its caller but not
// retained.
func (c *TraceCache) SetByteBudget(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 0 {
		n = 0
	}
	c.budget = n
	c.evictLocked()
}

// ByteBudget returns the configured budget (0 = unbounded).
func (c *TraceCache) ByteBudget() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.budget
}

// Source returns a fresh replay cursor over the recorded trace of w at the
// given scale (<= 0 selects the workload default), emulating the workload on
// first use. Concurrent callers for the same key share one emulation: the
// first to arrive records it while the rest block on it, then every caller
// replays the same shared recording.
func (c *TraceCache) Source(w bench.Workload, scale int) (trace.Source, error) {
	if scale <= 0 {
		scale = w.DefaultScale
	}
	key := traceKey{workload: w.Name, scale: scale}
	c.mu.Lock()
	c.clock++
	now := c.clock
	e, ok := c.entries[key]
	if !ok {
		e = &traceEntry{lastUse: now}
		c.entries[key] = e
		c.misses.Add(1)
	} else {
		e.lastUse = now
		c.hits.Add(1)
	}
	c.mu.Unlock()
	e.once.Do(func() {
		rec, err := emu.Record(w.Build(scale))
		if err != nil {
			e.err = fmt.Errorf("harness: %s: %w", w.Name, err)
			return
		}
		e.rec = rec
		c.mu.Lock()
		c.records.Add(int64(e.rec.Len()))
		e.bytes = e.rec.Bytes()
		c.bytes += e.bytes
		c.evictLocked()
		c.mu.Unlock()
	})
	if e.err != nil {
		return nil, e.err
	}
	return e.rec.Source(), nil
}

// evictLocked drops least-recently-used sized entries until the footprint
// fits the budget again. Entries still recording (bytes 0) are skipped —
// they are charged, and considered for eviction, once sized. Caller holds
// c.mu.
func (c *TraceCache) evictLocked() {
	if c.budget <= 0 {
		return
	}
	for c.bytes > c.budget {
		var victimKey traceKey
		var victim *traceEntry
		for k, e := range c.entries {
			if e.bytes == 0 {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victimKey, victim = k, e
			}
		}
		if victim == nil {
			return
		}
		delete(c.entries, victimKey)
		c.bytes -= victim.bytes
		c.evicts.Add(1)
	}
}

// Hits returns how many Source calls were served from an existing recording.
func (c *TraceCache) Hits() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits.Value()
}

// Misses returns how many Source calls had to emulate the workload.
func (c *TraceCache) Misses() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.misses.Value()
}

// CachedRecords returns the total number of trace records ever recorded
// (a counter; eviction does not decrease it).
func (c *TraceCache) CachedRecords() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.records.Value()
}

// CachedBytes returns the compact in-memory footprint of the recordings
// currently held (the sum of their trace.Recording.Bytes).
func (c *TraceCache) CachedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Evictions returns how many recordings the byte budget has dropped.
func (c *TraceCache) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicts.Value()
}

// Registry exposes the cache's metrics registry (trace_cache.hits,
// trace_cache.misses, trace_cache.records, trace_cache.evictions). The
// registry itself is not goroutine-safe: read it only while no simulations
// are in flight, or use the locked accessors above.
func (c *TraceCache) Registry() *obs.Registry { return c.reg }

// defaultTraceCache backs SimulateAll, SimulateAllCtx and SimulateBatch.
var defaultTraceCache = NewTraceCache()

// DefaultTraceCache returns the process-wide cache the batch functions
// (SimulateAll, SimulateAllCtx, SimulateBatch) replay from.
func DefaultTraceCache() *TraceCache { return defaultTraceCache }
