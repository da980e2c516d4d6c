package cpu

import (
	"math/bits"
	runtimemetrics "runtime/metrics"
	"strings"

	"valuespec/internal/obs"
)

// The speculation-outcome quadrants, which harness.Progress also publishes
// as live sweep counters.
const (
	SeriesCorrectUsed   = "sim.pred_correct_used"
	SeriesWrongUsed     = "sim.pred_wrong_used"
	SeriesCorrectUnused = "sim.pred_correct_unused"
	SeriesWrongUnused   = "sim.pred_wrong_unused"
)

// MetricKind says how the instrument samples a catalog entry and where the
// entry is exported. Counters, rates and levels are interval columns;
// histograms and gauges describe the whole run.
type MetricKind string

const (
	KindCounter   MetricKind = "counter"   // delta of a running total over the interval
	KindRate      MetricKind = "rate"      // ratio of two deltas over the interval
	KindLevel     MetricKind = "level"     // window population at the interval's end
	KindHistogram MetricKind = "histogram" // distribution over the whole run
	KindGauge     MetricKind = "gauge"     // one value for the whole run
)

// Metric is one entry of the instrument's catalog.
type Metric struct {
	Name    string
	Kind    MetricKind
	Unit    string
	Meaning string

	stat  string                                     // counter: the Stats.Counters total it carries
	total func(b *boundary) int64                    // counter: running total; level: population
	rate  func(t *Telemetry, a, b *boundary) float64 // rate: value over the interval a..b
	hist  int                                        // histogram: index into Telemetry.hists
}

// Histogram indices of the catalog's distributions.
const (
	hOccupancy = iota
	hIssueSlots
	hReissueDepth
	hRetireLatency
	hWaveNulls
	hVerifyLatency
	hInvalidateLatency
	numHists
)

// catalog declares every name the instrument publishes, in export order;
// init appends a counter for each Stats.Counters total that no entry
// carries. Column order, registration, TelemetrySeriesNames, the metric-name
// lint and the docs table (TestCatalogDocumented) all read it.
var catalog = []Metric{
	{Name: "sim.ipc", Kind: KindRate, Unit: "instructions/cycle", Meaning: "instructions retired per cycle",
		rate: perCycle(func(s *Stats) int64 { return s.Retired })},
	{Name: "sim.occupancy", Kind: KindRate, Unit: "entries", Meaning: "mean occupied window entries",
		rate: perCycle(func(s *Stats) int64 { return s.OccupancySum })},
	{Name: "sim.ready", Kind: KindLevel, Unit: "entries", Meaning: "wakeup candidates",
		total: func(b *boundary) int64 { return int64(b.ready) }},
	{Name: "sim.active", Kind: KindLevel, Unit: "entries", Meaning: "occupied entries still doing sweep work",
		total: func(b *boundary) int64 { return int64(b.active) }},
	{Name: "sim.settled", Kind: KindLevel, Unit: "entries", Meaning: "entries whose sweep is permanently a no-op",
		total: func(b *boundary) int64 { return int64(b.settled) }},
	{Name: "sim.dormant", Kind: KindLevel, Unit: "entries", Meaning: "entries asleep until a wake event",
		total: func(b *boundary) int64 { return int64(b.dormant) }},
	{Name: "sim.issue_util", Kind: KindRate, Unit: "grants/slot", Meaning: "issue grants per issue slot offered",
		rate: func(t *Telemetry, a, b *boundary) float64 {
			return float64(b.st.Issues-a.st.Issues) / (float64(b.st.Cycles-a.st.Cycles) * float64(t.width))
		}},
	{Name: SeriesCorrectUsed, Kind: KindCounter, Unit: "predictions", Meaning: "correct and speculated on (CH)", stat: "pred_correct_high"},
	{Name: SeriesWrongUsed, Kind: KindCounter, Unit: "predictions", Meaning: "wrong and speculated on: invalidation and reissue cost (IH)", stat: "pred_incorrect_high"},
	{Name: SeriesCorrectUnused, Kind: KindCounter, Unit: "predictions", Meaning: "correct but not confident: lost opportunity (CL)", stat: "pred_correct_low"},
	{Name: SeriesWrongUnused, Kind: KindCounter, Unit: "predictions", Meaning: "wrong and filtered out: confidence saved (IL)", stat: "pred_incorrect_low"},
	{Name: "sim.nullified", Kind: KindCounter, Unit: "executions", Meaning: "executions voided by invalidation", stat: "nullified"},
	{Name: "sim.reissues", Kind: KindCounter, Unit: "issues", Meaning: "issues of nullified instructions", stat: "reissues"},
	{Name: "sim.fetch_stall_frac", Kind: KindRate, Unit: "cycles/cycle", Meaning: "fraction of cycles fetch was blocked on a mispredicted branch",
		rate: perCycle(func(s *Stats) int64 { return s.FetchStallCycles })},
	{Name: "mem.store_forward_rate", Kind: KindRate, Unit: "forwards/load", Meaning: "store-to-load forwards per load",
		rate: func(_ *Telemetry, a, b *boundary) float64 {
			if dl := b.st.Loads - a.st.Loads; dl > 0 {
				return float64(b.st.StoreForwards-a.st.StoreForwards) / float64(dl)
			}
			return 0
		}},
	{Name: "events.scheduled", Kind: KindCounter, Unit: "events", Meaning: "events filed into the three timing wheels",
		total: func(b *boundary) int64 { return b.scheduled }},
	{Name: "events.slots_recycled", Kind: KindCounter, Unit: "slots", Meaning: "wheel slot slices reused with their capacity",
		total: func(b *boundary) int64 { return b.recycled }},
	{Name: "events.wheel_grows", Kind: KindCounter, Unit: "doublings", Meaning: "wheel ring doublings (latency beyond the horizon)",
		total: func(b *boundary) int64 { return b.grows }},
	{Name: "events.wavesets_recycled", Kind: KindCounter, Unit: "sets", Meaning: "invalidation wave sets served from the pool",
		total: func(b *boundary) int64 { return b.waveSetReuses }},
	{Name: "window.occupancy", Kind: KindHistogram, Unit: "entries", Meaning: "occupied window entries at the start of each cycle", hist: hOccupancy},
	{Name: "issue.slots_used", Kind: KindHistogram, Unit: "grants/cycle", Meaning: "issue grants each cycle", hist: hIssueSlots},
	{Name: "reissue.depth", Kind: KindHistogram, Unit: "executions", Meaning: "executions beyond the first of each retired instruction", hist: hReissueDepth},
	{Name: "retire.latency", Kind: KindHistogram, Unit: "cycles", Meaning: "dispatch to retirement of each instruction", hist: hRetireLatency},
	{Name: "invalidation.wave_nulls", Kind: KindHistogram, Unit: "entries", Meaning: "entries nullified per invalidation-wave step", hist: hWaveNulls},
	{Name: "sim.verify_latency", Kind: KindHistogram, Unit: "cycles", Meaning: "completion to equality match", hist: hVerifyLatency},
	{Name: "sim.invalidate_latency", Kind: KindHistogram, Unit: "cycles", Meaning: "completion to mismatch detection", hist: hInvalidateLatency},
	{Name: "runtime.allocs_per_cycle", Kind: KindGauge, Unit: "objects/cycle", Meaning: "heap objects the process allocated per simulated cycle over the run"},
}

func init() {
	carried := make(map[string]bool)
	for i := range catalog {
		if m := &catalog[i]; m.stat != "" {
			m.total, carried[m.stat] = statTotal(m.stat), true
		}
	}
	for _, c := range statCounters {
		if !carried[c.name] {
			catalog = append(catalog, Metric{Name: c.name, Kind: KindCounter, Unit: "count",
				Meaning: "the `Stats` counter of that name", total: statTotal(c.name)})
		}
	}
}

// statTotal reads the named Stats.Counters total off a boundary.
func statTotal(name string) func(b *boundary) int64 {
	for _, c := range statCounters {
		if c.name == name {
			get := c.get
			return func(b *boundary) int64 { return get(&b.st) }
		}
	}
	panic("cpu: no Stats counter " + name)
}

// perCycle is the rate of a Stats total per simulated cycle.
func perCycle(get func(*Stats) int64) func(*Telemetry, *boundary, *boundary) float64 {
	return func(_ *Telemetry, a, b *boundary) float64 {
		return float64(get(&b.st)-get(&a.st)) / float64(b.st.Cycles-a.st.Cycles)
	}
}

func (m *Metric) interval() bool {
	return m.Kind == KindCounter || m.Kind == KindRate || m.Kind == KindLevel
}

// column derives m's interval value between consecutive retained boundaries.
func (m *Metric) column(t *Telemetry, a, b *boundary) float64 {
	switch m.Kind {
	case KindCounter:
		return float64(m.total(b) - m.total(a))
	case KindLevel:
		return float64(m.total(b))
	}
	return m.rate(t, a, b)
}

// Catalog returns every name the instrument publishes, in export order.
func Catalog() []Metric { return append([]Metric(nil), catalog...) }

// TelemetrySeriesNames returns the interval column names of the table Rows
// fills, in column order after the leading cycle.
func TelemetrySeriesNames() []string {
	var out []string
	for i := range catalog {
		if catalog[i].interval() {
			out = append(out, catalog[i].Name)
		}
	}
	return out
}

// boundary is one sample: the run's running totals and the window
// populations at one cycle. Every interval column is derived from two
// consecutive retained boundaries.
type boundary struct {
	st                              Stats
	ready, active, settled, dormant int32

	scheduled, recycled, grows, waveSetReuses int64
}

// Telemetry is the pipeline's one instrument. At Runner.Step boundaries
// every interval cycles it appends a boundary to a bounded-capacity
// obs.Decimating, which grows by doubling and, once full, halves its
// resolution in place; at run end it exports the catalog's interval columns
// from consecutive retained boundaries, so every counter column sums to its
// run total at any capacity. Between samples it observes the catalog's
// histograms: one nil-tested hook per cycle and one per event site. The
// hooks allocate nothing, sampling allocates only while the store grows,
// and a nil Telemetry costs one pointer test per hook.
//
// Install with Pipeline.SetTelemetry before running; one Telemetry serves
// one run.
type Telemetry struct {
	interval int64
	nextDue  int64
	last     int64 // cycle of the latest boundary
	width    int   // issue slots per cycle, for sim.issue_util
	bounds   *obs.Decimating[boundary]

	reg        *obs.Registry
	hists      [numHists]*obs.Histogram
	prevIssues int64

	rtAllocs [1]runtimemetrics.Sample // /gc/heap/allocs:objects
	allocs0  uint64                   // its value when the run started
}

// NewTelemetry creates an instrument sampling every interval cycles (clamped
// to ≥ 1) into at most capacity retained boundaries.
func NewTelemetry(interval int64, capacity int) *Telemetry {
	if interval < 1 {
		interval = 1
	}
	t := &Telemetry{
		interval: interval,
		nextDue:  interval,
		bounds:   obs.NewDecimating[boundary](capacity),
		reg:      obs.NewRegistry(),
	}
	t.rtAllocs[0].Name = "/gc/heap/allocs:objects"
	for i := range catalog {
		switch m := &catalog[i]; m.Kind {
		case KindCounter:
			t.reg.Counter(m.Name)
		case KindHistogram:
			t.hists[m.hist] = t.reg.Histogram(m.Name)
		case KindGauge:
			t.reg.Gauge(m.Name)
		}
	}
	return t
}

// SetTelemetry installs the instrument; pass nil to remove. Must be called
// before the run starts.
func (p *Pipeline) SetTelemetry(t *Telemetry) {
	p.telem = t
	if t != nil {
		t.width = p.cfg.IssueWidth
		runtimemetrics.Read(t.rtAllocs[:])
		t.allocs0 = t.rtAllocs[0].Value.Uint64()
	}
}

// Interval returns the sampling interval in cycles.
func (t *Telemetry) Interval() int64 { return t.interval }

// Stride returns how many samples the store keeps one of: 1 until it first
// decimates, then doubling.
func (t *Telemetry) Stride() int64 { return t.bounds.Stride() }

// Registry holds the catalog's histograms and, once the run has finished,
// its run-level gauge and every counter's run total.
func (t *Telemetry) Registry() *obs.Registry { return t.reg }

// cycleDone observes the per-cycle distributions of the cycle that just
// ended, which started with occ occupied entries.
func (t *Telemetry) cycleDone(occ int, issues int64) {
	t.hists[hOccupancy].Observe(int64(occ))
	t.hists[hIssueSlots].Observe(issues - t.prevIssues)
	t.prevIssues = issues
}

// popcount returns the number of set bits across a window bitset.
func popcount(w []uint64) int {
	n := 0
	for _, x := range w {
		n += bits.OnesCount64(x)
	}
	return n
}

// sample appends the boundary at the pipeline's current cycle, unless one
// was already taken there.
func (t *Telemetry) sample(p *Pipeline) {
	c := p.cycle
	t.nextDue = c + t.interval
	if c <= t.last {
		return
	}
	t.last = c
	settled := popcount(p.settledBits)
	dormant := popcount(p.dormantBits)
	t.bounds.Append(boundary{
		st:            p.stats,
		ready:         int32(popcount(p.readyBits)),
		active:        int32(max(p.count-settled-dormant, 0)),
		settled:       int32(settled),
		dormant:       int32(dormant),
		scheduled:     p.eqWheel.scheduled + p.waveWheel.scheduled + p.wbWheel.scheduled,
		recycled:      p.eqWheel.recycled + p.waveWheel.recycled + p.wbWheel.recycled,
		grows:         p.eqWheel.grows + p.waveWheel.grows + p.wbWheel.grows,
		waveSetReuses: p.waveSetReuses,
	})
}

// finishRun takes the boundary closing the last partial interval and
// publishes the run-level values.
func (t *Telemetry) finishRun(p *Pipeline) {
	t.sample(p)
	st := &p.stats
	end, _ := t.bounds.Last()
	for i := range catalog {
		if m := &catalog[i]; m.Kind == KindCounter {
			t.reg.Counter(m.Name).Set(m.total(&end))
		}
	}
	if st.Cycles > 0 {
		runtimemetrics.Read(t.rtAllocs[:])
		t.reg.Gauge("runtime.allocs_per_cycle").Set(float64(t.rtAllocs[0].Value.Uint64()-t.allocs0) / float64(st.Cycles))
	}
}

// Rows returns one row per retained boundary: its cycle, then the
// TelemetrySeriesNames columns. Each row covers the cycles since the
// previous retained boundary (the first since cycle 0), so rows stay
// contiguous however far the boundaries were decimated.
func (t *Telemetry) Rows() [][]float64 {
	bs := t.bounds.All(nil)
	rows := make([][]float64, len(bs))
	var prev boundary
	for i := range bs {
		row := []float64{float64(bs[i].st.Cycles)}
		for j := range catalog {
			if m := &catalog[j]; m.interval() {
				row = append(row, m.column(t, &prev, &bs[i]))
			}
		}
		rows[i] = row
		prev = bs[i]
	}
	return rows
}

// LatencySummary is a compact, serializable digest of a latency histogram.
type LatencySummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	Max   int64   `json:"max"`
}

func summarizeLatency(h *obs.Histogram) LatencySummary {
	return LatencySummary{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.5),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// TelemetrySnapshot is the JSON-serializable export of a finished run's
// telemetry, compact enough to store alongside job results: the sim.*
// interval columns as series, the quadrants and the two latency summaries.
type TelemetrySnapshot struct {
	Interval          int64                  `json:"interval"`
	Outcomes          obs.SpecOutcomes       `json:"outcomes"`
	VerifyLatency     LatencySummary         `json:"verify_latency"`
	InvalidateLatency LatencySummary         `json:"invalidate_latency"`
	Series            map[string][]obs.Point `json:"series"`
}

// Snapshot exports the telemetry for serialization. Call after the run has
// finished.
func (t *Telemetry) Snapshot() *TelemetrySnapshot {
	end, _ := t.bounds.Last()
	s := &TelemetrySnapshot{
		Interval:          t.interval,
		Outcomes:          end.st.Outcomes(),
		VerifyLatency:     summarizeLatency(t.hists[hVerifyLatency]),
		InvalidateLatency: summarizeLatency(t.hists[hInvalidateLatency]),
		Series:            make(map[string][]obs.Point),
	}
	rows := t.Rows()
	for j, name := range TelemetrySeriesNames() {
		if !strings.HasPrefix(name, "sim.") {
			continue
		}
		var pts []obs.Point
		for _, r := range rows {
			pts = append(pts, obs.Point{X: int64(r[0]), Y: r[j+1]})
		}
		s.Series[name] = pts
	}
	return s
}
