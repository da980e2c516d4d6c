package cpu

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"

	"valuespec/internal/obs"
)

// Per-interval simulator time series recorded by Telemetry. Each point's X
// is the simulated cycle at the end of the interval; rates are normalized
// by the interval's cycle count, populations are sampled instantaneously at
// the interval boundary (see docs/OBSERVABILITY.md).
const (
	SeriesIPC           = "sim.ipc"                 // instructions retired per cycle
	SeriesOccupancy     = "sim.occupancy"           // mean occupied window entries
	SeriesReady         = "sim.ready"               // wakeup candidates at the boundary
	SeriesActive        = "sim.active"              // occupied entries still doing sweep work
	SeriesSettled       = "sim.settled"             // entries settled (sweep permanently a no-op)
	SeriesDormant       = "sim.dormant"             // entries dormant (asleep until a wake event)
	SeriesIssueUtil     = "sim.issue_util"          // issue grants per slot offered
	SeriesCorrectUsed   = "sim.pred_correct_used"   // quadrant: correct and speculated on
	SeriesWrongUsed     = "sim.pred_wrong_used"     // quadrant: wrong and speculated on
	SeriesCorrectUnused = "sim.pred_correct_unused" // quadrant: correct but not confident
	SeriesWrongUnused   = "sim.pred_wrong_unused"   // quadrant: wrong and filtered out
	SeriesNullified     = "sim.nullified"           // executions voided in the interval
	SeriesReissues      = "sim.reissues"            // reissues in the interval
	SeriesFetchStall    = "sim.fetch_stall_frac"    // fraction of cycles fetch was blocked

	// Latency histograms (cycles), one pair per simulated run/model.
	MetricSimVerifyLatency     = "sim.verify_latency"     // completion → equality match
	MetricSimInvalidateLatency = "sim.invalidate_latency" // completion → mismatch detection
)

// Series index constants; order defines the CSV column order.
const (
	tsIPC = iota
	tsOccupancy
	tsReady
	tsActive
	tsSettled
	tsDormant
	tsIssueUtil
	tsCorrectUsed
	tsWrongUsed
	tsCorrectUnused
	tsWrongUnused
	tsNullified
	tsReissues
	tsFetchStall
	numTelemetrySeries
)

var telemetrySeriesNames = [numTelemetrySeries]string{
	tsIPC:           SeriesIPC,
	tsOccupancy:     SeriesOccupancy,
	tsReady:         SeriesReady,
	tsActive:        SeriesActive,
	tsSettled:       SeriesSettled,
	tsDormant:       SeriesDormant,
	tsIssueUtil:     SeriesIssueUtil,
	tsCorrectUsed:   SeriesCorrectUsed,
	tsWrongUsed:     SeriesWrongUsed,
	tsCorrectUnused: SeriesCorrectUnused,
	tsWrongUnused:   SeriesWrongUnused,
	tsNullified:     SeriesNullified,
	tsReissues:      SeriesReissues,
	tsFetchStall:    SeriesFetchStall,
}

// TelemetrySeriesNames returns the names of every per-interval series a
// Telemetry records, in column order. Exported for the metric-name lint.
func TelemetrySeriesNames() []string {
	out := make([]string, numTelemetrySeries)
	copy(out, telemetrySeriesNames[:])
	return out
}

// Telemetry is the microarchitectural interval sampler: at Runner.Step
// boundaries it records pipeline population and speculation-outcome time
// series into fixed-capacity obs.TimeSeries rings, and at event sites it
// observes verification/invalidation latencies. Unlike Metrics (per-cycle
// distributions), Telemetry touches the pipeline only between Step calls,
// so the per-cycle loop is unchanged; a nil Telemetry costs one pointer
// test per hook site and everything is preallocated, so an attached-but-idle
// sampler keeps the steady-state loop at zero allocations.
//
// Install with Pipeline.SetTelemetry before running; one Telemetry serves
// one run.
type Telemetry struct {
	interval int64
	nextDue  int64

	series [numTelemetrySeries]*obs.TimeSeries

	verifyLat *obs.Histogram
	invalLat  *obs.Histogram

	outcomes obs.SpecOutcomes

	prev      Stats // counter values at the previous sample boundary
	prevCycle int64
}

// NewTelemetry creates a sampler recording every interval cycles (clamped
// to ≥ 1) into series of at most capacity retained points each.
func NewTelemetry(interval int64, capacity int) *Telemetry {
	if interval < 1 {
		interval = 1
	}
	t := &Telemetry{
		interval:  interval,
		nextDue:   interval,
		verifyLat: obs.NewHistogram(),
		invalLat:  obs.NewHistogram(),
	}
	for i := range t.series {
		t.series[i] = obs.NewTimeSeries(capacity)
	}
	return t
}

// SetTelemetry installs an interval sampler; pass nil to remove. Must be
// called before the run starts.
func (p *Pipeline) SetTelemetry(t *Telemetry) { p.telem = t }

// Telemetry returns the installed sampler, if any.
func (p *Pipeline) Telemetry() *Telemetry { return p.telem }

// Interval returns the sampling interval in cycles.
func (t *Telemetry) Interval() int64 { return t.interval }

// Series returns the time series with the given sim.* name, or nil.
func (t *Telemetry) Series(name string) *obs.TimeSeries {
	for i, n := range telemetrySeriesNames {
		if n == name {
			return t.series[i]
		}
	}
	return nil
}

// Outcomes returns the final four-quadrant speculation-outcome block;
// populated when the run finishes.
func (t *Telemetry) Outcomes() obs.SpecOutcomes { return t.outcomes }

// VerifyLatency returns the completion→verification latency histogram.
func (t *Telemetry) VerifyLatency() *obs.Histogram { return t.verifyLat }

// InvalidateLatency returns the completion→mismatch-detection latency
// histogram.
func (t *Telemetry) InvalidateLatency() *obs.Histogram { return t.invalLat }

// popcount returns the number of set bits across a window bitset.
func popcount(w []uint64) int {
	n := 0
	for _, x := range w {
		n += bits.OnesCount64(x)
	}
	return n
}

// sample records one interval ending at the pipeline's current cycle.
// Counter-derived series are interval deltas (so their sums reconcile with
// the end-of-run Stats totals); populations are instantaneous.
func (t *Telemetry) sample(p *Pipeline) {
	c := p.cycle
	dc := c - t.prevCycle
	t.nextDue = c + t.interval
	if dc <= 0 {
		return
	}
	st := &p.stats
	fdc := float64(dc)
	t.series[tsIPC].Append(c, float64(st.Retired-t.prev.Retired)/fdc)
	t.series[tsOccupancy].Append(c, float64(st.OccupancySum-t.prev.OccupancySum)/fdc)

	settled := popcount(p.settledBits)
	dormant := popcount(p.dormantBits)
	active := p.count - settled - dormant
	if active < 0 {
		active = 0
	}
	t.series[tsReady].Append(c, float64(popcount(p.readyBits)))
	t.series[tsActive].Append(c, float64(active))
	t.series[tsSettled].Append(c, float64(settled))
	t.series[tsDormant].Append(c, float64(dormant))

	t.series[tsIssueUtil].Append(c, float64(st.Issues-t.prev.Issues)/(fdc*float64(p.cfg.IssueWidth)))
	t.series[tsCorrectUsed].Append(c, float64(st.CH-t.prev.CH))
	t.series[tsWrongUsed].Append(c, float64(st.IH-t.prev.IH))
	t.series[tsCorrectUnused].Append(c, float64(st.CL-t.prev.CL))
	t.series[tsWrongUnused].Append(c, float64(st.IL-t.prev.IL))
	t.series[tsNullified].Append(c, float64(st.Nullified-t.prev.Nullified))
	t.series[tsReissues].Append(c, float64(st.Reissues-t.prev.Reissues))
	t.series[tsFetchStall].Append(c, float64(st.FetchStallCycles-t.prev.FetchStallCycles)/fdc)

	t.prev = *st
	t.prevCycle = c
}

// finishRun takes the final partial-interval sample and freezes the
// speculation-outcome quadrants from the run's totals.
func (t *Telemetry) finishRun(p *Pipeline) {
	if p.cycle > t.prevCycle {
		t.sample(p)
	}
	st := &p.stats
	t.outcomes = obs.SpecOutcomes{
		Predictions:   st.Predictions,
		CorrectUsed:   st.CH,
		WrongUsed:     st.IH,
		CorrectUnused: st.CL,
		WrongUnused:   st.IL,
	}
}

// WriteCSV writes the recorded series as one CSV table: a cycle column
// followed by one column per series, one row per retained interval. All
// series are appended together, so they share row boundaries.
func (t *Telemetry) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "cycle")
	for _, n := range telemetrySeriesNames {
		fmt.Fprintf(bw, ",%s", n)
	}
	fmt.Fprintln(bw)
	var cols [numTelemetrySeries][]obs.Point
	rows := -1
	for i := range t.series {
		cols[i] = t.series[i].Points(nil)
		if rows < 0 || len(cols[i]) < rows {
			rows = len(cols[i])
		}
	}
	for r := 0; r < rows; r++ {
		fmt.Fprintf(bw, "%d", cols[0][r].X)
		for i := 0; i < numTelemetrySeries; i++ {
			fmt.Fprintf(bw, ",%g", cols[i][r].Y)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
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
// telemetry, compact enough to store alongside job results.
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
	s := &TelemetrySnapshot{
		Interval:          t.interval,
		Outcomes:          t.outcomes,
		VerifyLatency:     summarizeLatency(t.verifyLat),
		InvalidateLatency: summarizeLatency(t.invalLat),
		Series:            make(map[string][]obs.Point, numTelemetrySeries),
	}
	for i, name := range telemetrySeriesNames {
		s.Series[name] = t.series[i].Points(nil)
	}
	return s
}
