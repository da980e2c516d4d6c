package obsweb

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"valuespec/internal/obs"
)

// seriesCap bounds the tracked history. Capacity is fixed — a long-running
// server decimates the history to a coarser stride (obs.Decimating drops
// every other retained tick when full) instead of growing without bound, so
// /series stays O(columns * seriesCap) forever.
const seriesCap = 512

// seriesTracker turns the shared registry into per-column time series: on
// every stream-loop tick it takes one consistent snapshot and appends one
// row of every flattened column (obs.Registry.Columns) to a decimating
// history, counters as running totals. /series derives each counter's
// per-tick deltas from consecutive retained rows, so a counter's series
// sums to its value however far the history has decimated, as
// cpu.Telemetry does for the pipeline's columns. The X axis is
// milliseconds since the tracker started, kept strictly ascending.
type seriesTracker struct {
	reg   *obs.SharedRegistry
	start time.Time

	mu      sync.Mutex
	cols    []string       // column names in order of first appearance
	index   map[string]int // column name -> position in a row
	counter []bool         // per column: a counter, exported as deltas
	rows    *obs.Decimating[seriesRow]
}

// seriesRow is one tick: its X and each column's value, in cols order. A
// row holds only the columns known at its tick, so a column that joins
// mid-run is absent from earlier rows.
type seriesRow struct {
	x    int64
	vals []float64
}

func newSeriesTracker(reg *obs.SharedRegistry) *seriesTracker {
	return &seriesTracker{
		reg:   reg,
		start: time.Now(),
		index: make(map[string]int),
		rows:  obs.NewDecimating[seriesRow](seriesCap),
	}
}

// sample appends one row and returns the tick for the SSE delta frame:
// each counter's change since the previous tick, every other column as it
// stands. Columns join (at zero) the first time the registry exposes them,
// so late-registered metrics join the dashboard mid-run.
func (t *seriesTracker) sample() (int64, map[string]float64) {
	snap := t.reg.Snapshot()
	cols := snap.Columns()
	vals := snap.Row(make([]float64, 0, len(cols)))
	t.mu.Lock()
	defer t.mu.Unlock()
	row := make([]float64, len(t.cols), max(len(t.cols), len(cols)))
	for i, col := range cols {
		j, ok := t.index[col]
		if !ok {
			j = len(t.cols)
			t.index[col] = j
			t.cols = append(t.cols, col)
			t.counter = append(t.counter, snap.IsCounter(col))
			row = append(row, 0)
		}
		row[j] = vals[i]
	}
	prev, _ := t.rows.Last()
	x := time.Since(t.start).Milliseconds()
	if x <= prev.x {
		x = prev.x + 1
	}
	t.rows.Append(seriesRow{x: x, vals: row})
	tick := make(map[string]float64, len(t.cols))
	for j, col := range t.cols {
		tick[col] = t.value(j, row, prev.vals)
	}
	return x, tick
}

// value returns column j of row as a series point: a counter's change since
// prev, the row before it (zero where prev lacks the column), and any other
// column as it stands.
func (t *seriesTracker) value(j int, row, prev []float64) float64 {
	if !t.counter[j] {
		return row[j]
	}
	if j < len(prev) {
		return row[j] - prev[j]
	}
	return row[j]
}

// SeriesSnapshot is the GET /series body and the backfill frame of the
// /series/stream SSE feed: every tracked series in full.
type SeriesSnapshot struct {
	Type      string                 `json:"type"` // "backfill"
	ElapsedMS int64                  `json:"elapsed_ms"`
	TickMS    int64                  `json:"tick_ms"`
	Series    map[string][]obs.Point `json:"series"`
}

// snapshot exports every column's series under the lock, one point per
// retained row that has the column; each counter point covers the ticks
// since the previous retained row.
func (t *seriesTracker) snapshot(tickMS int64) SeriesSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := SeriesSnapshot{
		Type:      "backfill",
		ElapsedMS: time.Since(t.start).Milliseconds(),
		TickMS:    tickMS,
		Series:    make(map[string][]obs.Point, len(t.cols)),
	}
	rows := t.rows.All(nil)
	for j, col := range t.cols {
		var pts []obs.Point
		var prev []float64
		for _, r := range rows {
			if j < len(r.vals) {
				pts = append(pts, obs.Point{X: r.x, Y: t.value(j, r.vals, prev)})
			}
			prev = r.vals
		}
		out.Series[col] = pts
	}
	return out
}

// seriesTick is the per-tick SSE delta frame: the newest value of every
// column at one X, so stream clients append instead of refetching.
type seriesTick struct {
	Type   string             `json:"type"` // "tick"
	X      int64              `json:"x"`
	Values map[string]float64 `json:"values"`
}

// handleSeries serves the full tracked history as JSON.
func (s *Server) handleSeries(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.series.snapshot(s.cfg.StreamInterval.Milliseconds()))
}

// handleSeriesStream serves the metric series feed: a full backfill frame
// first so clients render history immediately, then one delta frame per
// broadcast tick.
func (s *Server) handleSeriesStream(w http.ResponseWriter, r *http.Request) {
	s.serveSSE(w, r, s.series.snapshot(s.cfg.StreamInterval.Milliseconds()), s.seriesBC)
}
