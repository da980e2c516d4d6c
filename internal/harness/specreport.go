package harness

import (
	"sync"
	"sync/atomic"

	"valuespec/internal/cpu"
	"valuespec/internal/obs"
)

// SpecReport aggregates the speculation-outcome breakdown of a sweep,
// grouped by (configuration, model, setting): every completed speculative
// spec folds its four-quadrant counts into its group's row. Install
// process-wide with SetSpecReport (cmd/vsweep does this under -spec-report)
// and every simulated spec reports into it; the rows feed the ASCII
// breakdown table. All methods are goroutine-safe.
type SpecReport struct {
	mu    sync.Mutex
	rows  map[string]*SpecReportRow
	order []string
}

// SpecReportRow is one aggregated group of a SpecReport.
type SpecReportRow struct {
	Config  string
	Model   string
	Setting string

	Outcomes obs.SpecOutcomes
	Cycles   int64
	Retired  int64
	Specs    int
}

// NewSpecReport returns an empty collector.
func NewSpecReport() *SpecReport {
	return &SpecReport{rows: make(map[string]*SpecReportRow)}
}

// Record folds one completed spec's statistics into its group. Base-model
// specs (no speculation, hence no predictions) are skipped.
func (rep *SpecReport) Record(spec Spec, st *cpu.Stats) {
	if spec.Model == nil || st == nil {
		return
	}
	key := ConfigName(spec.Config) + "|" + spec.Model.Name + "|" + spec.Setting.String()
	rep.mu.Lock()
	defer rep.mu.Unlock()
	row, ok := rep.rows[key]
	if !ok {
		row = &SpecReportRow{
			Config:  ConfigName(spec.Config),
			Model:   spec.Model.Name,
			Setting: spec.Setting.String(),
		}
		rep.rows[key] = row
		rep.order = append(rep.order, key)
	}
	row.Outcomes.Merge(obs.SpecOutcomes{
		Predictions:   st.Predictions,
		CorrectUsed:   st.CH,
		WrongUsed:     st.IH,
		CorrectUnused: st.CL,
		WrongUnused:   st.IL,
	})
	row.Cycles += st.Cycles
	row.Retired += st.Retired
	row.Specs++
}

// Rows returns a copy of the aggregated groups in first-seen order.
func (rep *SpecReport) Rows() []SpecReportRow {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	out := make([]SpecReportRow, 0, len(rep.order))
	for _, key := range rep.order {
		out = append(out, *rep.rows[key])
	}
	return out
}

// activeSpecReport is the process-wide collector the executors report into;
// nil (the default) disables collection at one atomic load per spec.
var activeSpecReport atomic.Pointer[SpecReport]

// SetSpecReport installs the process-wide speculation-outcome collector;
// pass nil to remove it.
func SetSpecReport(rep *SpecReport) { activeSpecReport.Store(rep) }

// ActiveSpecReport returns the installed collector, or nil.
func ActiveSpecReport() *SpecReport { return activeSpecReport.Load() }
