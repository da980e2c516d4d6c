// Package report serializes experiment results as CSV and JSON so they can
// be post-processed or plotted outside the harness. Every regenerable
// artifact (Table 1, Fig. 3, Fig. 4, the ablations) has a typed record form
// with stable column names.
package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"valuespec/internal/cpu"
	"valuespec/internal/harness"
	"valuespec/internal/obs"
)

// Table is a generic columnar result: a header and typed rows rendered as
// strings. All writers consume this form.
type Table struct {
	Name   string     `json:"name"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// WriteCSV writes the table in CSV form, with a leading comment-free header
// row.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return fmt.Errorf("report: write header: %w", err)
	}
	for _, row := range t.Rows {
		if len(row) != len(t.Header) {
			return fmt.Errorf("report: row has %d cells, header has %d", len(row), len(t.Header))
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("report: write row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON writes the table as an indented JSON object.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// ReadCSV parses a CSV written by WriteCSV back into a Table (the name is
// not stored in CSV form and must be supplied).
func ReadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("report: empty CSV")
	}
	return &Table{Name: name, Header: records[0], Rows: records[1:]}, nil
}

func f(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

// Table1 converts Table 1 rows.
func Table1(rows []harness.Table1Row) *Table {
	t := &Table{
		Name:   "table1",
		Header: []string{"benchmark", "dynamic_instr", "predicted_frac"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Benchmark, strconv.FormatInt(r.DynamicInstr, 10), f(r.PredictedFrac),
		})
	}
	return t
}

// Fig3 converts Fig. 3 cells, one row per (config, setting, model) plus a
// column per workload with its individual speedup.
func Fig3(cells []harness.Fig3Cell) *Table {
	// Collect the union of workload names for stable columns.
	names := map[string]bool{}
	for _, c := range cells {
		for n := range c.PerWkld {
			names[n] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	t := &Table{Name: "fig3", Header: []string{"config", "setting", "model", "speedup_hmean"}}
	t.Header = append(t.Header, sorted...)
	for _, c := range cells {
		row := []string{c.Config, c.Setting, c.Model, f(c.Speedup)}
		for _, n := range sorted {
			row = append(row, f(c.PerWkld[n]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig4 converts Fig. 4 cells.
func Fig4(cells []harness.Fig4Cell) *Table {
	t := &Table{
		Name:   "fig4",
		Header: []string{"config", "update", "CH", "CL", "IH", "IL"},
	}
	for _, c := range cells {
		t.Rows = append(t.Rows, []string{
			c.Config, c.Update.String(), f(c.CH), f(c.CL), f(c.IH), f(c.IL),
		})
	}
	return t
}

// Latency converts latency-sensitivity points.
func Latency(points []harness.LatencyPoint) *Table {
	t := &Table{Name: "latency", Header: []string{"variable", "cycles", "speedup_hmean"}}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{p.Variable, strconv.Itoa(p.Value), f(p.Speedup)})
	}
	return t
}

// Schemes converts a design-space ablation.
func Schemes(name string, rows []harness.SchemeResult) *Table {
	t := &Table{Name: name, Header: []string{"scheme", "speedup_hmean"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Scheme, f(r.Speedup)})
	}
	return t
}

// Confidence converts a confidence-width sweep.
func Confidence(points []harness.ConfidencePoint) *Table {
	t := &Table{
		Name:   "confidence",
		Header: []string{"counter_bits", "speedup_hmean", "CH", "CL", "IH", "IL"},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			strconv.FormatUint(uint64(p.CounterBits), 10), f(p.Speedup),
			f(p.CH), f(p.CL), f(p.IH), f(p.IL),
		})
	}
	return t
}

// Telemetry converts a finished run's interval table: one row per retained
// sample with a leading cycle column, then one column per interval entry of
// the instrument's catalog (cpu.TelemetrySeriesNames).
func Telemetry(tl *cpu.Telemetry) *Table {
	t := &Table{Name: "metrics", Header: append([]string{"cycle"}, cpu.TelemetrySeriesNames()...)}
	for _, vals := range tl.Rows() {
		row := make([]string, len(vals))
		for i, v := range vals {
			// 'g' with -1 precision round-trips exactly and keeps integral
			// counter deltas free of trailing decimals.
			row[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Phases converts a wall-time phase breakdown.
func Phases(stats []obs.PhaseStat) *Table {
	t := &Table{Name: "phases", Header: []string{"phase", "seconds", "frac"}}
	for _, p := range stats {
		t.Rows = append(t.Rows, []string{p.Name, f(p.Total.Seconds()), f(p.Frac)})
	}
	return t
}

// WriteMarkdown writes the table as a GitHub-flavored Markdown table.
func (t *Table) WriteMarkdown(w io.Writer) error {
	row := func(cells []string) error {
		_, err := fmt.Fprintf(w, "| %s |\n", joinCells(cells))
		return err
	}
	if err := row(t.Header); err != nil {
		return err
	}
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	if err := row(sep); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if len(r) != len(t.Header) {
			return fmt.Errorf("report: row has %d cells, header has %d", len(r), len(t.Header))
		}
		if err := row(r); err != nil {
			return err
		}
	}
	return nil
}

func joinCells(cells []string) string {
	escaped := make([]string, len(cells))
	for i, c := range cells {
		escaped[i] = strings.ReplaceAll(c, "|", "\\|")
	}
	return strings.Join(escaped, " | ")
}
