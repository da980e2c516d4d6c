package harness

import "valuespec/internal/obs"

// SpecReportRow is one group of the speculation-outcome breakdown: the
// speculative results of one (configuration, model, setting), their
// four-quadrant counts folded together.
type SpecReportRow struct {
	Config  string
	Model   string
	Setting string

	Outcomes obs.SpecOutcomes
	Cycles   int64
	Retired  int64
	Specs    int
}

// SpecReportRows groups results by (configuration, model, setting), in
// first-seen order, skipping base-model results (no speculation, hence no
// predictions). Fed the results Run returns, it reports every speculative
// spec the studies asked for, in the order asked, wherever the batch ran.
func SpecReportRows(results []Result) []SpecReportRow {
	var rows []SpecReportRow
	index := make(map[string]int)
	for _, r := range results {
		if r.Spec.Model == nil {
			continue
		}
		row := SpecReportRow{Config: ConfigName(r.Spec.Config), Model: r.Spec.Model.Name, Setting: r.Spec.Setting.String()}
		key := row.Config + "|" + row.Model + "|" + row.Setting
		i, ok := index[key]
		if !ok {
			i = len(rows)
			index[key] = i
			rows = append(rows, row)
		}
		rows[i].Outcomes.Merge(r.Stats.Outcomes())
		rows[i].Cycles += r.Stats.Cycles
		rows[i].Retired += r.Stats.Retired
		rows[i].Specs++
	}
	return rows
}
