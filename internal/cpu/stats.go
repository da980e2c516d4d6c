package cpu

import (
	"fmt"
	"strings"
)

// Stats aggregates the measurements of one simulation.
type Stats struct {
	Cycles  int64
	Retired int64

	// Fetch/dispatch.
	Dispatched       int64
	FetchStallCycles int64 // cycles fetch was blocked on a mispredicted branch
	WindowFullStalls int64 // dispatch attempts blocked by a full window

	// Branch prediction (conditional branches only).
	CondBranches      int64
	BranchMispredicts int64

	// Memory.
	Loads         int64
	Stores        int64
	StoreForwards int64

	// Value prediction. Predictions counts every prediction made (one per
	// register-writing instruction dispatched, first dispatch only);
	// Speculated counts those that drove speculation (confident). The four
	// sets partition Predictions by correctness x confidence, the paper's
	// Fig. 4 classification.
	Predictions int64
	Speculated  int64
	CH, CL      int64 // correct-high-confidence, correct-low-confidence
	IH, IL      int64 // incorrect-high-confidence, incorrect-low-confidence

	// Speculation dynamics.
	InvalidationWaves int64 // equality mismatches that fired an invalidation
	Nullified         int64 // executions voided by invalidation
	Reissues          int64 // issues of instructions that had been nullified
	CompleteSquashes  int64 // instructions squashed by complete invalidation

	// Execution.
	Issues int64 // total issue-slot grants (includes reissues)

	// Occupancy: sum of window occupancy sampled once per cycle, for
	// AvgOccupancy.
	OccupancySum int64
}

// CounterValue is one named counter of a Stats, in the stable snake_case
// naming the observability layer and serialized metrics use.
type CounterValue struct {
	Name  string
	Value int64
}

// statCounters lists every cumulative counter of Stats in a stable order,
// under the snake_case names the result CSV and the instrument's catalog
// use.
var statCounters = [...]struct {
	name string
	get  func(*Stats) int64
}{
	{"cycles", func(s *Stats) int64 { return s.Cycles }},
	{"retired", func(s *Stats) int64 { return s.Retired }},
	{"dispatched", func(s *Stats) int64 { return s.Dispatched }},
	{"fetch_stall_cycles", func(s *Stats) int64 { return s.FetchStallCycles }},
	{"window_full_stalls", func(s *Stats) int64 { return s.WindowFullStalls }},
	{"cond_branches", func(s *Stats) int64 { return s.CondBranches }},
	{"branch_mispredicts", func(s *Stats) int64 { return s.BranchMispredicts }},
	{"loads", func(s *Stats) int64 { return s.Loads }},
	{"stores", func(s *Stats) int64 { return s.Stores }},
	{"store_forwards", func(s *Stats) int64 { return s.StoreForwards }},
	{"predictions", func(s *Stats) int64 { return s.Predictions }},
	{"speculated", func(s *Stats) int64 { return s.Speculated }},
	{"pred_correct_high", func(s *Stats) int64 { return s.CH }},
	{"pred_correct_low", func(s *Stats) int64 { return s.CL }},
	{"pred_incorrect_high", func(s *Stats) int64 { return s.IH }},
	{"pred_incorrect_low", func(s *Stats) int64 { return s.IL }},
	{"invalidation_waves", func(s *Stats) int64 { return s.InvalidationWaves }},
	{"nullified", func(s *Stats) int64 { return s.Nullified }},
	{"reissues", func(s *Stats) int64 { return s.Reissues }},
	{"complete_squashes", func(s *Stats) int64 { return s.CompleteSquashes }},
	{"issues", func(s *Stats) int64 { return s.Issues }},
}

// Counters returns every cumulative counter of the run in a stable order.
func (s *Stats) Counters() []CounterValue {
	out := make([]CounterValue, len(statCounters))
	for i, c := range statCounters {
		out[i] = CounterValue{c.name, c.get(s)}
	}
	return out
}

// AvgOccupancy returns the mean number of occupied window entries per cycle.
func (s *Stats) AvgOccupancy() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.OccupancySum) / float64(s.Cycles)
}

// IPC returns retired instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// BranchAccuracy returns the conditional-branch direction accuracy.
func (s *Stats) BranchAccuracy() float64 {
	if s.CondBranches == 0 {
		return 0
	}
	return 1 - float64(s.BranchMispredicts)/float64(s.CondBranches)
}

// PredictionAccuracy returns the fraction of value predictions that were
// correct (CH+CL over all predictions).
func (s *Stats) PredictionAccuracy() float64 {
	if s.Predictions == 0 {
		return 0
	}
	return float64(s.CH+s.CL) / float64(s.Predictions)
}

// Breakdown returns the CH, CL, IH, IL fractions of all predictions.
func (s *Stats) Breakdown() (ch, cl, ih, il float64) {
	if s.Predictions == 0 {
		return 0, 0, 0, 0
	}
	n := float64(s.Predictions)
	return float64(s.CH) / n, float64(s.CL) / n, float64(s.IH) / n, float64(s.IL) / n
}

// String renders a multi-line human-readable summary.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d retired=%d IPC=%.3f occupancy=%.1f\n", s.Cycles, s.Retired, s.IPC(), s.AvgOccupancy())
	fmt.Fprintf(&b, "branches=%d mispredicts=%d accuracy=%.2f%%\n",
		s.CondBranches, s.BranchMispredicts, 100*s.BranchAccuracy())
	fmt.Fprintf(&b, "loads=%d stores=%d forwards=%d\n", s.Loads, s.Stores, s.StoreForwards)
	if s.Predictions > 0 {
		ch, cl, ih, il := s.Breakdown()
		fmt.Fprintf(&b, "predictions=%d speculated=%d accuracy=%.2f%%\n",
			s.Predictions, s.Speculated, 100*s.PredictionAccuracy())
		fmt.Fprintf(&b, "CH=%.2f%% CL=%.2f%% IH=%.2f%% IL=%.2f%%\n", 100*ch, 100*cl, 100*ih, 100*il)
		fmt.Fprintf(&b, "invalidations=%d nullified=%d reissues=%d squashed=%d\n",
			s.InvalidationWaves, s.Nullified, s.Reissues, s.CompleteSquashes)
	}
	return b.String()
}
