package harness

import (
	"context"
	"errors"
	"fmt"

	"valuespec/internal/core"
	"valuespec/internal/cpu"
)

// Study is one experiment as a value: the specs it simulates and the fold
// that turns their results, in spec order, into its output. Run simulates
// any number of studies as one batch and leaves each fold's output in Out.
type Study[T any] struct {
	Specs []Spec
	Fold  func([]Result) (T, error)
	Out   T
}

// AnyStudy is a *Study of any output type, as Run takes it.
type AnyStudy interface {
	specs() []Spec
	fold([]Result) error
}

func (s *Study[T]) specs() []Spec { return s.Specs }

func (s *Study[T]) fold(rs []Result) (err error) {
	s.Out, err = s.Fold(rs)
	return err
}

// Run simulates the specs of every study as one batch and folds each study
// over its own results. A spec asked for more than once, by one study or by
// several, is simulated once when its result cannot depend on who asked
// (see Spec.key): batch gets each distinct spec once, in the order first
// asked, and must return one Result per spec in that order. Library callers
// pass SimulateAllCtx; cmd/vsweep passes SimulateBatch with its progress
// tracker, or a batch that submits the specs to a vserved daemon.
//
// Every study gets one Result per spec it asked for, in order, each carrying
// the spec that asked, and Run returns all of them, study after study, for
// reports over the run (SpecReportRows). If any spec fails, Run folds
// nothing and returns a *BatchError indexed over the asked specs.
func Run(ctx context.Context, batch func(context.Context, []Spec) ([]Result, error), studies ...AnyStudy) ([]Result, error) {
	var asked []Spec
	for _, st := range studies {
		asked = append(asked, st.specs()...)
	}
	distinct, at := dedupe(asked)
	results, err := batch(ctx, distinct)
	var be *BatchError
	if errors.As(err, &be) && be.Total == len(distinct) {
		errs := make([]error, len(distinct))
		for _, f := range be.Failures {
			errs[f.Index] = f.Err
		}
		failed := &BatchError{Total: len(asked)}
		for i, j := range at {
			if errs[j] != nil {
				failed.Failures = append(failed.Failures, SpecFailure{Index: i, Spec: asked[i], Err: errs[j]})
			}
		}
		return nil, failed
	}
	if err != nil {
		return nil, err
	}
	if len(results) != len(distinct) {
		return nil, fmt.Errorf("harness: batch returned %d results for %d specs", len(results), len(distinct))
	}
	out := make([]Result, len(asked))
	for i, j := range at {
		st := *results[j].Stats
		out[i] = Result{Spec: asked[i], Stats: &st, Phases: results[j].Phases}
	}
	rest := out
	for _, st := range studies {
		n := len(st.specs())
		if err := st.fold(rest[:n:n]); err != nil {
			return nil, err
		}
		rest = rest[n:]
	}
	return out, nil
}

// specKey is everything the result of a spec without closures or
// instruments depends on. The model's name is cleared: it labels results
// and never reaches the pipeline.
type specKey struct {
	workload string
	scale    int
	config   cpu.Config
	spec     bool // a model is set
	model    core.Model
	setting  Setting
}

// key returns the spec's deduplication key, or false when the spec must be
// simulated on its own: a predictor, confidence or scope closure may hide
// any component, since components have no names to compare, an instrument
// belongs to its one spec, and a model without a name must fail its own
// validation.
func (s Spec) key() (specKey, bool) {
	if s.NewPredictor != nil || s.NewConfidence != nil || s.Predictable != nil ||
		s.Observer != nil || s.Telemetry != nil || s.Phases {
		return specKey{}, false
	}
	k := specKey{workload: s.Workload.Name, scale: s.Scale, config: s.Config.Normalize(), setting: s.Setting}
	if k.scale <= 0 {
		k.scale = s.Workload.DefaultScale
	}
	if s.Model != nil {
		if s.Model.Name == "" {
			return specKey{}, false
		}
		k.spec, k.model = true, *s.Model
		k.model.Name = ""
	}
	return k, true
}

// dedupe returns the distinct specs of asked, in the order first asked,
// and for each asked spec the index of the distinct spec that answers it.
func dedupe(asked []Spec) (distinct []Spec, at []int) {
	at = make([]int, len(asked))
	first := make(map[specKey]int)
	for i, s := range asked {
		if k, ok := s.key(); ok {
			if j, seen := first[k]; seen {
				at[i] = j
				continue
			}
			first[k] = len(distinct)
		}
		at[i] = len(distinct)
		distinct = append(distinct, s)
	}
	return distinct, at
}
