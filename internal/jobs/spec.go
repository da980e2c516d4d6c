// Package jobs turns the simulator into simulation-as-a-service: a durable
// FIFO+priority job queue, a content-addressed result store, and a worker
// pool that executes submitted sweeps through the harness. cmd/vserved
// exposes it over HTTP (mounted into the internal/obsweb server), and
// cmd/vsweep can submit its figure sweeps to a running daemon with -submit.
//
// A job is a declarative batch of simulations (Request): each SimSpec names
// a workload and carries a full processor configuration, an optional
// speculative-execution model, and the predictor-update/confidence setting.
// Everything in a SimSpec is plain data, so specs serialize to JSON, survive
// daemon restarts, and hash canonically — two requests that simulate the
// same thing share one stored result, however they were spelled.
//
// Durability model: jobs persist as JSON under <data>/jobs, results under
// <data>/results keyed by the canonical spec hash. A restarted daemon
// re-queues every job that was queued or running when it died and serves
// completed ones straight from the store. The simulator is deterministic,
// so a re-run after a crash produces the identical Stats the lost run would
// have.
package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"valuespec/internal/bench"
	"valuespec/internal/core"
	"valuespec/internal/cpu"
	"valuespec/internal/harness"
	"valuespec/internal/mem"
)

// SimSpec is one simulation, fully described by value: the serializable
// counterpart of harness.Spec. Fields that cannot be expressed as data
// (custom predictor/confidence factories, observers) have no spec form —
// those experiments run through the library API instead.
type SimSpec struct {
	// Workload names a workload of the built-in suite (bench.Names).
	Workload string `json:"workload"`
	// Scale sizes the workload; <= 0 selects the workload default.
	Scale int `json:"scale,omitempty"`
	// Config is the processor configuration; a zero IssueWidth or
	// WindowSize selects the paper's central 8/48 machine, and the other
	// zero-valued fields take the paper's defaults, as everywhere else.
	Config cpu.Config `json:"config"`
	// Model, when non-nil, enables value speculation under this model; nil
	// simulates the base processor.
	Model *core.Model `json:"model,omitempty"`
	// Update is the predictor-update timing, "I" (immediate) or "D"
	// (delayed); empty defaults to "I". Ignored without a model.
	Update string `json:"update,omitempty"`
	// Oracle selects oracle confidence instead of the paper's resetting
	// counters. Ignored without a model.
	Oracle bool `json:"oracle,omitempty"`
}

// resolveConfig fills the spec-level configuration defaults: the width and
// window of the paper's central 8/48 machine, then the usual Normalize.
func resolveConfig(c cpu.Config) cpu.Config {
	def := cpu.Config8x48()
	if c.IssueWidth == 0 {
		c.IssueWidth = def.IssueWidth
	}
	if c.WindowSize == 0 {
		c.WindowSize = def.WindowSize
	}
	return c.Normalize()
}

// parseUpdate maps the wire form to cpu.UpdateTiming.
func parseUpdate(s string) (cpu.UpdateTiming, error) {
	switch s {
	case "", "I":
		return cpu.UpdateImmediate, nil
	case "D":
		return cpu.UpdateDelayed, nil
	}
	return 0, fmt.Errorf("jobs: update timing %q, want \"I\" or \"D\"", s)
}

// The submission envelope. Validate rejects a spec outside it, so one
// untrusted request cannot make a worker allocate without limit: a
// pipeline's window, caches and branch table stay within a few tens of MiB.
// Each bound is the paper's range with headroom. Its machines issue 4, 8 or
// 16 wide over 24, 48 or 96 entries; its caches hold 64 KiB (L1) and 1 MiB
// (L2) in 32- or 64-byte blocks, 4 ways; its gshare keeps 16 history bits;
// memory is 36 cycles away and the latency variables span a few cycles;
// every workload runs at its default scale. MaxCycles stays unbounded: it
// costs nothing until a run gets that long, which a job timeout bounds, and
// clients set it far above any real run as a uniqueness nonce.
// MaxRequestBytes bounds a POST /jobs body.
const (
	MaxIssueWidth        = 64
	MaxWindowSize        = 1024
	MaxScaleFactor       = 16 // times the workload's default scale
	MaxBranchHistoryBits = 20
	MaxCacheBytes        = 4 << 20
	MinCacheBlockBytes   = 8
	MaxCacheBlockBytes   = 4096
	MaxCacheAssoc        = 64
	MaxLatency           = 1024 // cycles, for memory and model latencies alike
	MaxRequestBytes      = 8 << 20
)

// bound is one field checked against the envelope.
type bound struct {
	name      string
	v, lo, hi int
}

// envelope lists every bounded field of a spec whose configuration has been
// resolved (defaults filled in) and whose workload is w.
func (s SimSpec) envelope(c cpu.Config, w bench.Workload) []bound {
	out := []bound{
		{"scale", s.Scale, math.MinInt, MaxScaleFactor * w.DefaultScale},
		{"IssueWidth", c.IssueWidth, 1, MaxIssueWidth},
		{"WindowSize", c.WindowSize, 1, MaxWindowSize},
		{"DCachePorts", c.DCachePorts, 1, MaxIssueWidth},
		{"BranchHistoryBits", int(min(c.BranchHistoryBits, math.MaxInt32)), 1, MaxBranchHistoryBits},
		{"L1IHitLat", c.Mem.L1IHitLat, 0, MaxLatency},
		{"L1DHitLat", c.Mem.L1DHitLat, 0, MaxLatency},
		{"L2HitLat", c.Mem.L2HitLat, 0, MaxLatency},
		{"MemLat", c.Mem.MemLat, 0, MaxLatency},
	}
	for _, cc := range []struct {
		name string
		mem.CacheConfig
	}{{"L1I", c.Mem.L1I}, {"L1D", c.Mem.L1D}, {"L2", c.Mem.L2}} {
		out = append(out,
			bound{cc.name + ".SizeBytes", cc.SizeBytes, 1, MaxCacheBytes},
			bound{cc.name + ".BlockBytes", cc.BlockBytes, MinCacheBlockBytes, MaxCacheBlockBytes},
			bound{cc.name + ".Assoc", cc.Assoc, 1, MaxCacheAssoc})
	}
	if m := s.Model; m != nil {
		for _, l := range []struct {
			name string
			v    int
		}{
			{"ExecEqInvalidate", m.Lat.ExecEqInvalidate}, {"ExecEqVerify", m.Lat.ExecEqVerify},
			{"VerifyFreeIssue", m.Lat.VerifyFreeIssue}, {"VerifyFreeRetire", m.Lat.VerifyFreeRetire},
			{"InvalidateReissue", m.Lat.InvalidateReissue}, {"VerifyBranch", m.Lat.VerifyBranch},
			{"VerifyAddrMem", m.Lat.VerifyAddrMem},
		} {
			out = append(out, bound{l.name, l.v, 0, MaxLatency})
		}
	}
	return out
}

// Validate checks the spec without running anything, including that it
// lies within the submission envelope.
func (s SimSpec) Validate() error {
	w, err := bench.ByName(s.Workload)
	if err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	c := resolveConfig(s.Config)
	if err := c.Validate(); err != nil {
		return fmt.Errorf("jobs: workload %s: %w", s.Workload, err)
	}
	for _, b := range s.envelope(c, w) {
		if b.v < b.lo || b.v > b.hi {
			return fmt.Errorf("jobs: workload %s: %s %d outside [%d, %d]", s.Workload, b.name, b.v, b.lo, b.hi)
		}
	}
	// Geometry last: the bounds above keep its products from overflowing.
	for _, cc := range []mem.CacheConfig{c.Mem.L1I, c.Mem.L1D, c.Mem.L2} {
		if err := cc.Validate(); err != nil {
			return fmt.Errorf("jobs: workload %s: %w", s.Workload, err)
		}
	}
	if _, err := parseUpdate(s.Update); err != nil {
		return err
	}
	if s.Model != nil {
		if err := s.Model.Validate(); err != nil {
			return fmt.Errorf("jobs: workload %s: %w", s.Workload, err)
		}
	}
	return nil
}

// Canonical returns the spec in its canonical form — workload-default scale
// resolved, configuration normalized, base-run fields zeroed, update timing
// spelled out — so that equivalent spellings hash identically.
func (s SimSpec) Canonical() (SimSpec, error) {
	w, err := bench.ByName(s.Workload)
	if err != nil {
		return SimSpec{}, fmt.Errorf("jobs: %w", err)
	}
	c := s
	if c.Scale <= 0 {
		c.Scale = w.DefaultScale
	}
	c.Config = resolveConfig(c.Config)
	if c.Model == nil {
		c.Update, c.Oracle = "", false
	} else {
		u, err := parseUpdate(c.Update)
		if err != nil {
			return SimSpec{}, err
		}
		c.Update = u.String()
	}
	return c, nil
}

// ToHarness converts the spec to its executable form.
func (s SimSpec) ToHarness() (harness.Spec, error) {
	w, err := bench.ByName(s.Workload)
	if err != nil {
		return harness.Spec{}, fmt.Errorf("jobs: %w", err)
	}
	u, err := parseUpdate(s.Update)
	if err != nil {
		return harness.Spec{}, err
	}
	hs := harness.Spec{
		Workload: w,
		Scale:    s.Scale,
		Config:   resolveConfig(s.Config),
	}
	if s.Model != nil {
		m := *s.Model
		hs.Model = &m
		hs.Setting = harness.Setting{Update: u, Oracle: s.Oracle}
	}
	return hs, nil
}

// FromHarness converts an executable spec to its serializable form. It
// fails for specs that carry non-serializable parts (factories, observers):
// those cannot travel to a daemon.
func FromHarness(hs harness.Spec) (SimSpec, error) {
	if hs.NewPredictor != nil || hs.NewConfidence != nil || hs.Predictable != nil {
		return SimSpec{}, errors.New("jobs: spec uses a custom predictor/confidence/scope factory, which cannot be serialized")
	}
	if hs.Observer != nil || hs.Telemetry != nil || hs.Phases {
		return SimSpec{}, errors.New("jobs: spec attaches observers, which cannot be serialized")
	}
	s := SimSpec{
		Workload: hs.Workload.Name,
		Scale:    hs.Scale,
		Config:   hs.Config,
	}
	if hs.Model != nil {
		m := *hs.Model
		s.Model = &m
		s.Update = hs.Setting.Update.String()
		s.Oracle = hs.Setting.Oracle
	}
	return s, nil
}

// Label renders the spec for listings, matching harness.Spec.Label.
func (s SimSpec) Label() string {
	hs, err := s.ToHarness()
	if err != nil {
		return s.Workload + " (invalid)"
	}
	return hs.Label()
}

// Request is one job: a named, prioritized batch of simulations.
type Request struct {
	// Name is a human label ("fig3 quick"); it does not affect the hash.
	Name string `json:"name,omitempty"`
	// Priority orders the queue: higher runs first, FIFO within a level.
	Priority int `json:"priority,omitempty"`
	// TimeoutSeconds overrides the daemon's per-job timeout; 0 inherits it.
	TimeoutSeconds int `json:"timeout_seconds,omitempty"`
	// Specs are the simulations to run; results come back in this order.
	Specs []SimSpec `json:"specs"`
}

// Validate checks the whole request.
func (r Request) Validate() error {
	if len(r.Specs) == 0 {
		return errors.New("jobs: request has no specs")
	}
	if r.TimeoutSeconds < 0 {
		return fmt.Errorf("jobs: negative timeout_seconds %d", r.TimeoutSeconds)
	}
	for i, s := range r.Specs {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("spec %d: %w", i, err)
		}
	}
	return nil
}

// Hash returns the content address of the request: the hex SHA-256 of the
// canonical JSON encoding of its spec list. Name, priority and timeout are
// excluded — they change how a job runs, not what it computes — so
// identical simulation matrices dedup to one stored result.
func (r Request) Hash() (string, error) {
	canon := make([]SimSpec, len(r.Specs))
	for i, s := range r.Specs {
		c, err := s.Canonical()
		if err != nil {
			return "", fmt.Errorf("spec %d: %w", i, err)
		}
		canon[i] = c
	}
	data, err := json.Marshal(canon)
	if err != nil {
		return "", fmt.Errorf("jobs: hashing request: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// HarnessSpecs converts the request's specs to executable form.
func (r Request) HarnessSpecs() ([]harness.Spec, error) {
	specs := make([]harness.Spec, len(r.Specs))
	for i, s := range r.Specs {
		hs, err := s.ToHarness()
		if err != nil {
			return nil, fmt.Errorf("spec %d: %w", i, err)
		}
		specs[i] = hs
	}
	return specs, nil
}

// SpecResult pairs one spec with the statistics its simulation produced.
// Telemetry carries the per-interval pipeline series and the
// speculation-outcome breakdown when the daemon ran with Config.Telemetry;
// it is absent from results recorded without it (telemetry never enters the
// request hash, so deduped submissions may be served either way).
type SpecResult struct {
	Spec      SimSpec                `json:"spec"`
	Stats     *cpu.Stats             `json:"stats"`
	Telemetry *cpu.TelemetrySnapshot `json:"telemetry,omitempty"`
}

// ResultSet is the stored outcome of a job: per-spec Stats in request
// order, addressed by the request's canonical spec hash.
type ResultSet struct {
	SpecHash string       `json:"spec_hash"`
	Results  []SpecResult `json:"results"`
}

// WriteCSV writes the result set as CSV: one row per spec, the spec's
// identifying columns followed by every Stats counter in its stable order.
func (rs *ResultSet) WriteCSV(w io.Writer) error {
	header := []string{"workload", "scale", "config", "model", "setting"}
	var names []string
	if len(rs.Results) > 0 {
		for _, c := range rs.Results[0].Stats.Counters() {
			names = append(names, c.Name)
		}
	}
	header = append(header, names...)
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for _, r := range rs.Results {
		model, setting := "base", ""
		if r.Spec.Model != nil {
			model = r.Spec.Model.Name
			u, _ := parseUpdate(r.Spec.Update)
			setting = harness.Setting{Update: u, Oracle: r.Spec.Oracle}.String()
		}
		row := []string{
			r.Spec.Workload,
			strconv.Itoa(r.Spec.Scale),
			harness.ConfigName(r.Spec.Config),
			model,
			setting,
		}
		for _, c := range r.Stats.Counters() {
			row = append(row, strconv.FormatInt(c.Value, 10))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}
