package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"

	"valuespec/internal/cpu"
	"valuespec/internal/harness"
	"valuespec/internal/jobs"
)

// oracleJSON holds the expected Stats digest of every spec the workloads
// run, generated with -gen-oracle.
//
//go:embed oracle.json
var oracleJSON []byte

// oracle maps a spec label (harness.Spec.Label) to the SHA-256 of its
// cpu.Stats JSON, plus the digest of the Fig. 3 cells the sweep aggregates.
type oracle struct {
	Stats     map[string]string `json:"stats"`
	Fig3Cells string            `json:"fig3_cells"`
}

func loadOracle() (*oracle, error) {
	var o oracle
	if err := json.Unmarshal(oracleJSON, &o); err != nil {
		return nil, fmt.Errorf("parsing oracle.json: %w", err)
	}
	if len(o.Stats) == 0 {
		return nil, errors.New("oracle.json holds no digests")
	}
	return &o, nil
}

func digest(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // Stats and Fig3Cell are plain data; encoding cannot fail
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// check compares one simulation's Stats against the oracle.
func (o *oracle) check(label string, st *cpu.Stats) error {
	want, ok := o.Stats[label]
	if !ok {
		return fmt.Errorf("%s: no oracle digest", label)
	}
	if st == nil {
		return fmt.Errorf("%s: no stats", label)
	}
	if got := digest(st); got != want {
		return fmt.Errorf("%s: stats digest %.12s, oracle %.12s", label, got, want)
	}
	return nil
}

// cellsDigest digests the Fig. 3 cells at nine significant digits: the
// harmonic mean sums a map's values in iteration order, so the last bits of
// a cell's speedup differ from run to run.
func cellsDigest(cells []harness.Fig3Cell) string {
	var b strings.Builder
	for _, c := range cells {
		fmt.Fprintf(&b, "%s|%s|%s|%.9g", c.Config, c.Setting, c.Model, c.Speedup)
		names := make([]string, 0, len(c.PerWkld))
		for n := range c.PerWkld {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "|%s=%.9g", n, c.PerWkld[n])
		}
		b.WriteByte('\n')
	}
	return digest(b.String())
}

// checkCells compares the Fig. 3 cells against the oracle.
func (o *oracle) checkCells(cells []harness.Fig3Cell) error {
	if got := cellsDigest(cells); got != o.Fig3Cells {
		return fmt.Errorf("fig3 cells digest %.12s, oracle %.12s", got, o.Fig3Cells)
	}
	return nil
}

// selfTest proves the comparison can fail: a copy of the oracle with the
// digest of label perturbed must report st as a mismatch, and the intact
// oracle must accept it.
func (o *oracle) selfTest(label string, st *cpu.Stats) error {
	if err := o.check(label, st); err != nil {
		return fmt.Errorf("oracle self-test: intact oracle rejects %s: %w", label, err)
	}
	bad := &oracle{Stats: map[string]string{label: perturb(o.Stats[label])}}
	if bad.check(label, st) == nil {
		return fmt.Errorf("oracle self-test: perturbed digest of %s was not reported", label)
	}
	return nil
}

// perturb flips the last hex digit of a digest.
func perturb(d string) string {
	if d == "" {
		return "0"
	}
	last := d[len(d)-1]
	flipped := byte('0')
	if last == '0' {
		flipped = '1'
	}
	return d[:len(d)-1] + string(flipped)
}

// genOracle simulates every spec of every workload and writes the digests
// to path. Run it only on a commit whose simulator output is trusted.
func genOracle(path string) error {
	o := oracle{Stats: make(map[string]string)}
	record := func(specs []harness.Spec) ([]harness.Result, error) {
		res, err := harness.SimulateAll(specs)
		if err != nil {
			return nil, err
		}
		for _, r := range res {
			o.Stats[r.Spec.Label()] = digest(r.Stats)
		}
		return res, nil
	}
	base, runs := fig3Specs()
	baseRes, err := record(base)
	if err != nil {
		return err
	}
	runRes, err := record(runs)
	if err != nil {
		return err
	}
	cells, err := harness.Fig3FromResults(baseRes, runRes)
	if err != nil {
		return err
	}
	o.Fig3Cells = cellsDigest(cells)
	if _, err := record(modelSpaceSpecs()); err != nil {
		return err
	}
	var tiny []harness.Spec
	for _, s := range tinyGrid() {
		hs, err := s.ToHarness()
		if err != nil {
			return err
		}
		tiny = append(tiny, hs)
	}
	if _, err := record(tiny); err != nil {
		return err
	}
	for _, s := range hotPool() {
		if _, ok := o.Stats[specLabel(s)]; !ok {
			return fmt.Errorf("hot spec %s is not part of the Fig. 3 sweep", specLabel(s))
		}
	}
	data, err := json.MarshalIndent(o, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// specLabel is the oracle key of a service spec.
func specLabel(s jobs.SimSpec) string { return s.Label() }
