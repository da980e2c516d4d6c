package jobs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"valuespec/internal/bench"
	"valuespec/internal/core"
	"valuespec/internal/cpu"
)

// FuzzSubmitRequest drives the pure half of the submit path — decode,
// Validate, Canonical, Hash — over pairs of arbitrary bodies. For every body
// the service would accept, each spec must lie inside the envelope,
// Canonical must be idempotent, still validate and keep the request's hash;
// and two accepted bodies with equal hashes must carry equal canonical spec
// lists.
func FuzzSubmitRequest(f *testing.F) {
	great := core.Great()
	seeds := [][]byte{
		[]byte(`{}`),
		[]byte(`{"specs":[{"workload":"gcc"}]}`),
		[]byte(`{"name":"x","priority":3,"specs":[{"workload":"gcc","scale":50,"config":{"IssueWidth":8,"WindowSize":48}}]}`),
		[]byte(`{"specs":[{"workload":"xlisp","config":{"BranchHistoryBits":40}}]}`),
	}
	for _, req := range []Request{
		propRequest(7), // vsload's and perfbench's nonce-steered shape
		{Specs: []SimSpec{
			{Workload: "m88ksim", Config: cpu.Config16x96(), Model: &great, Update: "D", Oracle: true},
			{Workload: "go", Scale: 1, Config: cpu.Config4x24().Normalize()},
		}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, body)
	}
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		canonA, hashA, okA := submitChecks(t, a)
		canonB, hashB, okB := submitChecks(t, b)
		if okA && okB && hashA == hashB && !reflect.DeepEqual(canonA, canonB) {
			t.Fatalf("bodies share hash %.12s but not their canonical specs:\n%s\n%s", hashA, a, b)
		}
	})
}

// submitChecks runs one body through the checks of FuzzSubmitRequest and,
// when the service would accept it, returns its canonical specs and hash.
func submitChecks(t *testing.T, body []byte) ([]SimSpec, string, bool) {
	req, err := decodeRequest(bytes.NewReader(body))
	if err != nil || req.Validate() != nil {
		return nil, "", false
	}
	hash, err := req.Hash()
	if err != nil {
		t.Fatalf("validated request does not hash: %v", err)
	}
	canon := make([]SimSpec, len(req.Specs))
	for i, s := range req.Specs {
		if !withinEnvelope(s) {
			t.Fatalf("spec %d validated outside the envelope: %+v", i, s)
		}
		c, err := s.Canonical()
		if err != nil {
			t.Fatalf("validated spec %d has no canonical form: %v", i, err)
		}
		again, err := c.Canonical()
		if err != nil || !reflect.DeepEqual(again, c) {
			t.Fatalf("Canonical is not idempotent on spec %d: %+v -> %+v (%v)", i, c, again, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("canonical spec %d fails Validate: %v", i, err)
		}
		canon[i] = c
	}
	if h, err := (Request{Specs: canon}).Hash(); err != nil || h != hash {
		t.Fatalf("canonical specs hash to %.12s, the request to %.12s (%v)", h, hash, err)
	}
	return canon, hash, true
}

// withinEnvelope restates the envelope's upper bounds independently of
// SimSpec.Validate: what an accepted spec may cost a worker.
func withinEnvelope(s SimSpec) bool {
	w, err := bench.ByName(s.Workload)
	if err != nil {
		return false
	}
	c := resolveConfig(s.Config)
	m := c.Mem
	ok := s.Scale <= MaxScaleFactor*w.DefaultScale &&
		c.IssueWidth <= MaxIssueWidth && c.WindowSize <= MaxWindowSize &&
		c.DCachePorts <= MaxIssueWidth && c.BranchHistoryBits <= MaxBranchHistoryBits &&
		max(m.L1IHitLat, m.L1DHitLat, m.L2HitLat, m.MemLat) <= MaxLatency
	for _, cc := range []struct{ size, block, assoc int }{
		{m.L1I.SizeBytes, m.L1I.BlockBytes, m.L1I.Assoc},
		{m.L1D.SizeBytes, m.L1D.BlockBytes, m.L1D.Assoc},
		{m.L2.SizeBytes, m.L2.BlockBytes, m.L2.Assoc},
	} {
		ok = ok && cc.size <= MaxCacheBytes && cc.block >= MinCacheBlockBytes &&
			cc.block <= MaxCacheBlockBytes && cc.assoc <= MaxCacheAssoc
	}
	if s.Model != nil {
		l := s.Model.Lat
		ok = ok && max(l.ExecEqInvalidate, l.ExecEqVerify, l.VerifyFreeIssue, l.VerifyFreeRetire,
			l.InvalidateReissue, l.VerifyBranch, l.VerifyAddrMem) <= MaxLatency
	}
	return ok
}
