package jobs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"valuespec/internal/cpu"
	"valuespec/internal/obs"
)

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, obs.NopLogger())
	if err != nil {
		t.Fatal(err)
	}
	hash := strings.Repeat("ab", 32)
	if s.Has(hash) {
		t.Fatal("empty store claims to have a result")
	}
	if _, ok, err := s.Get(hash); err != nil || ok {
		t.Fatalf("Get on empty store: ok=%v err=%v", ok, err)
	}
	st := &cpu.Stats{Cycles: 123, Retired: 456}
	rs := &ResultSet{SpecHash: hash, Results: []SpecResult{
		{Spec: SimSpec{Workload: "compress", Scale: 2}, Stats: st},
	}}
	if err := s.Put(rs); err != nil {
		t.Fatal(err)
	}
	if !s.Has(hash) || s.Len() != 1 || s.Bytes() <= 0 {
		t.Fatalf("after Put: has=%v len=%d bytes=%d", s.Has(hash), s.Len(), s.Bytes())
	}
	got, ok, err := s.Get(hash)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if got.SpecHash != hash || len(got.Results) != 1 ||
		got.Results[0].Stats.Cycles != 123 || got.Results[0].Stats.Retired != 456 {
		t.Errorf("round trip mangled the result set: %+v", got)
	}

	// Reopening indexes what is on disk.
	s2, err := OpenStore(dir, obs.NopLogger())
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Has(hash) || s2.Len() != 1 || s2.Bytes() != s.Bytes() {
		t.Errorf("reopened store: has=%v len=%d bytes=%d want %d", s2.Has(hash), s2.Len(), s2.Bytes(), s.Bytes())
	}
}

// TestStoreRejectsMalformedHashes is the path-traversal guard: only exact
// 64-char lowercase hex may address the store.
func TestStoreRejectsMalformedHashes(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, obs.NopLogger())
	if err != nil {
		t.Fatal(err)
	}
	bad := []string{
		"",
		"abc",
		strings.Repeat("A", 64),         // uppercase
		strings.Repeat("g", 64),         // non-hex
		"../" + strings.Repeat("a", 61), // traversal
		strings.Repeat("a", 63) + "/",   // separator
		strings.Repeat("a", 65),         // too long
	}
	for _, h := range bad {
		if err := s.Put(&ResultSet{SpecHash: h}); err == nil {
			t.Errorf("Put accepted malformed hash %q", h)
		}
		if _, _, err := s.Get(h); err == nil {
			t.Errorf("Get accepted malformed hash %q", h)
		}
	}
	// Junk files in the directory are ignored, not indexed.
	if err := os.WriteFile(filepath.Join(dir, "junk.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir, obs.NopLogger())
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 0 {
		t.Errorf("junk file indexed: len=%d", s2.Len())
	}
}

// TestStoreSkipsEmptyResult plants what a power loss could leave behind
// when a stored result was renamed into place unsynced: a done job whose
// result file is empty. The reopened store must skip and log the entry, so
// a resubmission simulates afresh instead of deduping to a result nobody
// can read, and the fresh result is then served to both jobs.
func TestStoreSkipsEmptyResult(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Config{DataDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	req := Request{Specs: []SimSpec{{Workload: "xlisp", Scale: 1}}}
	job, _, err := s1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if job = waitJob(t, s1, job.ID); job.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", job.State, job.Error)
	}
	s1.Close()
	if err := os.Truncate(filepath.Join(dir, "results", job.SpecHash+".json"), 0); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	logger, err := obs.NewLogger(&logs, "warn", "text")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{DataDir: dir, Workers: 1, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	if s2.Store().Has(job.SpecHash) || s2.Store().Len() != 0 {
		t.Errorf("reopened store indexes the empty entry: has=%v len=%d", s2.Store().Has(job.SpecHash), s2.Store().Len())
	}
	again, deduped, err := s2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if deduped {
		t.Fatal("the resubmission was answered from the empty entry")
	}
	if again = waitJob(t, s2, again.ID); again.State != StateDone {
		t.Fatalf("resubmission finished %s (%s), want done", again.State, again.Error)
	}
	for _, id := range []string{again.ID, job.ID} {
		if rs, err := s2.Result(id); err != nil || len(rs.Results) != 1 || rs.Results[0].Stats.Retired == 0 {
			t.Errorf("result of job %s: %+v, %v", id, rs, err)
		}
	}
	s2.Close()
	if !strings.Contains(logs.String(), job.SpecHash) {
		t.Errorf("no warning names the skipped entry; logs:\n%s", logs.String())
	}
}
