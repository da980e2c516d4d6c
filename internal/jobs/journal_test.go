package jobs

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// TestJournalGroupCommit pins the Θ(commits) coalescing claim: records
// staged while the committer cannot take the buffer, as concurrent durable
// submissions stage while a commit's fsync is in flight, ride one commit
// rather than one each. Staging them under one hold of the journal lock
// makes that window deterministic; left to the scheduler, the coalescing
// degree depends on fsync latency and can legitimately hit 1 on a
// single-CPU machine with a fast disk.
func TestJournalGroupCommit(t *testing.T) {
	q, err := OpenQueue(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	const n = 64
	j := q.journal
	j.mu.Lock()
	for i := 1; i <= n; i++ {
		rec, err := encodeRecord(&Job{ID: fmt.Sprintf("j%06d", i), Seq: int64(i), State: StateQueued})
		if err != nil {
			t.Fatal(err)
		}
		j.buf = append(j.buf, rec...)
		j.staged++
	}
	j.cond.Broadcast()
	j.mu.Unlock()
	if err := j.wait(n); err != nil {
		t.Fatal(err)
	}

	commits := q.Commits()
	if commits == 0 {
		t.Fatal("no group commits ran")
	}
	if commits >= n {
		t.Errorf("%d staged records took %d commits; group commit should coalesce", n, commits)
	}
	t.Logf("%d durable records in %d group commits", n, commits)
}

// TestJournalTornTail: a crash mid-append leaves a partial last line; the
// next open must replay every complete record, truncate the torn tail, and
// keep appending cleanly.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	reqA, reqB := testRequest("a", 0), testRequest("b", 0)
	ja, _ := q.Submit(reqA, hashFor(t, reqA))
	jb, _ := q.Submit(reqB, hashFor(t, reqB))
	q.Close()

	// Tear the tail: append half a record.
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"j9999`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	torn, _ := os.Stat(path)

	q2, err := OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if _, ok := q2.Get(ja.ID); !ok {
		t.Errorf("job %s lost to the torn tail", ja.ID)
	}
	if _, ok := q2.Get(jb.ID); !ok {
		t.Errorf("job %s lost to the torn tail", jb.ID)
	}
	if q2.Len() != 2 {
		t.Errorf("recovered %d jobs, want 2", q2.Len())
	}
	// The torn bytes are gone and a new submission appends a valid record.
	req := testRequest("c", 0)
	jc, err := q2.Submit(req, hashFor(t, req))
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := os.Stat(path)
	if clean.Size() >= torn.Size() && q2.Len() != 3 {
		t.Errorf("torn tail not truncated (size %d -> %d)", torn.Size(), clean.Size())
	}
	q2.Close()

	q3, err := OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer q3.Close()
	if _, ok := q3.Get(jc.ID); !ok {
		t.Errorf("post-truncation record %s did not survive a reopen", jc.ID)
	}
}

// TestJournalCompaction: once the journal outgrows the live job set, the
// committer rewrites it to one record per job, and the compacted journal
// replays to the identical state.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Each job here costs 5 records (submit, lease, park, lease, complete),
	// so the journal outgrows the live set by more than compactFactor and
	// crosses compactMinRecords with ~compactMinRecords/5 jobs.
	const jobsN = compactMinRecords/5 + 16
	for i := 0; i < jobsN; i++ {
		req := testRequest(fmt.Sprintf("c%d", i), 0)
		j, err := q.Submit(req, hashFor(t, req))
		if err != nil {
			t.Fatal(err)
		}
		first, ok := leaseLocal(t, q)
		if !ok {
			t.Fatal("lease failed")
		}
		if _, err := q.ParkLease(j.ID, first.LeaseToken, fmt.Errorf("churn")); err != nil {
			t.Fatal(err)
		}
		q.Release(j.ID)
		second, ok := leaseLocal(t, q)
		if !ok {
			t.Fatal("lease failed")
		}
		if _, err := q.CompleteLease(j.ID, second.LeaseToken); err != nil {
			t.Fatal(err)
		}
	}
	// Compaction runs on the committer; give it a moment to settle.
	deadline := time.Now().Add(5 * time.Second)
	for q.journal.Records() > uint64(2*jobsN) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	records := q.journal.Records()
	if records > uint64(2*jobsN) {
		t.Errorf("journal holds %d records for %d jobs; compaction never ran", records, jobsN)
	}
	before := q.List()
	q.Close()

	q2, err := OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	after := q2.List()
	if len(after) != len(before) {
		t.Fatalf("compacted journal replayed %d jobs, want %d", len(after), len(before))
	}
	for i := range before {
		if before[i].ID != after[i].ID || before[i].State != after[i].State || before[i].Attempts != after[i].Attempts {
			t.Errorf("job %s diverged across compaction+replay: %+v != %+v", before[i].ID, before[i], after[i])
		}
	}
}

// TestJournalSyncsDirectory: the journal's directory entry is made durable
// once when a queue opens (the create) and once more per compaction (the
// rename), before the new file takes appends.
func TestJournalSyncsDirectory(t *testing.T) {
	dir := t.TempDir()
	var syncs atomic.Int32
	orig := syncDir
	syncDir = func(d string) error {
		if d == dir {
			syncs.Add(1)
		}
		return orig(d)
	}
	defer func() { syncDir = orig }()

	q, err := OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := syncs.Load(); n != 1 {
		t.Errorf("fresh queue: %d directory syncs, want 1", n)
	}
	req := testRequest("sync", 0)
	if _, err := q.Submit(req, hashFor(t, req)); err != nil {
		t.Fatal(err)
	}
	q.journal.requestCompact()
	deadline := time.Now().Add(5 * time.Second)
	for syncs.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	q.Close()
	if n := syncs.Load(); n != 2 {
		t.Errorf("after one compaction: %d directory syncs, want 2", n)
	}
}
