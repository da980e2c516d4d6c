package jobs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// journalName is the queue's append-only log file under its directory.
const journalName = "journal.log"

// journal is the group-committed durable log backing the Queue: every state
// transition appends one JSON-lines record (the full Job, so replay is
// last-record-wins and idempotent), and a single committer goroutine turns
// all records staged since the last commit into ONE write+fsync — the VSA
// coalescing applied to durability: O(transitions) work becomes Θ(commits)
// fsyncs, however many jobs move while one commit is in flight.
//
// Writers stage under the lock and, when they need a durable acknowledgment
// (submit, complete, fail), block in wait until the committer's synced
// sequence passes their record. Transitions that tolerate re-running after a
// crash (pop, lease renewal) stage without waiting, which keeps them off the
// fsync latency path entirely.
type journal struct {
	path string

	mu       sync.Mutex
	cond     *sync.Cond // broadcast on: staged work, commit completion, close
	f        *os.File
	buf      []byte // staged records not yet handed to the committer
	staged   uint64 // sequence of the newest staged record
	synced   uint64 // sequence of the newest durably committed record
	err      error  // sticky commit error; all waiters see it
	closed   bool
	drained  bool   // committer has run its final commit and exited
	commits  uint64 // fsync batches completed (the Θ(commits) in question)
	records  uint64 // records appended since open/compaction (compaction trigger)
	compact  func() [][]byte
	compactQ bool // compaction requested

	done chan struct{}
}

// openJournal opens (creating if needed) the journal at dir/journal.log,
// replays its records in order through apply, truncates any torn tail from a
// crash mid-write, and starts the committer. snapshot, when non-nil, is the
// compaction source: it must return one encoded record (newline-terminated)
// per live job, consistent with everything staged so far.
func openJournal(dir string, apply func(Job), snapshot func() [][]byte) (*journal, error) {
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: journal: %w", err)
	}
	// Until the directory is synced, a power loss can leave it without the
	// log the commits below make durable.
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("jobs: journal: %w", err)
	}
	j := &journal{path: path, f: f, compact: snapshot, done: make(chan struct{})}
	j.cond = sync.NewCond(&j.mu)

	// Replay. A torn last line (crash mid-append) is expected and truncated
	// away; a torn line anywhere else means real corruption and is an error.
	var offset, good int64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		offset += int64(len(line)) + 1
		var job Job
		if err := json.Unmarshal(line, &job); err != nil || job.ID == "" {
			// Only acceptable as the final, torn record.
			break
		}
		apply(job)
		good = offset
		j.records++
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("jobs: journal: reading %s: %w", path, err)
	}
	if size, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("jobs: journal: %w", err)
	} else if size > good {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("jobs: journal: truncating torn tail: %w", err)
		}
		if _, err := f.Seek(good, io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("jobs: journal: %w", err)
		}
	}

	go j.commitLoop()
	return j, nil
}

// encodeRecord renders one job as a journal line.
func encodeRecord(job *Job) ([]byte, error) {
	data, err := json.Marshal(job)
	if err != nil {
		return nil, fmt.Errorf("jobs: journal: encoding %s: %w", job.ID, err)
	}
	return append(data, '\n'), nil
}

// append stages one encoded record for the next group commit and returns its
// sequence, to be passed to wait when the caller needs the record durable.
func (j *journal) append(rec []byte) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, fmt.Errorf("jobs: journal closed")
	}
	j.buf = append(j.buf, rec...)
	j.staged++
	j.records++
	j.cond.Broadcast()
	return j.staged, nil
}

// wait blocks until the record with the given sequence is durably committed
// and returns the sticky commit error, if any. Close drains every staged
// record through a final commit before the committer exits, so waiters always
// settle.
func (j *journal) wait(seq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.synced < seq && !j.drained {
		j.cond.Wait()
	}
	return j.err
}

// Commits returns how many group commits (write+fsync batches) have run.
func (j *journal) Commits() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.commits
}

// Records returns how many records have been appended since open/compaction.
func (j *journal) Records() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// requestCompact asks the committer to rewrite the journal from the snapshot
// function after its next commit. No-op without a snapshot source.
func (j *journal) requestCompact() {
	if j.compact == nil {
		return
	}
	j.mu.Lock()
	j.compactQ = true
	j.cond.Broadcast()
	j.mu.Unlock()
}

// commitLoop is the single committer: it drains everything staged since the
// last commit into one write+fsync, publishes the new synced sequence, and
// runs requested compactions between commits. File I/O happens outside the
// lock, so staging never blocks on the disk.
func (j *journal) commitLoop() {
	defer close(j.done)
	j.mu.Lock()
	for {
		for !j.closed && len(j.buf) == 0 && !j.compactQ {
			j.cond.Wait()
		}
		if len(j.buf) == 0 && !j.compactQ {
			// Closed and drained.
			j.drained = true
			j.cond.Broadcast()
			j.mu.Unlock()
			return
		}
		if j.compactQ && len(j.buf) == 0 {
			j.compactQ = false
			j.mu.Unlock()
			j.runCompaction()
			j.mu.Lock()
			continue
		}
		// The fsync itself is the staging window: whatever staged while the
		// last batch was in flight rides this one.
		buf, seq := j.buf, j.staged
		j.buf = nil
		j.mu.Unlock()

		_, werr := j.f.Write(buf)
		if werr == nil {
			werr = j.f.Sync()
		}

		j.mu.Lock()
		j.commits++
		j.synced = seq
		if werr != nil && j.err == nil {
			j.err = fmt.Errorf("jobs: journal: commit: %w", werr)
		}
		j.cond.Broadcast()
	}
}

// runCompaction rewrites the journal as one record per live job: snapshot
// (under the queue's lock, so it is consistent with everything staged),
// write to a temp file, fsync, rename over the log, fsync the directory.
// Records staged after the snapshot stay in buf and land in the new file on
// the next commit, after the directory names it, so nothing durable is lost
// if the process or the power dies at any point. Called from the committer
// only, with j.mu released.
func (j *journal) runCompaction() {
	snap := j.compact()
	tmp, err := os.CreateTemp(filepath.Dir(j.path), "journal-*")
	if err != nil {
		j.fail(fmt.Errorf("jobs: journal: compaction: %w", err))
		return
	}
	for _, rec := range snap {
		if _, err := tmp.Write(rec); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			j.fail(fmt.Errorf("jobs: journal: compaction: %w", err))
			return
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		j.fail(fmt.Errorf("jobs: journal: compaction: %w", err))
		return
	}
	// Swap under the lock so no append is mid-flight on the old file.
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		if j.err == nil {
			j.err = fmt.Errorf("jobs: journal: compaction: %w", err)
		}
		return
	}
	j.f.Close()
	j.f = tmp
	j.records = uint64(len(snap))
	if err := syncDir(filepath.Dir(j.path)); err != nil && j.err == nil {
		j.err = fmt.Errorf("jobs: journal: compaction: %w", err)
	}
}

// fail records a sticky error and wakes waiters.
func (j *journal) fail(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err == nil {
		j.err = err
	}
	j.cond.Broadcast()
}

// Close drains staged records through one final commit and stops the
// committer. Records staged after Close are rejected.
func (j *journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		<-j.done
		return j.err
	}
	j.closed = true
	j.cond.Broadcast()
	j.mu.Unlock()
	<-j.done
	j.mu.Lock()
	defer j.mu.Unlock()
	j.f.Close()
	return j.err
}
