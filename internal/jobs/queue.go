package jobs

import (
	"container/heap"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// State is a job's lifecycle position.
type State string

// Job states. Queued and Running are the live states a restarted daemon
// re-queues; the other three are terminal.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is one queued unit of work and its durable record: everything here is
// one journal record.
type Job struct {
	ID  string `json:"id"`
	Seq int64  `json:"seq"`
	// Request is the submitted batch, verbatim.
	Request Request `json:"request"`
	// SpecHash is the canonical content address of Request's spec list; the
	// result store is keyed by it.
	SpecHash string `json:"spec_hash"`
	State    State  `json:"state"`
	// Attempts counts execution attempts so far (retries included).
	Attempts int `json:"attempts"`
	// Error holds the most recent failure, kept across a retry so observers
	// can see why a job is back in the queue.
	Error string `json:"error,omitempty"`
	// Deduped marks a job answered from the result store without running.
	Deduped     bool      `json:"deduped,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`

	// Lease state, set while the job runs: every run holds a lease. Worker
	// names a fleet holder (empty for the daemon's own workers), LeaseToken
	// fences the holder's settle calls (a requeue or cancel clears it, so a
	// zombie's late settle is rejected), and LeaseExpiry is when an
	// unrenewed fleet lease lapses back into the queue (zero for local runs,
	// which never expire).
	Worker      string    `json:"worker,omitempty"`
	LeaseToken  string    `json:"lease_token,omitempty"`
	LeaseExpiry time.Time `json:"lease_expiry,omitempty"`
}

// clearLease drops the lease fields (requeue, completion, terminal states).
func (j *Job) clearLease() {
	j.Worker = ""
	j.LeaseToken = ""
	j.LeaseExpiry = time.Time{}
}

// ErrStaleLease rejects a lease operation whose token no longer fences the
// job: the lease expired and the job was requeued (token rotated), finished
// through another path, or was never leased. Fleet workers treat it as "drop
// your result, the coordinator moved on".
var ErrStaleLease = errors.New("jobs: stale lease")

// jobHeap orders pending jobs by priority (higher first), then submission
// sequence (FIFO).
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].Request.Priority != h[j].Request.Priority {
		return h[i].Request.Priority > h[j].Request.Priority
	}
	return h[i].Seq < h[j].Seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*Job)) }
func (h *jobHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Queue is the durable job queue: every state transition appends one record
// to a group-committed journal (see journal.go), so a burst of transitions
// costs one fsync rather than one per job, and the in-memory picture can be
// rebuilt exactly after a crash by replaying the journal (last record per
// job wins). Lease waits until work is pending, which is what the service's
// workers and the coordinator's held /lease requests park on. Safe for
// concurrent use.
//
// Durability contract per transition: submissions and terminal transitions
// (complete, fail, cancel, park) return only after their record is fsynced —
// they are acknowledgments. Lease bookkeeping (renewal, expiry) stages its
// records without waiting: losing one to a crash only errs towards
// re-running a job, which the content-addressed store makes idempotent.
type Queue struct {
	journal *journal

	mu   sync.Mutex
	jobs map[string]*Job
	// ready, made by a Lease that finds nothing pending, is closed (and
	// cleared) when a job becomes pending or the queue closes.
	ready     chan struct{}
	pending   jobHeap
	nextSeq   int64
	closed    bool
	recovered int

	// onTerminal, when set, runs under mu as a transition moves a job into
	// a terminal state, handed the job as it now stands (FinishedAt set), so
	// whatever it publishes is visible no later than the state itself. It
	// must not call back into the queue.
	onTerminal func(Job)
}

// compactMinRecords is the journal length below which compaction never
// triggers, and compactFactor is how much larger than the live job set the
// journal must grow before a rewrite is worth it.
const (
	compactMinRecords = 512
	compactFactor     = 4
)

// OpenQueue opens (creating if needed) the queue rooted at dir and recovers
// its jobs: records found queued or running — a running job at open time
// means the previous process died mid-run, an outstanding lease that its
// coordinator never settled — go back to the pending queue, terminal records
// are kept for listing and result serving. Journal records group-commit:
// whatever stages while a commit's fsync is in flight rides the next batch.
func OpenQueue(dir string) (*Queue, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: queue: %w", err)
	}
	q := &Queue{jobs: make(map[string]*Job), nextSeq: 1}

	j, err := openJournal(dir, func(job Job) {
		q.applyRecord(job)
	}, q.snapshotRecords)
	if err != nil {
		return nil, err
	}
	q.journal = j

	// Normalize recovered state: anything live goes back to queued, leases
	// do not survive their holder — a remote worker's, or the previous
	// process's own.
	var last uint64
	q.mu.Lock()
	for _, job := range q.jobs {
		if job.State == StateQueued || job.State == StateRunning {
			job.State = StateQueued
			job.clearLease()
			q.recovered++
			if last, err = q.stageLocked(job); err != nil {
				q.mu.Unlock()
				q.journal.Close()
				return nil, err
			}
			heap.Push(&q.pending, job)
		}
		if job.Seq >= q.nextSeq {
			q.nextSeq = job.Seq + 1
		}
	}
	heap.Init(&q.pending)
	q.mu.Unlock()
	if last > 0 {
		if err := q.journal.wait(last); err != nil {
			q.journal.Close()
			return nil, err
		}
	}
	return q, nil
}

// applyRecord folds one replayed journal record into the map (last record
// per job wins). Runs during open, before any concurrency.
func (q *Queue) applyRecord(job Job) {
	if job.ID == "" {
		return
	}
	if existing, ok := q.jobs[job.ID]; ok {
		*existing = job
		return
	}
	j := job
	q.jobs[job.ID] = &j
}

// snapshotRecords is the journal's compaction source: one encoded record per
// job, under the queue lock so the snapshot is consistent with everything
// staged before it.
func (q *Queue) snapshotRecords() [][]byte {
	q.mu.Lock()
	defer q.mu.Unlock()
	jobs := make([]*Job, 0, len(q.jobs))
	for _, j := range q.jobs {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].Seq < jobs[k].Seq })
	out := make([][]byte, 0, len(jobs))
	for _, j := range jobs {
		rec, err := encodeRecord(j)
		if err != nil {
			continue // unencodable jobs got here through a record; unreachable
		}
		out = append(out, rec)
	}
	return out
}

// Recovered returns how many jobs the open re-queued after a restart.
func (q *Queue) Recovered() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.recovered
}

// Commits returns how many journal group commits have run; the fleet status
// endpoint reports it next to the record count.
func (q *Queue) Commits() uint64 { return q.journal.Commits() }

// stageLocked encodes j and stages it for the next group commit, returning
// the sequence to wait on. Caller holds q.mu. It also arms compaction when
// the journal has outgrown the live job set.
func (q *Queue) stageLocked(j *Job) (uint64, error) {
	rec, err := encodeRecord(j)
	if err != nil {
		return 0, err
	}
	seq, err := q.journal.append(rec)
	if err != nil {
		return 0, err
	}
	if r := q.journal.Records(); r >= compactMinRecords && r > compactFactor*uint64(len(q.jobs)) {
		q.journal.requestCompact()
	}
	return seq, nil
}

// Submit durably enqueues a new job for req and wakes a waiting worker.
func (q *Queue) Submit(req Request, hash string) (Job, error) {
	return q.submit(req, hash, StateQueued)
}

// SubmitCompleted durably records a job that is already answered by the
// result store (a dedup hit): it is born done and never queued.
func (q *Queue) SubmitCompleted(req Request, hash string) (Job, error) {
	return q.submit(req, hash, StateDone)
}

func (q *Queue) submit(req Request, hash string, state State) (Job, error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return Job{}, fmt.Errorf("jobs: queue closed")
	}
	j := &Job{
		ID:          fmt.Sprintf("j%06d", q.nextSeq),
		Seq:         q.nextSeq,
		Request:     req,
		SpecHash:    hash,
		State:       state,
		SubmittedAt: time.Now().UTC(),
	}
	if state == StateDone {
		j.Deduped = true
		j.FinishedAt = j.SubmittedAt
	}
	seq, err := q.stageLocked(j)
	if err != nil {
		q.mu.Unlock()
		return Job{}, err
	}
	q.nextSeq++
	q.jobs[j.ID] = j
	job := *j
	q.mu.Unlock()
	// The submit acknowledgment is durable: wait for the group commit that
	// covers this record (shared with every concurrent submission). Only
	// then does the job become leasable — a worker must never observe work
	// whose submission could still be lost to a crash.
	if err := q.journal.wait(seq); err != nil {
		return job, err
	}
	if state == StateQueued {
		q.mu.Lock()
		if j.State == StateQueued {
			heap.Push(&q.pending, j)
			q.wakeLocked()
		}
		q.mu.Unlock()
	}
	return job, nil
}

// wakeLocked wakes every waiting Lease to re-check under the lock, so a
// waiter that gave up cannot swallow a wake-up. Caller holds q.mu.
func (q *Queue) wakeLocked() {
	if q.ready != nil {
		close(q.ready)
		q.ready = nil
	}
}

// grantLocked takes the best pending job and grants it as a lease: running,
// one attempt charged, a fresh token that fences its settle calls, held by
// worker until expiry. The token is 16 bytes from crypto/rand in hex, so no
// client can derive another holder's token from its own. The daemon's own
// runs have no worker and no expiry, so ExpireLeases, Leased and the fleet
// view ignore them.
// The record is staged; the returned sequence is what to wait on. Caller
// holds q.mu and has checked pending is non-empty.
func (q *Queue) grantLocked(worker string, expiry time.Time) (*Job, uint64, error) {
	j := heap.Pop(&q.pending).(*Job)
	j.State = StateRunning
	j.Attempts++
	j.StartedAt = time.Now().UTC()
	j.Worker = worker
	j.LeaseExpiry = expiry
	var raw [16]byte
	if _, err := rand.Read(raw[:]); err != nil {
		// From Go 1.24 on, Read crashes the process itself when the
		// system's random source fails; older toolchains return the error
		// instead, and a queue that cannot draw tokens cannot fence leases.
		panic("jobs: drawing a lease token: " + err.Error())
	}
	var buf [32]byte
	hex.Encode(buf[:], raw[:])
	j.LeaseToken = string(buf[:])
	seq, err := q.stageLocked(j)
	return j, seq, err
}

// skipCanceledLocked drops entries cancelled while pending off the heap top.
func (q *Queue) skipCanceledLocked() {
	for q.pending.Len() > 0 && q.pending[0].State != StateQueued {
		heap.Pop(&q.pending)
	}
}

// Lease is the queue's one grant. It waits until a job is pending, the
// queue closes (an error) or ctx ends (nothing), then grants up to max jobs
// to worker, each expiring ttl from now unless renewed (ttl 0: never; the
// daemon's own workers lease with worker "" and ttl 0), and returns copies.
// An already-done ctx makes it a non-blocking poll. The grant records ride
// one group commit that Lease waits for; a failure to stage or commit comes
// back beside the jobs granted in memory, which the caller still holds.
func (q *Queue) Lease(ctx context.Context, worker string, max int, ttl time.Duration) ([]Job, error) {
	if max <= 0 {
		return nil, nil
	}
	q.mu.Lock()
	for {
		if q.closed {
			q.mu.Unlock()
			return nil, fmt.Errorf("jobs: queue closed")
		}
		q.skipCanceledLocked()
		if q.pending.Len() > 0 {
			break
		}
		if ctx.Err() != nil {
			q.mu.Unlock()
			return nil, nil
		}
		if q.ready == nil {
			q.ready = make(chan struct{})
		}
		ready := q.ready
		q.mu.Unlock()
		select {
		case <-ready:
		case <-ctx.Done():
		}
		q.mu.Lock()
	}
	var expiry time.Time
	if ttl > 0 {
		expiry = time.Now().UTC().Add(ttl)
	}
	var out []Job
	var last uint64
	var err error
	for len(out) < max && q.pending.Len() > 0 {
		j, seq, gerr := q.grantLocked(worker, expiry)
		out = append(out, *j)
		if gerr != nil {
			err = gerr
			break
		}
		last = seq
		q.skipCanceledLocked()
	}
	q.mu.Unlock()
	if last > 0 {
		if werr := q.journal.wait(last); err == nil {
			err = werr
		}
	}
	return out, err
}

// Heartbeat renews worker's leases on the named jobs, extending each expiry
// to now+ttl, and returns the ids actually renewed. Ids missing from the
// returned set are lost leases: the job expired and was requeued, finished
// through another path, or was cancelled — the worker should abandon them.
// Renewal records stage without waiting; losing one to a crash only expires
// a lease early.
func (q *Queue) Heartbeat(worker string, ids []string, ttl time.Duration) []string {
	now := time.Now().UTC()
	q.mu.Lock()
	defer q.mu.Unlock()
	var renewed []string
	for _, id := range ids {
		j, ok := q.jobs[id]
		if !ok || j.State != StateRunning || j.Worker != worker {
			continue
		}
		j.LeaseExpiry = now.Add(ttl)
		_, _ = q.stageLocked(j)
		renewed = append(renewed, id)
	}
	return renewed
}

// ExpireLeases requeues every fleet-leased job whose expiry has passed — a
// worker that stopped heartbeating: the job goes back to queued with its
// lease cleared (so the dead worker's late settle is fenced off) and is
// immediately leasable again. Expiry does not charge the retry budget; a
// worker crash is the coordinator's fault to absorb, like its own restart.
// Returns copies of the requeued jobs.
func (q *Queue) ExpireLeases(now time.Time) []Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []Job
	for _, j := range q.jobs {
		if j.State != StateRunning || j.Worker == "" || !now.After(j.LeaseExpiry) {
			continue
		}
		worker := j.Worker
		j.State = StateQueued
		j.clearLease()
		// The attempt died with the worker: hand it back.
		if j.Attempts > 0 {
			j.Attempts--
		}
		j.Error = fmt.Sprintf("lease expired: worker %s stopped heartbeating", worker)
		_, _ = q.stageLocked(j)
		heap.Push(&q.pending, j)
		q.wakeLocked()
		out = append(out, *j)
	}
	return out
}

// CompleteLease marks a leased job done, but only if token still fences it;
// otherwise ErrStaleLease (wrapped) tells the holder its lease lapsed, or
// the job was cancelled, and the result was discarded. Durable before
// returning.
func (q *Queue) CompleteLease(id, token string) (Job, error) {
	return q.settleLease(id, token, func(j *Job) {
		j.State = StateDone
		j.Error = ""
		j.FinishedAt = time.Now().UTC()
	})
}

// ParkLease settles a failed attempt for a retry: the job is queued on disk
// but not leasable until Release, so a crash during the backoff recovers it
// while live workers don't pick it up early.
func (q *Queue) ParkLease(id, token string, cause error) (Job, error) {
	return q.settleLease(id, token, func(j *Job) {
		j.State = StateQueued
		j.Error = cause.Error()
	})
}

// FailLease settles a failed attempt for good.
func (q *Queue) FailLease(id, token string, cause error) (Job, error) {
	return q.settleLease(id, token, func(j *Job) {
		j.State = StateFailed
		j.Error = cause.Error()
		j.FinishedAt = time.Now().UTC()
	})
}

// settleLease applies mutate to a leased job and clears its lease, if token
// still fences it. Durable before returning.
func (q *Queue) settleLease(id, token string, mutate func(*Job)) (Job, error) {
	return q.update(id, func(j *Job) error {
		if err := checkLease(j, token); err != nil {
			return err
		}
		j.clearLease()
		mutate(j)
		return nil
	})
}

// ValidateLease reports whether token currently fences the named job.
func (q *Queue) ValidateLease(id, token string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return fmt.Errorf("jobs: unknown job %q", id)
	}
	return checkLease(j, token)
}

// checkLease verifies token currently fences j.
func checkLease(j *Job, token string) error {
	if j.State != StateRunning || j.LeaseToken == "" || j.LeaseToken != token {
		return fmt.Errorf("%w: job %s is %s (token mismatch)", ErrStaleLease, j.ID, j.State)
	}
	return nil
}

// update applies mutate to the named job under the lock, stages the record,
// and waits for its group commit: these transitions are acknowledgments.
func (q *Queue) update(id string, mutate func(*Job) error) (Job, error) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok {
		q.mu.Unlock()
		return Job{}, fmt.Errorf("jobs: unknown job %q", id)
	}
	was := j.State
	if err := mutate(j); err != nil {
		job := *j
		q.mu.Unlock()
		return job, err
	}
	if q.onTerminal != nil && !was.Terminal() && j.State.Terminal() {
		q.onTerminal(*j)
	}
	seq, err := q.stageLocked(j)
	job := *j
	q.mu.Unlock()
	if err != nil {
		return job, err
	}
	if err := q.journal.wait(seq); err != nil {
		return job, err
	}
	return job, nil
}

// Release re-admits a parked (queued but unlisted) job to the pending heap.
// A job cancelled while parked stays out.
func (q *Queue) Release(id string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok || j.State != StateQueued {
		return
	}
	for _, p := range q.pending {
		if p == j {
			return
		}
	}
	heap.Push(&q.pending, j)
	q.wakeLocked()
}

// Cancel marks any live job canceled: queued, parked for a retry, or
// running under a lease, local or remote. The cleared token fences the
// holder's late settle. A job already terminal returns ErrFinished.
func (q *Queue) Cancel(id string) (Job, error) {
	return q.update(id, func(j *Job) error {
		if j.State.Terminal() {
			return ErrFinished
		}
		j.State = StateCanceled
		j.clearLease()
		j.FinishedAt = time.Now().UTC()
		return nil
	})
}

// Get returns a copy of the named job.
func (q *Queue) Get(id string) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// List returns copies of every job, oldest first.
func (q *Queue) List() []Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Job, 0, len(q.jobs))
	for _, j := range q.jobs {
		out = append(out, *j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Seq < out[k].Seq })
	return out
}

// ListRange returns up to limit jobs starting at offset in oldest-first
// order, plus the total job count — the pagination primitive behind
// GET /jobs?offset=&limit=, so fleet-scale listings stream in pages instead
// of materializing one giant array per request.
func (q *Queue) ListRange(offset, limit int) ([]Job, int) {
	all := q.List()
	total := len(all)
	if offset < 0 {
		offset = 0
	}
	if offset >= total {
		return nil, total
	}
	all = all[offset:]
	if limit > 0 && limit < len(all) {
		all = all[:limit]
	}
	return all, total
}

// Len returns the total number of jobs (every state).
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.jobs)
}

// Depth returns how many jobs are leasable right now.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, j := range q.pending {
		if j.State == StateQueued {
			n++
		}
	}
	return n
}

// Leased returns how many jobs are currently running under a worker lease.
func (q *Queue) Leased() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, j := range q.jobs {
		if j.State == StateRunning && j.Worker != "" {
			n++
		}
	}
	return n
}

// Close rejects further submissions, wakes every waiting Lease, and drains
// the journal through a final group commit.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.wakeLocked()
	q.mu.Unlock()
	q.journal.Close()
}
