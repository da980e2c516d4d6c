package jobs

import (
	"container/heap"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// leaseQueue opens a queue with two submitted jobs for the lease tests.
func leaseQueue(t *testing.T) (*Queue, Job, Job) {
	t.Helper()
	q, err := OpenQueue(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(q.Close)
	reqA, reqB := testRequest("a", 0), testRequest("b", 0)
	ja, err := q.Submit(reqA, hashFor(t, reqA))
	if err != nil {
		t.Fatal(err)
	}
	jb, err := q.Submit(reqB, hashFor(t, reqB))
	if err != nil {
		t.Fatal(err)
	}
	return q, ja, jb
}

// TestLeaseTokensUnguessable drives 10,000 grants of one job through the
// grant path and checks that every token is 32 hex digits (16 random bytes)
// and that none repeats, so a client cannot derive another holder's token
// from its own.
func TestLeaseTokensUnguessable(t *testing.T) {
	q, ja, _ := leaseQueue(t)
	q.mu.Lock()
	defer q.mu.Unlock()
	j := q.jobs[ja.ID]
	seen := make(map[string]bool, 10000)
	for i := 0; i < 10000; i++ {
		for q.pending.Len() > 0 {
			heap.Pop(&q.pending)
		}
		heap.Push(&q.pending, j)
		g, _, err := q.grantLocked("w", time.Now().Add(time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		tok := g.LeaseToken
		if _, err := hex.DecodeString(tok); err != nil || len(tok) != 32 {
			t.Fatalf("grant %d: token %q is not 32 hex digits", i, tok)
		}
		if seen[tok] {
			t.Fatalf("grant %d: token %q repeats", i, tok)
		}
		seen[tok] = true
	}
}

// TestLeaseWakeupNotLost: two Leases wait on an empty queue and one gives
// up; the one job submitted next must go to the other at once, so a waiter
// that left cannot swallow the wake-up.
func TestLeaseWakeupNotLost(t *testing.T) {
	q, err := OpenQueue(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	type grant struct {
		jobs []Job
		err  error
		at   time.Time
	}
	quitting, quit := context.WithCancel(context.Background())
	staying, stay := context.WithTimeout(context.Background(), 10*time.Second)
	defer stay()
	quitter, stayer := make(chan grant, 1), make(chan grant, 1)
	wait := func(ctx context.Context, out chan<- grant) {
		leased, err := q.Lease(ctx, "", 1, 0)
		out <- grant{leased, err, time.Now()}
	}
	go wait(quitting, quitter)
	go wait(staying, stayer)
	// Either interleaving must hold; the pause makes the one where both
	// already wait the likely one.
	time.Sleep(20 * time.Millisecond)
	quit()
	if g := <-quitter; len(g.jobs) != 0 || g.err != nil {
		t.Fatalf("the cancelled Lease returned %v, %v; want nothing", g.jobs, g.err)
	}
	req := testRequest("a", 0)
	job, err := q.Submit(req, hashFor(t, req))
	if err != nil {
		t.Fatal(err)
	}
	submitted := time.Now()
	g := <-stayer
	if len(g.jobs) != 1 || g.jobs[0].ID != job.ID || g.err != nil {
		t.Fatalf("the waiting Lease returned %v, %v; want %s", g.jobs, g.err, job.ID)
	}
	if d := g.at.Sub(submitted); d > 100*time.Millisecond {
		t.Errorf("the waiting Lease got the job %v after its submission, want within 100ms", d)
	}
}

func TestQueueLeaseBasics(t *testing.T) {
	q, ja, jb := leaseQueue(t)
	leased, err := q.Lease(doneCtx(), "w1", 8, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(leased) != 2 {
		t.Fatalf("leased %d jobs, want 2", len(leased))
	}
	if leased[0].ID != ja.ID || leased[1].ID != jb.ID {
		t.Errorf("lease order %s,%s want %s,%s", leased[0].ID, leased[1].ID, ja.ID, jb.ID)
	}
	for _, j := range leased {
		if j.State != StateRunning || j.Worker != "w1" || j.LeaseToken == "" || j.Attempts != 1 {
			t.Errorf("leased job %s: state %s worker %q token %q attempts %d", j.ID, j.State, j.Worker, j.LeaseToken, j.Attempts)
		}
	}
	if leased[0].LeaseToken == leased[1].LeaseToken {
		t.Error("lease tokens not unique")
	}
	if q.Depth() != 0 {
		t.Errorf("depth %d after leasing everything", q.Depth())
	}
	if q.Leased() != 2 {
		t.Errorf("Leased() = %d, want 2", q.Leased())
	}
	// Complete one with the right token, fail the wrong token.
	if _, err := q.CompleteLease(ja.ID, "bogus"); !errors.Is(err, ErrStaleLease) {
		t.Errorf("bogus token error = %v, want ErrStaleLease", err)
	}
	done, err := q.CompleteLease(ja.ID, leased[0].LeaseToken)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone || done.Worker != "" || done.LeaseToken != "" {
		t.Errorf("completed job carries lease residue: %+v", done)
	}
}

// TestLeaseHeartbeatAfterExpiry is edge case #1: a heartbeat that arrives
// after the lease lapsed and the job was requeued must NOT renew it — the
// worker is told the lease is lost.
func TestLeaseHeartbeatAfterExpiry(t *testing.T) {
	q, ja, _ := leaseQueue(t)
	leased, err := q.Lease(doneCtx(), "w1", 1, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(leased) != 1 || leased[0].ID != ja.ID {
		t.Fatalf("leased %v, want %s", leased, ja.ID)
	}

	// Heartbeat while live: renewed.
	if renewed := q.Heartbeat("w1", []string{ja.ID}, 10*time.Millisecond); len(renewed) != 1 {
		t.Fatalf("live heartbeat renewed %v, want [%s]", renewed, ja.ID)
	}

	// Expire it, then heartbeat again: lost.
	requeued := q.ExpireLeases(time.Now().UTC().Add(time.Second))
	if len(requeued) != 1 || requeued[0].ID != ja.ID {
		t.Fatalf("expired %v, want [%s]", requeued, ja.ID)
	}
	if requeued[0].State != StateQueued || requeued[0].Worker != "" || requeued[0].LeaseToken != "" {
		t.Errorf("requeued job keeps lease state: %+v", requeued[0])
	}
	if requeued[0].Attempts != 0 {
		t.Errorf("expiry charged the retry budget: attempts %d, want 0", requeued[0].Attempts)
	}
	if renewed := q.Heartbeat("w1", []string{ja.ID}, time.Minute); len(renewed) != 0 {
		t.Errorf("post-expiry heartbeat renewed %v, want nothing", renewed)
	}
	// The job is poppable again immediately (Park/Release semantics).
	if q.Depth() != 2 {
		t.Errorf("depth %d after requeue, want 2", q.Depth())
	}
}

// TestLeaseZombieDoubleComplete is edge case #2: the lease expires, the job
// is re-leased to another worker which completes it, and then the original
// (zombie) worker's Complete arrives with the rotated-away token — it must
// be rejected, and must not disturb the terminal state.
func TestLeaseZombieDoubleComplete(t *testing.T) {
	q, ja, _ := leaseQueue(t)
	first, err := q.Lease(doneCtx(), "w1", 1, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	q.ExpireLeases(time.Now().UTC().Add(time.Second))

	second, err := q.Lease(doneCtx(), "w2", 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != 1 || second[0].ID != ja.ID {
		t.Fatalf("re-lease got %v, want %s", second, ja.ID)
	}
	if second[0].LeaseToken == first[0].LeaseToken {
		t.Fatal("requeue did not rotate the lease token")
	}
	if _, err := q.CompleteLease(ja.ID, second[0].LeaseToken); err != nil {
		t.Fatal(err)
	}

	// The zombie wakes up.
	if _, err := q.CompleteLease(ja.ID, first[0].LeaseToken); !errors.Is(err, ErrStaleLease) {
		t.Errorf("zombie complete error = %v, want ErrStaleLease", err)
	}
	if _, err := q.ParkLease(ja.ID, first[0].LeaseToken, errors.New("zombie fail")); !errors.Is(err, ErrStaleLease) {
		t.Errorf("zombie fail error = %v, want ErrStaleLease", err)
	}
	got, _ := q.Get(ja.ID)
	if got.State != StateDone || got.Error != "" {
		t.Errorf("zombie disturbed the terminal record: %+v", got)
	}
}

// TestLeaseCoordinatorRestart is edge case #3: a coordinator that dies with
// outstanding leases must recover them as queued — the lease does not
// survive its coordinator, exactly like a mid-run local job.
func TestLeaseCoordinatorRestart(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	reqA, reqB := testRequest("a", 0), testRequest("b", 0)
	ja, _ := q.Submit(reqA, hashFor(t, reqA))
	jb, _ := q.Submit(reqB, hashFor(t, reqB))
	leased, err := q.Lease(doneCtx(), "w1", 1, time.Minute)
	if err != nil || len(leased) != 1 {
		t.Fatalf("lease: %v %v", leased, err)
	}
	if _, err := q.CompleteLease(ja.ID, leased[0].LeaseToken); err != nil {
		t.Fatal(err)
	}
	leasedB, err := q.Lease(doneCtx(), "w1", 1, time.Minute)
	if err != nil || len(leasedB) != 1 || leasedB[0].ID != jb.ID {
		t.Fatalf("lease b: %v %v", leasedB, err)
	}
	// Crash: reopen without Close.
	q2, err := OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if q2.Recovered() != 1 {
		t.Errorf("recovered %d, want 1 (the outstanding lease)", q2.Recovered())
	}
	b, _ := q2.Get(jb.ID)
	if b.State != StateQueued || b.Worker != "" || b.LeaseToken != "" {
		t.Errorf("outstanding lease recovered as %+v, want clean queued", b)
	}
	a, _ := q2.Get(ja.ID)
	if a.State != StateDone {
		t.Errorf("completed job recovered as %s", a.State)
	}
	// The zombie's completion against the dead coordinator's token fails.
	if _, err := q2.CompleteLease(jb.ID, leasedB[0].LeaseToken); !errors.Is(err, ErrStaleLease) {
		t.Errorf("cross-restart zombie complete error = %v, want ErrStaleLease", err)
	}
}

// TestFailLeasedOneRecord: each failed attempt settles in one journal
// record, parked while the retry budget lasts and failed after it.
func TestFailLeasedOneRecord(t *testing.T) {
	s, err := Open(Config{DataDir: t.TempDir(), MaxRetries: 1, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	job, _, err := s.Submit(Request{Specs: []SimSpec{{Workload: "xlisp", Scale: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []State{StateQueued, StateFailed} {
		// The lease waits out the parked retry's backoff.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		leased, err := s.LeaseJobs(ctx, "w1", 1, time.Minute)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if len(leased) != 1 || leased[0].ID != job.ID {
			t.Fatalf("leased %v, want %s", leased, job.ID)
		}
		before := s.queue.journal.Records()
		got, err := s.FailLeased(job.ID, leased[0].LeaseToken, errors.New("boom"))
		if err != nil {
			t.Fatal(err)
		}
		if got.State != want {
			t.Errorf("attempt %d settled %s, want %s", got.Attempts, got.State, want)
		}
		if n := s.queue.journal.Records() - before; n != 1 {
			t.Errorf("attempt %d wrote %d journal records, want 1", got.Attempts, n)
		}
	}
}

// TestJournalReplayProperty is the seeded property test over the batched
// journal: a random interleaving of submissions, leases, heartbeats,
// completions, failures, expiries and crash-reopens must always replay to
// exactly the in-memory model — no job lost, duplicated, or left holding a
// lease across a restart.
func TestJournalReplayProperty(t *testing.T) {
	seeds := []int64{1, 7, 42, 1234}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			q, err := OpenQueue(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { q.Close() }()

			ops := 300
			if testing.Short() {
				ops = 120
			}
			// model holds the expected durable state per job id; tokens the
			// live lease tokens per id.
			model := make(map[string]State)
			tokens := make(map[string]string)
			var ids []string
			nonce := 0

			for op := 0; op < ops; op++ {
				switch k := rng.Intn(20); {
				case k < 8: // submit
					nonce++
					req := testRequest(fmt.Sprintf("p%d", nonce), rng.Intn(3))
					job, err := q.Submit(req, hashFor(t, req))
					if err != nil {
						t.Fatal(err)
					}
					model[job.ID] = StateQueued
					ids = append(ids, job.ID)
				case k < 12: // lease a batch
					leased, err := q.Lease(doneCtx(), fmt.Sprintf("w%d", rng.Intn(3)), 1+rng.Intn(3), time.Hour)
					if err != nil {
						t.Fatal(err)
					}
					for _, j := range leased {
						model[j.ID] = StateRunning
						tokens[j.ID] = j.LeaseToken
					}
				case k < 15: // complete a leased job (right or wrong token)
					for id, tok := range tokens {
						if rng.Intn(4) == 0 {
							if _, err := q.CompleteLease(id, "zombie"); !errors.Is(err, ErrStaleLease) {
								t.Fatalf("zombie token accepted on %s: %v", id, err)
							}
							continue
						}
						if _, err := q.CompleteLease(id, tok); err != nil {
							t.Fatal(err)
						}
						model[id] = StateDone
						delete(tokens, id)
						break
					}
				case k < 17: // fail a leased job (parks it queued, released)
					for id, tok := range tokens {
						if _, err := q.ParkLease(id, tok, errors.New("flaky")); err != nil {
							t.Fatal(err)
						}
						q.Release(id)
						model[id] = StateQueued
						delete(tokens, id)
						break
					}
				case k < 18: // expire every lease
					for _, j := range q.ExpireLeases(time.Now().UTC().Add(2 * time.Hour)) {
						model[j.ID] = StateQueued
						delete(tokens, j.ID)
					}
				case k < 19: // cancel a random job: any live one settles
					if len(ids) > 0 {
						id := ids[rng.Intn(len(ids))]
						_, err := q.Cancel(id)
						if live := !model[id].Terminal(); live != (err == nil) {
							t.Fatalf("cancel %s (%s): %v", id, model[id], err)
						}
						if err == nil {
							model[id] = StateCanceled
							delete(tokens, id)
						}
					}
				default: // restart: leases lapse, running -> queued
					// Close first so the retiring committer cannot append
					// staged heartbeat/expiry records after the new queue's
					// own writes (two live writers never happens in a real
					// crash). Close leaves running jobs running on disk, so
					// the reopen still exercises lease-lapse recovery.
					q.Close()
					q2, err := OpenQueue(dir)
					if err != nil {
						t.Fatal(err)
					}
					q = q2
					for id, st := range model {
						if st == StateRunning {
							model[id] = StateQueued
						}
					}
					tokens = map[string]string{}
				}
			}

			// Final replay and comparison against the model.
			q.Close()
			q2, err := OpenQueue(dir)
			if err != nil {
				t.Fatal(err)
			}
			q = q2
			for id, st := range model {
				if st == StateRunning {
					model[id] = StateQueued
				}
			}
			all := q.List()
			if len(all) != len(model) {
				t.Fatalf("replay found %d jobs, model has %d", len(all), len(model))
			}
			seen := make(map[string]bool)
			for _, j := range all {
				if seen[j.ID] {
					t.Fatalf("job %s duplicated in replay", j.ID)
				}
				seen[j.ID] = true
				want, ok := model[j.ID]
				if !ok {
					t.Fatalf("job %s replayed but never submitted", j.ID)
				}
				if j.State != want {
					t.Errorf("job %s replayed as %s, model says %s", j.ID, j.State, want)
				}
				if j.Worker != "" || j.LeaseToken != "" || !j.LeaseExpiry.IsZero() {
					t.Errorf("job %s holds a lease across restart: %+v", j.ID, j)
				}
			}
		})
	}
}
