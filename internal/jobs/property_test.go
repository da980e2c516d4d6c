package jobs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"valuespec/internal/cpu"
	"valuespec/internal/harness"
	"valuespec/internal/obs"
)

// propRequest builds a tiny one-spec request whose content hash is steered
// by nonce through MaxCycles (far above the workload's actual cycle count,
// so the simulated result is unaffected).
func propRequest(nonce int64) Request {
	return Request{
		Name: fmt.Sprintf("prop %d", nonce),
		Specs: []SimSpec{{
			Workload: "compress",
			Scale:    1,
			Config:   cpu.Config{MaxCycles: int64(1)<<40 + nonce},
		}},
	}
}

// TestServiceConservationProperty drives a randomized interleaving of
// submit / cancel / crash-restart operations over one durable data
// directory, with a flaky executor and a retry budget, then asserts the
// ledger invariants that every soak and chaos run relies on:
//
//	every acknowledged job reaches a terminal state exactly once,
//	done + failed + canceled == acknowledged (nothing lost, nothing
//	double-counted), and every done job's result is in the store under
//	the hash the ack promised.
//
// Cancel must accept every acknowledged job, whatever it is doing: nil for
// a live one, ErrFinished for a terminal one. The remote sequences add a
// fleet-style lease holder beside the local pool: it leases jobs, completes
// or fails them through the token-fenced calls, lets its leases lapse to
// ExpireLeases, and keeps reporting on stale tokens like a zombie worker.
//
// The operation sequence is seeded, so a failure reproduces.
func TestServiceConservationProperty(t *testing.T) {
	seeds := []int64{1, 7, 42, 1234}
	ops := 120
	if testing.Short() {
		seeds = seeds[:2]
		ops = 40
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runConservationSequence(t, seed, ops, false)
		})
		t.Run(fmt.Sprintf("remote,seed=%d", seed), func(t *testing.T) {
			runConservationSequence(t, seed, ops, true)
		})
	}
}

// remoteResults is what the remote holder reports for a job: one trivial
// result per spec.
func remoteResults(job Job) []SpecResult {
	out := make([]SpecResult, len(job.Request.Specs))
	for i, s := range job.Request.Specs {
		out[i] = SpecResult{Spec: s, Stats: &cpu.Stats{Cycles: 1, Retired: 1}}
	}
	return out
}

func runConservationSequence(t *testing.T, seed int64, ops int, remote bool) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()

	// The executor sleeps briefly (so cancels and restarts catch jobs
	// mid-flight) and fails every fourth attempt, exercising the
	// park-release retry path and terminal failures under MaxRetries 1.
	var attempts atomic.Int64
	flaky := func(ctx context.Context, specs []harness.Spec, _ *harness.Progress) ([]harness.Result, error) {
		select {
		case <-time.After(time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if attempts.Add(1)%4 == 0 {
			return nil, errors.New("flaky attempt")
		}
		out := make([]harness.Result, len(specs))
		for i := range out {
			out[i] = harness.Result{Stats: &cpu.Stats{Cycles: 1, Retired: 1}}
		}
		return out, nil
	}
	cfg := Config{
		DataDir:      dir,
		Workers:      2,
		MaxRetries:   1,
		RetryBackoff: time.Millisecond,
		Metrics:      obs.NewSharedRegistry(),
		Simulate:     flaky,
	}
	open := func() *Service {
		t.Helper()
		svc, err := Open(cfg)
		if err != nil {
			t.Fatalf("opening service: %v", err)
		}
		svc.Start()
		return svc
	}
	svc := open()
	defer func() { svc.Close() }()

	var (
		ackedIDs  []string
		ackedHash = map[string]string{}
		uniqueSeq int64
		restarts  int
		// held is the remote holder's view of its leases: id -> the job as
		// leased. Entries outlive expiry, cancels and restarts on purpose,
		// so later settles exercise the stale-token fence.
		held = map[string]Job{}
	)
	settled := func(op int, what string, err error) {
		t.Helper()
		if err != nil && !errors.Is(err, ErrStaleLease) {
			t.Fatalf("op %d: remote %s: %v", op, what, err)
		}
	}
	for i := 0; i < ops; i++ {
		if remote && rng.Float64() < 0.3 {
			switch k := rng.Intn(10); {
			case k < 4: // lease a batch
				leased, err := svc.LeaseJobs(doneCtx(), "remote", 1+rng.Intn(2), time.Hour)
				if err != nil {
					t.Fatalf("op %d: lease: %v", i, err)
				}
				for _, j := range leased {
					held[j.ID] = j
				}
			case k < 9: // settle one held lease, current or stale
				for id, j := range held {
					if k < 7 {
						_, err := svc.CompleteLeased(id, j.LeaseToken, remoteResults(j))
						settled(i, "complete", err)
					} else {
						_, err := svc.FailLeased(id, j.LeaseToken, errors.New("remote flaky"))
						settled(i, "fail", err)
					}
					delete(held, id)
					break
				}
			default: // the holder stops heartbeating: every lease lapses
				svc.ExpireLeases(time.Now().Add(2 * time.Hour))
			}
			continue
		}
		switch p := rng.Float64(); {
		case p < 0.40: // unique submission
			uniqueSeq++
			job, _, err := svc.Submit(propRequest(1_000_000 + uniqueSeq))
			if err != nil {
				t.Fatalf("op %d: unique submit: %v", i, err)
			}
			ackedIDs = append(ackedIDs, job.ID)
			ackedHash[job.ID] = job.SpecHash
		case p < 0.75: // pooled submission: duplicates drive the dedup path
			job, _, err := svc.Submit(propRequest(int64(rng.Intn(6))))
			if err != nil {
				t.Fatalf("op %d: pooled submit: %v", i, err)
			}
			ackedIDs = append(ackedIDs, job.ID)
			ackedHash[job.ID] = job.SpecHash
		case p < 0.90 && len(ackedIDs) > 0: // cancel a random acked job
			id := ackedIDs[rng.Intn(len(ackedIDs))]
			if _, err := svc.Cancel(id); err != nil && !errors.Is(err, ErrFinished) {
				t.Fatalf("op %d: cancel %s: %v", i, id, err)
			}
		case p < 0.95 && restarts < 3: // crash-restart over the same directory
			restarts++
			svc.Close()
			svc = open()
		default:
			time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
		}
	}

	// Drain: the remote holder walks away, so its leases lapse back to the
	// local pool, and every acknowledged job must settle within the
	// deadline.
	svc.ExpireLeases(time.Now().Add(2 * time.Hour))
	deadline := time.Now().Add(30 * time.Second)
	for {
		live := 0
		for _, j := range svc.Jobs() {
			if _, ours := ackedHash[j.ID]; ours && !j.State.Terminal() {
				live++
			}
		}
		if live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d acknowledged jobs never settled (seed %d, %d restarts)", live, seed, restarts)
		}
		time.Sleep(5 * time.Millisecond)
	}

	listing := map[string]Job{}
	for _, j := range svc.Jobs() {
		if _, dup := listing[j.ID]; dup {
			t.Fatalf("job %s listed twice", j.ID)
		}
		listing[j.ID] = j
	}
	var done, failed, canceled int
	for id, hash := range ackedHash {
		j, ok := listing[id]
		if !ok {
			t.Fatalf("acknowledged job %s lost (seed %d)", id, seed)
		}
		if j.SpecHash != hash {
			t.Fatalf("job %s listed under hash %.12s, acked as %.12s", id, j.SpecHash, hash)
		}
		switch j.State {
		case StateDone:
			done++
			if !svc.Store().Has(j.SpecHash) {
				t.Fatalf("job %s done but hash %.12s missing from the store", id, j.SpecHash)
			}
		case StateFailed:
			failed++
		case StateCanceled:
			canceled++
		default:
			t.Fatalf("job %s non-terminal after drain: %s", id, j.State)
		}
	}
	if got := done + failed + canceled; got != len(ackedHash) {
		t.Fatalf("conservation broken (seed %d): done %d + failed %d + canceled %d = %d, acked %d",
			seed, done, failed, canceled, got, len(ackedHash))
	}
}
