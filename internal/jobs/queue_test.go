package jobs

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func testRequest(name string, priority int) Request {
	return Request{Name: name, Priority: priority, Specs: []SimSpec{{Workload: "compress"}}}
}

func hashFor(t *testing.T, req Request) string {
	t.Helper()
	h, err := req.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// leaseLocal is the daemon pool's grant: it waits for one job and holds it
// under a local lease (worker "", no expiry). ok is false once the queue is
// closed.
func leaseLocal(t testing.TB, q *Queue) (Job, bool) {
	t.Helper()
	leased, err := q.Lease(context.Background(), "", 1, 0)
	if len(leased) == 0 {
		return Job{}, false
	}
	if err != nil {
		t.Fatal(err)
	}
	return leased[0], true
}

// doneCtx is an already-cancelled context: a Lease under it never waits.
func doneCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestQueuePriorityFIFO(t *testing.T) {
	q, err := OpenQueue(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	// Two priority levels, interleaved; higher priority first, FIFO within.
	order := []struct {
		name string
		prio int
	}{{"a", 0}, {"b", 5}, {"c", 0}, {"d", 5}}
	for _, o := range order {
		req := testRequest(o.name, o.prio)
		if _, err := q.Submit(req, hashFor(t, req)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for i := 0; i < 4; i++ {
		j, ok := leaseLocal(t, q)
		if !ok {
			t.Fatal("queue closed early")
		}
		got = append(got, j.Request.Name)
		if j.State != StateRunning || j.Attempts != 1 {
			t.Errorf("popped job %s: state %s attempts %d", j.ID, j.State, j.Attempts)
		}
	}
	if want := "b,d,a,c"; strings.Join(got, ",") != want {
		t.Errorf("pop order %v, want %s", got, want)
	}
}

// TestQueuePopGrantsLocalLease: the daemon pool's grant (worker "", ttl 0)
// is the same token-fenced lease a fleet worker gets, with no worker and no
// expiry, so the fleet's lease bookkeeping never sees it, and Cancel of the
// running job fences its late settle.
func TestQueuePopGrantsLocalLease(t *testing.T) {
	q, ja, jb := leaseQueue(t)
	a, ok := leaseLocal(t, q)
	if !ok {
		t.Fatal("queue closed early")
	}
	if a.ID != ja.ID || a.State != StateRunning || a.LeaseToken == "" || a.Worker != "" || !a.LeaseExpiry.IsZero() {
		t.Fatalf("popped job %+v, want %s running under a local lease", a, ja.ID)
	}
	if q.Leased() != 0 {
		t.Errorf("Leased() = %d counts a local run", q.Leased())
	}
	if expired := q.ExpireLeases(time.Now().Add(time.Hour)); len(expired) != 0 {
		t.Errorf("ExpireLeases requeued local runs %v", expired)
	}
	if _, err := q.CompleteLease(ja.ID, "bogus"); !errors.Is(err, ErrStaleLease) {
		t.Errorf("bogus token error = %v, want ErrStaleLease", err)
	}
	if _, err := q.CompleteLease(ja.ID, a.LeaseToken); err != nil {
		t.Fatal(err)
	}

	b, _ := leaseLocal(t, q)
	if b.LeaseToken == a.LeaseToken {
		t.Error("two grants share a token")
	}
	canceled, err := q.Cancel(jb.ID)
	if err != nil || canceled.State != StateCanceled || canceled.LeaseToken != "" {
		t.Fatalf("cancel running job: %+v, %v", canceled, err)
	}
	if _, err := q.CompleteLease(jb.ID, b.LeaseToken); !errors.Is(err, ErrStaleLease) {
		t.Errorf("settle after cancel error = %v, want ErrStaleLease", err)
	}
	if _, err := q.Cancel(jb.ID); !errors.Is(err, ErrFinished) {
		t.Errorf("second cancel error = %v, want ErrFinished", err)
	}
}

// TestQueueRecovery is the kill-and-restart property at the queue level:
// queued and running jobs reappear queued after a reopen, terminal jobs keep
// their state, and new submissions never reuse an id.
func TestQueueRecovery(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	reqA, reqB, reqC := testRequest("a", 0), testRequest("b", 0), testRequest("c", 0)
	ja, _ := q.Submit(reqA, hashFor(t, reqA))
	if _, err := q.Submit(reqB, hashFor(t, reqB)); err != nil {
		t.Fatal(err)
	}
	jc, _ := q.Submit(reqC, hashFor(t, reqC))
	// a completes; b stays queued; c is mid-run when the process "dies".
	popped, ok := leaseLocal(t, q)
	if !ok {
		t.Fatal("lease failed")
	}
	if _, err := q.CompleteLease(ja.ID, popped.LeaseToken); err != nil {
		t.Fatal(err)
	}
	if _, ok := leaseLocal(t, q); !ok { // b running
		t.Fatal("lease failed")
	}
	// No Close: simulate a crash by just reopening from the same directory.

	q2, err := OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if q2.Recovered() != 2 {
		t.Errorf("recovered %d jobs, want 2 (the queued and the running one)", q2.Recovered())
	}
	a, _ := q2.Get(ja.ID)
	if a.State != StateDone {
		t.Errorf("completed job recovered as %s", a.State)
	}
	if q2.Depth() != 2 {
		t.Errorf("depth after recovery = %d, want 2", q2.Depth())
	}
	j1, _ := leaseLocal(t, q2)
	j2, _ := leaseLocal(t, q2)
	if j1.Request.Name != "b" || j2.Request.Name != "c" {
		t.Errorf("recovered lease order %s,%s want b,c", j1.Request.Name, j2.Request.Name)
	}
	// The recovered running job keeps its attempt count and charges another.
	if j1.Attempts != 2 {
		t.Errorf("re-run job attempts = %d, want 2", j1.Attempts)
	}
	req := testRequest("d", 0)
	jd, err := q2.Submit(req, hashFor(t, req))
	if err != nil {
		t.Fatal(err)
	}
	if jd.ID == ja.ID || jd.ID == jc.ID || jd.Seq <= jc.Seq {
		t.Errorf("new job %s/%d collides with recovered ids", jd.ID, jd.Seq)
	}
}

func TestQueueCancelAndParkRelease(t *testing.T) {
	q, err := OpenQueue(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	reqA, reqB := testRequest("a", 0), testRequest("b", 0)
	ja, _ := q.Submit(reqA, hashFor(t, reqA))
	jb, _ := q.Submit(reqB, hashFor(t, reqB))

	// Cancel a while queued: Lease must skip it.
	if _, err := q.Cancel(ja.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Cancel(ja.ID); err == nil {
		t.Error("second cancel succeeded, want error")
	}
	j, ok := leaseLocal(t, q)
	if !ok || j.ID != jb.ID {
		t.Fatalf("lease skipped to %v, want %s", j.ID, jb.ID)
	}

	// Park b (retry backoff): durable as queued, but not leasable.
	if _, err := q.ParkLease(jb.ID, j.LeaseToken, errors.New("transient")); err != nil {
		t.Fatal(err)
	}
	if q.Depth() != 0 {
		t.Errorf("parked job counted in depth %d", q.Depth())
	}
	got, _ := q.Get(jb.ID)
	if got.State != StateQueued || got.Error != "transient" {
		t.Errorf("parked job state %s error %q", got.State, got.Error)
	}
	q.Release(jb.ID)
	q.Release(jb.ID) // idempotent: no double entry
	if q.Depth() != 1 {
		t.Errorf("depth after release = %d, want 1", q.Depth())
	}
	if j, ok = leaseLocal(t, q); !ok || j.ID != jb.ID || j.Attempts != 2 {
		t.Errorf("released lease = %v ok=%v attempts=%d", j.ID, ok, j.Attempts)
	}
	if again, err := q.Lease(doneCtx(), "", 1, 0); len(again) != 0 || err != nil {
		t.Errorf("second lease of the released job = %v, %v; want nothing", again, err)
	}
}

// TestQueueClosePreservesPending checks the shutdown contract Lease gives
// the service: after Close, Lease returns at once with no job and an error,
// and pending jobs stay durably queued for the next open.
func TestQueueClosePreservesPending(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	req := testRequest("a", 0)
	if _, err := q.Submit(req, hashFor(t, req)); err != nil {
		t.Fatal(err)
	}
	q.Close()
	if leased, err := q.Lease(context.Background(), "", 1, 0); len(leased) != 0 || err == nil {
		t.Fatalf("Lease after Close = %v, %v; want no job and an error", leased, err)
	}
	if _, err := q.Submit(req, hashFor(t, req)); err == nil {
		t.Fatal("Submit accepted after Close")
	}
	q2, err := OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if q2.Depth() != 1 {
		t.Errorf("pending job lost across close/reopen: depth %d", q2.Depth())
	}
}
