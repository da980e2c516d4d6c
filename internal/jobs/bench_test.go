package jobs

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"valuespec/internal/cpu"
	"valuespec/internal/obs"
)

// BenchmarkJobStorePutGet measures one store round trip: marshal + atomic
// write + read back of a small result set. This is the per-job durability
// overhead the daemon pays on top of simulation time.
func BenchmarkJobStorePutGet(b *testing.B) {
	s, err := OpenStore(b.TempDir(), obs.NopLogger())
	if err != nil {
		b.Fatal(err)
	}
	rs := &ResultSet{
		SpecHash: strings.Repeat("a", 64),
		Results: []SpecResult{
			{Spec: SimSpec{Workload: "compress", Scale: 2}, Stats: &cpu.Stats{Cycles: 1000, Retired: 900}},
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(rs); err != nil {
			b.Fatal(err)
		}
		if _, ok, err := s.Get(rs.SpecHash); err != nil || !ok {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueueSubmitDrain measures the durable queue cycle for a batch of
// jobs: submit, pop (a lease grant), complete under the granted token —
// three journaled transitions per job, each acknowledged only after its
// group commit reaches disk.
func BenchmarkQueueSubmitDrain(b *testing.B) {
	q, err := OpenQueue(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer q.Close()
	const batch = 8
	reqs := make([]Request, batch)
	hashes := make([]string, batch)
	for i := range reqs {
		reqs[i] = Request{Name: fmt.Sprintf("bench %d", i),
			Specs: []SimSpec{{Workload: "compress", Scale: 2 + i}}}
		h, err := reqs[i].Hash()
		if err != nil {
			b.Fatal(err)
		}
		hashes[i] = h
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids := make([]string, batch)
		for k := range reqs {
			j, err := q.Submit(reqs[k], hashes[k])
			if err != nil {
				b.Fatal(err)
			}
			ids[k] = j.ID
		}
		for range ids {
			j, ok := q.Pop()
			if !ok {
				b.Fatal("queue closed")
			}
			if _, err := q.CompleteLease(j.ID, j.LeaseToken); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkJournalGroupCommit measures the durable submit path under
// concurrency: 8 goroutines submit jobs whose journal records share group
// commits, so each acknowledgment amortizes its fsync across every
// submitter staged in the same window.
func BenchmarkJournalGroupCommit(b *testing.B) {
	q, err := OpenQueue(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer q.Close()
	req := Request{Name: "gc", Specs: []SimSpec{{Workload: "compress", Scale: 2}}}
	hash, err := req.Hash()
	if err != nil {
		b.Fatal(err)
	}
	const submitters = 8
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		n := b.N / submitters
		if g < b.N%submitters {
			n++
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := q.Submit(req, hash); err != nil {
					b.Error(err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
}
