package load

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"valuespec/internal/jobs"
)

// Entry is one acknowledged submission: what the daemon promised, recorded
// client-side so a later reconciliation (possibly against a restarted
// daemon) can hold it to that promise.
type Entry struct {
	ID       string `json:"id"`
	SpecHash string `json:"spec_hash"`
	Deduped  bool   `json:"deduped,omitempty"`
}

// Manifest is the durable submission record a soak leaves behind
// (vsload -manifest): the input to vsload -reconcile.
type Manifest struct {
	// Base is the daemon URL the soak ran against (informational; reconcile
	// takes its own -url, since a chaos restart moves ports).
	Base string `json:"base_url,omitempty"`
	// Entries lists every acknowledged submission in ack order.
	Entries []Entry `json:"entries"`
}

// WriteManifest writes m to path as JSON.
func WriteManifest(path string, m Manifest) error {
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return fmt.Errorf("load: encoding manifest: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("load: writing manifest: %w", err)
	}
	return nil
}

// ReadManifest loads the manifest at path.
func ReadManifest(path string) (Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, fmt.Errorf("load: reading manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("load: parsing manifest %s: %w", path, err)
	}
	return m, nil
}

// Outcome is the reconciliation verdict: how every acknowledged job ended,
// and the invariant violations (empty means the service kept its
// exactly-once promise).
type Outcome struct {
	Done         int `json:"done"`
	DedupHits    int `json:"dedup_hits"`
	Failed       int `json:"failed"`
	Canceled     int `json:"canceled"`
	Lost         int `json:"lost"`
	Unfinished   int `json:"unfinished"`
	UniqueHashes int `json:"unique_hashes"`
	// DedupRate is DedupHits / Acked (0 when nothing was acked).
	DedupRate float64 `json:"dedup_rate"`
	// E2E summarizes submit-to-done latency of executed (non-deduped) jobs,
	// from the daemon's own durable timestamps.
	E2E LatencyStats `json:"e2e"`
	// Violations lists every broken invariant, empty on a clean run.
	Violations []string `json:"violations,omitempty"`
}

// reconcileOpts bundles the knobs Reconcile and Runner.Run share.
type reconcileOpts struct {
	DrainTimeout  time.Duration
	PollInterval  time.Duration
	VerifyResults bool
	Logf          func(format string, args ...any)
}

// Reconcile waits (bounded by drainTimeout) for every manifest entry to
// reach a terminal state on the daemon behind client, then verifies the
// exactly-once invariants: no acknowledged job missing from the durable
// /jobs listing, none listed ambiguously, submitted = done + failed +
// canceled exactly, and (verifyResults) one stored result per unique
// content hash, under the promised hash. Violations come back in the
// Outcome; the error return is reserved for an unreachable daemon.
func Reconcile(ctx context.Context, client *Client, m Manifest, drainTimeout time.Duration, verifyResults bool, logf func(string, ...any)) (*Outcome, error) {
	return reconcile(ctx, client, m.Entries, reconcileOpts{
		DrainTimeout:  drainTimeout,
		PollInterval:  200 * time.Millisecond,
		VerifyResults: verifyResults,
		Logf:          logf,
	})
}

func reconcile(ctx context.Context, client *Client, entries []Entry, opts reconcileOpts) (*Outcome, error) {
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = 120 * time.Second
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 200 * time.Millisecond
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	out := &Outcome{}

	// An entry acked twice under one ID would be a service bug; dedupe
	// defensively and flag it, so the counting below stays exact.
	want := make(map[string]Entry, len(entries))
	for _, e := range entries {
		if prev, ok := want[e.ID]; ok {
			if prev.SpecHash != e.SpecHash {
				out.Violations = append(out.Violations,
					fmt.Sprintf("job %s acknowledged twice with different hashes (%s, %s)", e.ID, prev.SpecHash, e.SpecHash))
			} else {
				out.Violations = append(out.Violations,
					fmt.Sprintf("job %s acknowledged twice", e.ID))
			}
			continue
		}
		want[e.ID] = e
	}

	// Drain: poll the compact listing until every wanted job is terminal.
	deadline := time.Now().Add(opts.DrainTimeout)
	var listing map[string]jobs.JobSummary
	for {
		sums, err := client.Summaries()
		if err != nil {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("load: drain: %w", err)
			}
			select {
			case <-time.After(opts.PollInterval):
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		listing = make(map[string]jobs.JobSummary, len(sums))
		for _, s := range sums {
			if _, dup := listing[s.ID]; dup {
				out.Violations = append(out.Violations,
					fmt.Sprintf("job %s appears twice in the /jobs listing", s.ID))
			}
			listing[s.ID] = s
		}
		pending := 0
		for id := range want {
			if s, ok := listing[id]; ok && !s.State.Terminal() {
				pending++
			}
		}
		if pending == 0 || time.Now().After(deadline) {
			if pending > 0 {
				opts.Logf("drain: deadline reached with %d jobs still live", pending)
			}
			break
		}
		select {
		case <-time.After(opts.PollInterval):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	// Classify every acknowledged job against the durable record, keeping
	// each executed job's submit-to-done latency in µs.
	var e2e []int64
	hashes := make(map[string]string) // hash -> a done job id carrying it
	for id, e := range want {
		s, ok := listing[id]
		if !ok {
			out.Lost++
			out.Violations = append(out.Violations,
				fmt.Sprintf("job %s (hash %.12s…) acknowledged but missing from /jobs: lost", id, e.SpecHash))
			continue
		}
		if s.SpecHash != e.SpecHash {
			out.Violations = append(out.Violations,
				fmt.Sprintf("job %s listed with hash %.12s…, acknowledged as %.12s…", id, s.SpecHash, e.SpecHash))
		}
		if _, seen := hashes[e.SpecHash]; !seen {
			out.UniqueHashes++
			hashes[e.SpecHash] = ""
		}
		switch s.State {
		case jobs.StateDone:
			out.Done++
			if s.Deduped {
				out.DedupHits++
			} else {
				e2e = append(e2e, s.FinishedAt.Sub(s.SubmittedAt).Microseconds())
			}
			hashes[e.SpecHash] = id
		case jobs.StateFailed:
			out.Failed++
		case jobs.StateCanceled:
			out.Canceled++
		default:
			out.Unfinished++
			out.Violations = append(out.Violations,
				fmt.Sprintf("job %s still %s after the drain deadline", id, s.State))
		}
	}
	if got := out.Done + out.Failed + out.Canceled + out.Lost + out.Unfinished; got != len(want) {
		out.Violations = append(out.Violations,
			fmt.Sprintf("conservation broken: %d acknowledged jobs but %d accounted for", len(want), got))
	}
	if len(want) > 0 {
		out.DedupRate = round3(float64(out.DedupHits) / float64(len(want)))
	}
	out.E2E = latencyStats(e2e)

	// Every unique hash with at least one done job must have a fetchable
	// result under exactly that hash.
	if opts.VerifyResults {
		checked := 0
		for hash, id := range hashes {
			if id == "" {
				continue // no done job carried it (all failed/canceled)
			}
			got, err := client.ResultHash(id)
			if err != nil {
				out.Violations = append(out.Violations,
					fmt.Sprintf("job %s done but its result is not servable: %v", id, err))
				continue
			}
			if got != hash {
				out.Violations = append(out.Violations,
					fmt.Sprintf("job %s stored result under hash %.12s…, want %.12s…", id, got, hash))
			}
			checked++
		}
		opts.Logf("reconcile: verified %d stored results (one per unique hash)", checked)
	}
	return out, nil
}
