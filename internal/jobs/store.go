package jobs

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Store is the content-addressed result store: one JSON file per canonical
// spec hash under its directory. Writes are atomic and durable (temp file,
// fsync, rename, fsync of the directory), so a crash mid-Put never leaves a
// truncated result behind, and a Put that returned survives a power loss:
// the journal records a job done only after its result is stored. A Get
// only ever sees complete sets. Identical requests — whoever submits them,
// whenever — address the same entry, which is what makes deduplication a
// lookup. Safe for concurrent use.
type Store struct {
	dir string

	mu    sync.Mutex
	sizes map[string]int64 // hash -> file bytes
	bytes int64
}

// OpenStore opens (creating if needed) the store rooted at dir and indexes
// the results already on disk. It skips, and logs to logger, an empty result
// file, which only a crash of a store without durable writes leaves behind:
// indexing it would answer every resubmission of its spec as a dedup hit
// whose result can never be read. Skipped, the spec simulates afresh and
// its Put replaces the file.
func OpenStore(dir string, logger *slog.Logger) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: store: %w", err)
	}
	s := &Store{dir: dir, sizes: make(map[string]int64)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("jobs: store: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		hash := strings.TrimSuffix(name, ".json")
		if !validHash(hash) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		if info.Size() == 0 {
			logger.Warn("empty result file skipped; its spec will simulate afresh", "spec_hash", hash)
			continue
		}
		s.sizes[hash] = info.Size()
		s.bytes += info.Size()
	}
	return s, nil
}

// validHash accepts exactly the hex SHA-256 form Request.Hash produces, so
// hashes taken from URLs can never escape the store directory.
func validHash(h string) bool {
	if len(h) != 64 {
		return false
	}
	for _, c := range h {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, hash+".json")
}

// Has reports whether a result for hash is stored.
func (s *Store) Has(hash string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.sizes[hash]
	return ok
}

// Get loads the result set stored under hash; ok is false when none exists.
func (s *Store) Get(hash string) (*ResultSet, bool, error) {
	if !validHash(hash) {
		return nil, false, fmt.Errorf("jobs: store: malformed hash %q", hash)
	}
	if !s.Has(hash) {
		return nil, false, nil
	}
	data, err := os.ReadFile(s.path(hash))
	if err != nil {
		return nil, false, fmt.Errorf("jobs: store: %w", err)
	}
	var rs ResultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, false, fmt.Errorf("jobs: store: %s: %w", hash, err)
	}
	return &rs, true, nil
}

// Put stores rs under its spec hash, atomically and durably: the result is
// on disk under its final name when Put returns. Re-putting an existing
// hash rewrites it in place (the simulator is deterministic, so the bytes
// can only match).
func (s *Store) Put(rs *ResultSet) error {
	if !validHash(rs.SpecHash) {
		return fmt.Errorf("jobs: store: malformed hash %q", rs.SpecHash)
	}
	data, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return fmt.Errorf("jobs: store: %w", err)
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(s.dir, "put-*")
	if err != nil {
		return fmt.Errorf("jobs: store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: store: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(rs.SpecHash)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: store: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("jobs: store: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bytes += int64(len(data)) - s.sizes[rs.SpecHash]
	s.sizes[rs.SpecHash] = int64(len(data))
	return nil
}

// Len returns the number of stored result sets.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sizes)
}

// Bytes returns the total on-disk size of the stored results.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// syncDir fsyncs directory dir, making a rename into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
