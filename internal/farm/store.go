package farm

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/wal"
)

// Finding is one persisted oracle failure: everything needed to reproduce
// (campaign, profile, seed, the exact source) plus the minimized
// reproducer when shrinking succeeded.
type Finding struct {
	Campaign string `json:"campaign"`
	Profile  string `json:"profile"`
	Seed     int64  `json:"seed"`
	Kind     string `json:"kind"`
	Variant  string `json:"variant"`
	Baseline string `json:"baseline"`
	Detail   string `json:"detail"`
	// Source is the generated program that diverged; Minimized is the
	// shrunk reproducer ("" when minimization could not run).
	Source    string    `json:"source"`
	Minimized string    `json:"minimized,omitempty"`
	OrigStmts int       `json:"orig_stmts"`
	MinStmts  int       `json:"min_stmts,omitempty"`
	FoundAt   time.Time `json:"found_at"`
}

// key is the dedup identity: a retried campaign job must not record its
// finding twice.
func (f Finding) key() string {
	return fmt.Sprintf("%s|%d|%s|%s|%s", f.Campaign, f.Seed, f.Kind, f.Variant, f.Baseline)
}

// Store persists findings in a wal.Log, fsynced per append: on open the
// log is replayed up to the first bad frame and truncated there. It needs
// no compaction — Append deduplicates before writing and findings are
// never deleted, so the log already holds exactly the live set. An empty
// dir selects a memory-only store (lost on restart). Safe for concurrent
// use.
type Store struct {
	mu       sync.Mutex
	log      *wal.Log[Finding] // nil when memory-only
	findings []Finding
	seen     map[string]bool
}

// OpenStore opens (creating if absent) the findings log under dir,
// replaying prior findings and truncating any torn tail.
func OpenStore(dir string) (*Store, error) {
	st := &Store{seen: map[string]bool{}}
	if dir == "" {
		return st, nil
	}
	log, err := wal.Open(filepath.Join(dir, "findings.log"), false, func(fd *Finding) bool {
		st.findings = append(st.findings, *fd)
		st.seen[fd.key()] = true
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("farm: store: %w", err)
	}
	st.log = log
	return st, nil
}

// Append persists one finding (fsynced before returning). A finding with
// the same (campaign, seed, divergence class) as a recorded one is
// dropped silently — job retries and resubmitted campaigns are
// idempotent.
func (st *Store) Append(f Finding) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.seen[f.key()] {
		return nil
	}
	if err := st.log.Append(&f); err != nil {
		return fmt.Errorf("farm: store: %w", err)
	}
	st.findings = append(st.findings, f)
	st.seen[f.key()] = true
	return nil
}

// List returns the findings of one campaign ("" = all), oldest first.
func (st *Store) List(campaign string) []Finding {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]Finding, 0, len(st.findings))
	for _, f := range st.findings {
		if campaign == "" || f.Campaign == campaign {
			out = append(out, f)
		}
	}
	return out
}

// Len reports the number of recorded findings.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.findings)
}

// Close releases the log file.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	err := st.log.Close()
	st.log = nil
	return err
}
