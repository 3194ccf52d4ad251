package advisor

import (
	"fmt"
	"sort"

	"repro/internal/wal"
)

// Record is one harvested optimization outcome: what the program looked
// like (Vec under Schema), what order the passes ran in, and how that went.
// Records are append-only facts; the store never rewrites history, only
// truncates torn tails and compacts old age.
type Record struct {
	// Schema is the feature-vector layout version (SchemaVersion at write
	// time). Retrieval ignores records from other schemas.
	Schema int `json:"schema"`
	// Seq is assigned on insert (monotonic within one store lifetime,
	// reassigned densely on replay). It is the deterministic tie-breaker for
	// equal distances and is not persisted.
	Seq int64 `json:"-"`
	// Vec is the unit-L2 feature vector of the source program.
	Vec []float32 `json:"vec"`
	// Opts is the *set* of optimizations the run used, sorted — retrieval
	// only consults records whose set matches the request's, so an ordering
	// learned over {DCE,ICM} is never recommended for {DCE,ICM,FUS}.
	Opts []string `json:"opts"`
	// Order is the pass order actually executed.
	Order []string `json:"order"`
	// Applied is the total number of applied actions across the run.
	Applied int `json:"applied"`
	// WallUS is the optimization wall time in microseconds.
	WallUS int64 `json:"wall_us"`
	// Engine records which execution engine produced the outcome (optd
	// writes "interp") — diagnostic only, retrieval is engine-blind.
	Engine string `json:"engine,omitempty"`
}

// valid rejects records that could poison retrieval arithmetic.
func (r *Record) valid() bool {
	return r.Schema > 0 && len(r.Vec) > 0 && len(r.Order) > 0 &&
		r.Applied >= 0 && r.WallUS >= 0
}

// Store is the outcome log: an in-memory window of records mirrored to a
// wal.Log, fsynced per append. A store opened with path "" is memory-only
// (tests, and servers run without -advisor-dir persistence). Methods are
// not safe for concurrent use; the Advisor serializes access.
type Store struct {
	log     *wal.Log[Record] // nil when memory-only
	recs    []*Record
	nextSeq int64
	max     int
}

// OpenStore opens (creating if absent) the outcome log at path, replays
// whole valid records, truncates any torn tail, and compacts immediately if
// the replayed history exceeds max records (keeping the newest). max < 1
// selects 4096. path "" yields a memory-only store.
func OpenStore(path string, max int) (*Store, error) {
	if max < 1 {
		max = 4096
	}
	s := &Store{max: max}
	if path == "" {
		return s, nil
	}
	log, err := wal.Open(path, false, func(r *Record) bool {
		if !r.valid() {
			return false // poisonous record: treat as torn tail
		}
		r.Seq = s.nextSeq
		s.nextSeq++
		sort.Strings(r.Opts)
		s.recs = append(s.recs, r)
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("advisor: store: %w", err)
	}
	s.log = log
	if len(s.recs) > s.max {
		s.recs = s.recs[len(s.recs)-s.max:]
		if err := log.Compact(s.recs); err != nil {
			log.Close()
			return nil, fmt.Errorf("advisor: store: %w", err)
		}
	}
	return s, nil
}

// Add appends one outcome record, assigning its Seq, persisting it (when
// the store is file-backed), and compacting the log down to the in-memory
// window when that overflows max.
func (s *Store) Add(r *Record) error {
	if !r.valid() {
		return fmt.Errorf("advisor: invalid record")
	}
	cp := *r
	cp.Opts = append([]string(nil), r.Opts...)
	sort.Strings(cp.Opts)
	cp.Order = append([]string(nil), r.Order...)
	cp.Vec = append([]float32(nil), r.Vec...)
	cp.Seq = s.nextSeq
	s.nextSeq++
	s.recs = append(s.recs, &cp)
	if err := s.log.Append(&cp); err != nil {
		return fmt.Errorf("advisor: store: %w", err)
	}
	if len(s.recs) > s.max {
		s.recs = s.recs[len(s.recs)-s.max:]
		if err := s.log.Compact(s.recs); err != nil {
			return fmt.Errorf("advisor: store: %w", err)
		}
	}
	return nil
}

// Records returns the live window. Callers must not mutate it; the Advisor
// copies the slice header under its lock before releasing it to retrieval.
func (s *Store) Records() []*Record { return s.recs }

// Len reports the number of live records.
func (s *Store) Len() int { return len(s.recs) }

// Size reports the log size in bytes (0 for memory-only stores).
func (s *Store) Size() int64 { return s.log.Size() }

// Close releases the log file. Memory-only stores are a no-op.
func (s *Store) Close() error { return s.log.Close() }
