package advisor

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/jobs"
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

// Store is the outcome log: an in-memory slice of records mirrored to an
// append-only file using the jobs WAL frame format (length + CRC32 +
// JSON payload), with the same torn-tail truncation on open and the same
// tmp+rename+dir-sync compaction discipline. A store opened with path ""
// is memory-only (tests, and servers run without -advisor-dir persistence).
// Methods are not safe for concurrent use; the Advisor serializes access.
type Store struct {
	path    string
	f       *os.File
	size    int64
	appends int
	nosync  bool

	recs    []*Record
	nextSeq int64
	max     int
}

// OpenStore opens (creating if absent) the outcome log at path, replays
// whole records, truncates any torn tail, and compacts immediately if the
// replayed history exceeds max records (keeping the newest). max < 1
// selects 4096. path "" yields a memory-only store.
func OpenStore(path string, max int, nosync bool) (*Store, error) {
	if max < 1 {
		max = 4096
	}
	s := &Store{path: path, nosync: nosync, max: max}
	if path == "" {
		return s, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("advisor: store dir: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("advisor: store open: %w", err)
	}
	good, err := jobs.ReplayFrames(f, func(payload []byte) bool {
		var r Record
		if json.Unmarshal(payload, &r) != nil || !r.valid() {
			return false // undecodable payload: treat as torn tail
		}
		r.Seq = s.nextSeq
		s.nextSeq++
		sort.Strings(r.Opts)
		s.recs = append(s.recs, &r)
		return true
	})
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("advisor: store replay: %w", err)
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("advisor: store truncate: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("advisor: store seek: %w", err)
	}
	s.f = f
	s.size = good
	if len(s.recs) > s.max {
		s.recs = s.recs[len(s.recs)-s.max:]
		if err := s.compact(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return s, nil
}

// Add appends one outcome record, assigning its Seq, persisting it (when
// the store is file-backed), and compacting when the in-memory window
// overflows max.
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
	if s.f != nil {
		payload, err := json.Marshal(&cp)
		if err != nil {
			return fmt.Errorf("advisor: store marshal: %w", err)
		}
		frame := jobs.EncodeFrame(payload)
		if _, err := s.f.Write(frame); err != nil {
			return fmt.Errorf("advisor: store append: %w", err)
		}
		if !s.nosync {
			if err := s.f.Sync(); err != nil {
				return fmt.Errorf("advisor: store sync: %w", err)
			}
		}
		s.size += int64(len(frame))
		s.appends++
	}
	if len(s.recs) > s.max {
		s.recs = s.recs[len(s.recs)-s.max:]
		if s.f != nil {
			return s.compact()
		}
	}
	return nil
}

// compact atomically rewrites the log to exactly the in-memory window.
func (s *Store) compact() error {
	tmp := s.path + ".compact"
	nf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("advisor: store compact: %w", err)
	}
	var size int64
	for _, r := range s.recs {
		payload, merr := json.Marshal(r)
		if merr != nil {
			nf.Close()
			os.Remove(tmp)
			return fmt.Errorf("advisor: store compact marshal: %w", merr)
		}
		frame := jobs.EncodeFrame(payload)
		if _, werr := nf.Write(frame); werr != nil {
			nf.Close()
			os.Remove(tmp)
			return fmt.Errorf("advisor: store compact write: %w", werr)
		}
		size += int64(len(frame))
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		os.Remove(tmp)
		return fmt.Errorf("advisor: store compact sync: %w", err)
	}
	if err := os.Rename(tmp, s.path); err != nil {
		nf.Close()
		os.Remove(tmp)
		return fmt.Errorf("advisor: store compact rename: %w", err)
	}
	if dir, derr := os.Open(filepath.Dir(s.path)); derr == nil {
		_ = dir.Sync()
		dir.Close()
	}
	old := s.f
	s.f = nf
	s.size = size
	s.appends = 0
	old.Close()
	return nil
}

// Records returns the live window. Callers must not mutate it; the Advisor
// copies the slice header under its lock before releasing it to retrieval.
func (s *Store) Records() []*Record { return s.recs }

// Len reports the number of live records.
func (s *Store) Len() int { return len(s.recs) }

// Size reports the log size in bytes (0 for memory-only stores).
func (s *Store) Size() int64 { return s.size }

// Close releases the log file. Memory-only stores are a no-op.
func (s *Store) Close() error {
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
