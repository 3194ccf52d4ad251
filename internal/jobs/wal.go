package jobs

import (
	"io"

	"repro/internal/wal"
)

// The job log is a wal.Log of Job records. Every record is a full upsert
// of one job's state, so replay is latest-record-wins per job ID and needs
// no cross-record reasoning; compaction rewrites it as one record per live
// job, bounding file growth to O(live jobs) instead of O(transitions).

// WAL is the append-only job log.
type WAL = wal.Log[Job]

// OpenWAL opens (creating if absent) the log at path, replays it, and
// truncates any bad tail. It returns the replayed records in append order
// (latest record per job last). nosync skips the per-append fsync —
// benchmarks only; durability requires the default.
func OpenWAL(path string, nosync bool) (w *WAL, records []*Job, err error) {
	w, err = wal.Open(path, nosync, func(j *Job) bool { records = append(records, j); return true })
	return w, records, err
}

// Replay decodes job records from r until EOF or the first bad frame,
// returning them in order and the byte offset of the end of the last good
// frame. A bad tail is not an error, so err is non-nil only for I/O faults.
func Replay(r io.Reader) (records []*Job, good int64, err error) {
	good, err = wal.Replay(r, func(j *Job) bool { records = append(records, j); return true })
	return records, good, err
}
