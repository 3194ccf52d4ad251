// Package wal is the one durable-store discipline shared by every log in
// the repository (the jobs queue, the advisor's outcomes, the trace spill
// and the farm's findings): an append-only file of self-delimiting frames,
//
//	| length uint32 LE | crc32(payload) uint32 LE | payload (JSON record) |
//
// Open replays the file up to the first frame that does not check out —
// short header, short payload, CRC mismatch, absurd length, or a record
// the caller rejects — which is exactly the shape a kill -9 mid-write
// leaves behind, and truncates the file there so appends extend a clean
// log. A record is durable once Append returns, unless the log was opened
// with nosync. Compact rewrites the log as a given live set into a temp
// file and renames it over the log, bounding growth to O(live records).
package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

const (
	// FrameHeader is the size of the length+CRC preamble of every frame.
	FrameHeader = 8
	// MaxFrame rejects absurd lengths during replay so a corrupt
	// header cannot trigger a giant allocation.
	MaxFrame = 64 << 20
)

// EncodeFrame wraps payload in a self-delimiting frame: length-prefixed,
// CRC-checked, ready to append to a record log.
func EncodeFrame(payload []byte) []byte {
	frame := make([]byte, FrameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[FrameHeader:], payload)
	return frame
}

// ReplayFrames decodes frames from r until EOF or the first bad frame,
// calling fn with each whole payload. It returns the byte offset of the end
// of the last good frame — the truncation point that leaves only whole
// records. A torn or corrupt tail is not an error (it is the expected
// residue of a crash); err is non-nil only for real I/O failures. fn may
// return false to treat the record as corrupt and stop (an undecodable
// payload is equivalent to a torn one).
func ReplayFrames(r io.Reader, fn func(payload []byte) bool) (good int64, err error) {
	var hdr [FrameHeader]byte
	for {
		if _, rerr := io.ReadFull(r, hdr[:]); rerr != nil {
			if errors.Is(rerr, io.EOF) || errors.Is(rerr, io.ErrUnexpectedEOF) {
				return good, nil // clean end or torn header
			}
			return good, fmt.Errorf("wal: read: %w", rerr)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > MaxFrame {
			return good, nil // corrupt length: treat as tail
		}
		payload := make([]byte, length)
		if _, rerr := io.ReadFull(r, payload); rerr != nil {
			if errors.Is(rerr, io.EOF) || errors.Is(rerr, io.ErrUnexpectedEOF) {
				return good, nil // torn payload
			}
			return good, fmt.Errorf("wal: read: %w", rerr)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return good, nil // bit rot or torn write: stop here
		}
		if !fn(payload) {
			return good, nil // CRC passed but shape didn't: stop
		}
		good += int64(FrameHeader) + int64(length)
	}
}

// Replay decodes JSON records of type T from r, passing each to keep (nil
// keeps all); an undecodable record or a false return ends the replay as a
// torn tail would. It returns ReplayFrames' truncation offset.
func Replay[T any](r io.Reader, keep func(*T) bool) (good int64, err error) {
	return ReplayFrames(r, func(payload []byte) bool {
		rec := new(T)
		return json.Unmarshal(payload, rec) == nil && (keep == nil || keep(rec))
	})
}

// Log is an append-only file of CRC-framed JSON records of type T. A nil
// *Log is the memory-only log: every method is a no-op. Methods are not
// safe for concurrent use; each store serializes access under its own lock.
type Log[T any] struct {
	f       *os.File
	path    string
	size    int64
	appends int // records appended since open or the last compaction
	nosync  bool
}

// Open opens (creating directory and file if absent) the log at path,
// replays it through keep, and truncates any bad tail. nosync skips the
// per-append fsync: benchmarks and best-effort logs only.
func Open[T any](path string, nosync bool, keep func(*T) bool) (*Log[T], error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("wal: dir: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	good, err := Replay(f, keep)
	if err == nil {
		err = f.Truncate(good)
	}
	if err == nil {
		_, err = f.Seek(good, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	return &Log[T]{f: f, path: path, size: good, nosync: nosync}, nil
}

// Append writes one record in a single Write and, unless nosync, fsyncs.
func (l *Log[T]) Append(rec *T) error {
	if l == nil {
		return nil
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("wal: marshal: %w", err)
	}
	frame := EncodeFrame(payload)
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if !l.nosync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
	}
	l.size += int64(len(frame))
	l.appends++
	return nil
}

// Compact atomically replaces the log with exactly live, in order: write a
// temp file, fsync it, rename it over the log, fsync the directory. On a
// failure before the rename the log is unchanged and Appends keeps
// counting, so a caller's growth threshold retries. A directory fsync
// error is returned after the swap.
func (l *Log[T]) Compact(live []*T) error {
	if l == nil {
		return nil
	}
	tmp := l.path + ".compact"
	nf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	nl := &Log[T]{f: nf, path: tmp, nosync: true}
	for _, rec := range live {
		if err = nl.Append(rec); err != nil {
			break
		}
	}
	if err == nil {
		err = nf.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, l.path)
	}
	if err != nil {
		nf.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: compact: %w", err)
	}
	old := l.f
	l.f, l.size, l.appends = nf, nl.size, 0
	old.Close()
	// Make the rename durable before trusting the new inode.
	dir, err := os.Open(filepath.Dir(l.path))
	if err == nil {
		err = dir.Sync()
		dir.Close()
	}
	if err != nil {
		return fmt.Errorf("wal: compact dir sync: %w", err)
	}
	return nil
}

// Size reports the log size in bytes (0 for the memory-only log).
func (l *Log[T]) Size() int64 {
	if l == nil {
		return 0
	}
	return l.size
}

// Appends reports records appended since open or the last compaction.
func (l *Log[T]) Appends() int {
	if l == nil {
		return 0
	}
	return l.appends
}

// Close releases the log file.
func (l *Log[T]) Close() error {
	if l == nil || l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
