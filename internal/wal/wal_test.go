package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

type rec struct {
	N int    `json:"n"`
	S string `json:"s"`
}

// replayAll opens the log at path and returns it with every replayed record.
func replayAll(t *testing.T, path string) (*Log[rec], []rec) {
	t.Helper()
	var got []rec
	l, err := Open(path, true, func(r *rec) bool { got = append(got, *r); return true })
	if err != nil {
		t.Fatal(err)
	}
	return l, got
}

// writeLog appends recs to a fresh log at path and returns the end offset of
// each record.
func writeLog(t *testing.T, path string, recs []rec) []int64 {
	t.Helper()
	l, err := Open[rec](path, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	for i := range recs {
		if err := l.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, l.Size())
	}
	if l.Appends() != len(recs) {
		t.Fatalf("appends = %d, want %d", l.Appends(), len(recs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return ends
}

func testRecs(n int) []rec {
	recs := make([]rec, n)
	for i := range recs {
		recs[i] = rec{N: i, S: fmt.Sprintf("record-%d", i*i)}
	}
	return recs
}

// TestTruncationEveryOffset is the crash-torture property: a log cut at any
// byte offset reopens to exactly the whole records before the cut, is
// truncated there, and accepts an append that replays afterwards.
func TestTruncationEveryOffset(t *testing.T) {
	dir := t.TempDir()
	recs := testRecs(6)
	ends := writeLog(t, filepath.Join(dir, "full.log"), recs)
	full, err := os.ReadFile(filepath.Join(dir, "full.log"))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != ends[len(ends)-1] {
		t.Fatalf("file is %d bytes, Size said %d", len(full), ends[len(ends)-1])
	}
	path := filepath.Join(dir, "cut.log")
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		whole, good := 0, int64(0)
		for whole < len(ends) && ends[whole] <= int64(cut) {
			good = ends[whole]
			whole++
		}
		l, got := replayAll(t, path)
		if fmt.Sprint(got) != fmt.Sprint(recs[:whole]) {
			t.Fatalf("cut=%d: replayed %v, want the first %d records", cut, got, whole)
		}
		if l.Size() != good {
			t.Fatalf("cut=%d: size %d, want %d", cut, l.Size(), good)
		}
		fresh := rec{N: -1, S: "after the crash"}
		if err := l.Append(&fresh); err != nil {
			t.Fatalf("cut=%d: append: %v", cut, err)
		}
		l.Close()
		l, got = replayAll(t, path)
		l.Close()
		if len(got) != whole+1 || got[whole] != fresh {
			t.Fatalf("cut=%d: after append replayed %v", cut, got)
		}
	}
}

// TestKeepRejectionIsTornTail: a record the caller rejects ends the replay
// and is truncated away like a torn frame.
func TestKeepRejectionIsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.log")
	recs := testRecs(5)
	ends := writeLog(t, path, recs)
	var got []rec
	l, err := Open(path, true, func(r *rec) bool {
		got = append(got, *r)
		return r.N != 2
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(got) != 3 || l.Size() != ends[1] {
		t.Fatalf("replayed %d records to size %d, want a stop at record 2 (size %d)", len(got), l.Size(), ends[1])
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != ends[1] {
		t.Fatalf("file not truncated to %d: %v %v", ends[1], fi, err)
	}
}

// TestStaleCompactFile simulates a crash between the compaction's write and
// its rename: a fully written path.compact is left beside the log. Open
// must replay only the log, and the next Compact must replace both.
func TestStaleCompactFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.log")
	recs := testRecs(4)
	writeLog(t, path, recs)
	writeLog(t, path+".compact", testRecs(9)[5:])

	l, got := replayAll(t, path)
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("replayed %v, want the log's own %v", got, recs)
	}
	if err := l.Append(&recs[0]); err != nil || l.Appends() != 1 {
		t.Fatalf("append before compact: %v, appends %d", err, l.Appends())
	}
	live := []*rec{&recs[3], &recs[1]}
	if err := l.Compact(live); err != nil {
		t.Fatal(err)
	}
	if l.Appends() != 0 {
		t.Fatalf("appends after compact = %d", l.Appends())
	}
	extra := rec{N: 7, S: "post-compact"}
	if err := l.Append(&extra); err != nil {
		t.Fatal(err)
	}
	size := l.Size()
	l.Close()
	if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
		t.Fatalf("temp file survived the compaction: %v", err)
	}
	l, got = replayAll(t, path)
	defer l.Close()
	if want := []rec{recs[3], recs[1], extra}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after compact replayed %v, want %v", got, want)
	}
	if l.Size() != size {
		t.Fatalf("reopened size %d, tracked size %d", l.Size(), size)
	}
}

// TestGoldenFrame pins the on-disk format: logs written by earlier versions
// must keep opening.
func TestGoldenFrame(t *testing.T) {
	golden := append([]byte{
		0x0f, 0x00, 0x00, 0x00, // payload length, LE
		0xe4, 0xfd, 0x51, 0x07, // crc32 IEEE of the payload, LE
	}, `{"n":1,"s":"a"}`...)
	if got := EncodeFrame([]byte(`{"n":1,"s":"a"}`)); !bytes.Equal(got, golden) {
		t.Fatalf("EncodeFrame = %x, want %x", got, golden)
	}
	path := filepath.Join(t.TempDir(), "g.log")
	writeLog(t, path, []rec{{N: 1, S: "a"}})
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, golden) {
		t.Fatalf("Append wrote %x (err %v), want %x", got, err, golden)
	}
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	l, got := replayAll(t, path)
	l.Close()
	if len(got) != 1 || got[0] != (rec{N: 1, S: "a"}) {
		t.Fatalf("golden frame replayed %v", got)
	}
}

// TestNilLogIsMemoryOnly: every method of a nil *Log is a no-op.
func TestNilLogIsMemoryOnly(t *testing.T) {
	var l *Log[rec]
	if err := l.Append(&rec{N: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact([]*rec{{N: 1}}); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 || l.Appends() != 0 {
		t.Fatalf("nil log size %d appends %d", l.Size(), l.Appends())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
