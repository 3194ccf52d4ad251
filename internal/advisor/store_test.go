package advisor

import (
	"os"
	"path/filepath"
	"testing"
)

func testRecord(seq int, order []string, applied int) *Record {
	vec := make([]float32, Dims())
	vec[0] = 1
	return &Record{
		Schema:  SchemaVersion,
		Vec:     vec,
		Opts:    append([]string(nil), order...),
		Order:   order,
		Applied: applied,
		WallUS:  int64(100 + seq),
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "outcomes.log")
	s, err := OpenStore(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Add(testRecord(i, []string{"DCE", "CPP"}, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 5 {
		t.Fatalf("replayed %d records, want 5", s2.Len())
	}
	for i, r := range s2.Records() {
		if r.Applied != i {
			t.Fatalf("record %d: applied=%d, want %d", i, r.Applied, i)
		}
		if r.Seq != int64(i) {
			t.Fatalf("record %d: seq=%d, want %d", i, r.Seq, i)
		}
		// Opts must come back sorted regardless of write order.
		if r.Opts[0] != "CPP" || r.Opts[1] != "DCE" {
			t.Fatalf("record %d: opts not sorted: %v", i, r.Opts)
		}
	}
}

// TestStoreTortureTruncation truncates the log at every byte offset inside
// the tail record and asserts the store reopens with only whole records —
// the same crash-shape guarantee the jobs WAL is torture-tested for.
func TestStoreTortureTruncation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "outcomes.log")
	s, err := OpenStore(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Add(testRecord(i, []string{"DCE"}, i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Find the byte offset where the last record begins by replaying the
	// first two records' worth of a fresh store.
	probe, err := OpenStore(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	probe.Close()
	// The three records are identically sized (same order, same vec; only
	// small integers differ), so the tail starts at 2/3 of the file.
	tailStart := int64(len(full)) / 3 * 2

	for cut := tailStart; cut <= int64(len(full)); cut++ {
		p := filepath.Join(dir, "torn.log")
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		ts, err := OpenStore(p, 0)
		if err != nil {
			t.Fatalf("cut %d: reopen failed: %v", cut, err)
		}
		wantRecs := 2
		if cut == int64(len(full)) {
			wantRecs = 3
		}
		if ts.Len() != wantRecs {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, ts.Len(), wantRecs)
		}
		for i, r := range ts.Records() {
			if r.Applied != i {
				t.Fatalf("cut %d: record %d applied=%d, want %d", cut, i, r.Applied, i)
			}
		}
		// The torn tail must have been truncated: appending now must
		// survive another reopen.
		if err := ts.Add(testRecord(99, []string{"DCE"}, 99)); err != nil {
			t.Fatalf("cut %d: append after truncation: %v", cut, err)
		}
		ts.Close()
		rs, err := OpenStore(p, 0)
		if err != nil {
			t.Fatalf("cut %d: reopen after append: %v", cut, err)
		}
		if rs.Len() != wantRecs+1 {
			t.Fatalf("cut %d: after append replayed %d, want %d", cut, rs.Len(), wantRecs+1)
		}
		last := rs.Records()[rs.Len()-1]
		if last.Applied != 99 {
			t.Fatalf("cut %d: appended record lost, tail applied=%d", cut, last.Applied)
		}
		rs.Close()
	}
}

// TestStoreCorruptTail flips a payload bit in the final record: CRC must
// reject it and replay must stop at the previous record.
func TestStoreCorruptTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "outcomes.log")
	s, err := OpenStore(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Add(testRecord(i, []string{"ICM"}, i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tailStart := int64(len(full)) / 3 * 2
	full[tailStart+10] ^= 0xFF // inside the tail record's payload
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("replayed %d records past a corrupt tail, want 2", s2.Len())
	}
}

// TestStoreCompaction verifies the window bound survives both live appends
// and replay of an over-long historical log.
func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "outcomes.log")
	s, err := OpenStore(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Add(testRecord(i, []string{"DCE"}, i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 4 {
		t.Fatalf("live window %d, want 4", s.Len())
	}
	if got := s.Records()[0].Applied; got != 6 {
		t.Fatalf("oldest surviving applied=%d, want 6", got)
	}
	s.Close()

	// Reopen with a smaller window: replay must keep only the newest.
	s2, err := OpenStore(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("reopened window %d, want 2", s2.Len())
	}
	if got := s2.Records()[1].Applied; got != 9 {
		t.Fatalf("newest applied=%d, want 9", got)
	}
}

func TestStoreMemoryOnly(t *testing.T) {
	s, err := OpenStore("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(testRecord(0, []string{"DCE"}, 1)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || s.Size() != 0 {
		t.Fatalf("memory store len=%d size=%d", s.Len(), s.Size())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
