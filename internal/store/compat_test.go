package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// compatPuts is the put sequence behind testdata/compat/seg-000000.log:
// an overwrite (newest wins) and keys that JSON-escape (`<`, `>`, `&`).
var compatPuts = []struct{ key, net string }{
	{"INCA/fixed/vgg16/inference", "vgg16"},
	{"INCA/fixed/<lenet>&/training", "lenet&<5>"},
	{"k", "first"},
	{"k", "second"},
}

// writeCompatStore runs compatPuts into dir on a fixed one-second-step
// clock. testdata/compat/seg-000000.log was written by this function
// before the segment framing moved into internal/framelog; it must not
// be regenerated.
func writeCompatStore(t *testing.T, dir string) {
	t.Helper()
	clock := time.Unix(1_700_000_000, 0)
	s := mustOpen(t, dir, Options{now: func() time.Time { return clock }})
	for _, p := range compatPuts {
		clock = clock.Add(time.Second)
		s.Put(p.key, testReport(p.net))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOnDiskCompatibility pins the segment bytes: a segment written by
// the pre-framelog store opens with the same entries and reports, and
// writing the same puts today produces a byte-identical file.
func TestOnDiskCompatibility(t *testing.T) {
	const seg = "seg-000000.log"
	golden, err := os.ReadFile(filepath.Join("testdata", "compat", seg))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, seg), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, Options{})
	if st := s.Stats(); st.Entries != 3 || st.TornRecords != 0 {
		t.Fatalf("stats over the committed segment = %+v, want 3 entries and no torn records", st)
	}
	last := map[string]string{}
	for _, p := range compatPuts {
		last[p.key] = p.net
	}
	for key, net := range last {
		got, ok := s.Get(key)
		if !ok {
			t.Fatalf("%q missing from the committed segment", key)
		}
		want, _ := json.Marshal(testReport(net))
		gotJSON, _ := json.Marshal(got)
		if !bytes.Equal(gotJSON, want) {
			t.Fatalf("%q = %s, want %s", key, gotJSON, want)
		}
	}

	fresh := t.TempDir()
	writeCompatStore(t, fresh)
	written, err := os.ReadFile(filepath.Join(fresh, seg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, golden) {
		t.Fatalf("segment bytes drifted from the committed format:\n got %q\nwant %q", written, golden)
	}
}
