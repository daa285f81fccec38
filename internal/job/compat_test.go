package job

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// writeCompatJournal runs a fixed job sequence on a fixed clock into
// dir: one job that succeeds (progress, trace and cost records), one
// that fails, and one interrupted by Close, so every op except resume
// lands in the journal. testdata/compat/journal.log was written by this
// function before the journal framing moved into internal/framelog; it
// must not be regenerated.
func writeCompatJournal(t *testing.T, dir string) {
	t.Helper()
	m, err := Open(dir, Options{Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.now = func() time.Time { return time.Unix(1_700_000_000, 0) }
	interrupted := make(chan struct{})
	m.Start(func(ctx context.Context, j *Job) ([]byte, error) {
		j.SetTotal(2)
		switch string(j.Spec()) {
		case `{"n":"fail"}`:
			return nil, errors.New("cell <1> & cell <2> failed")
		case `{"n":"hang"}`:
			close(interrupted)
			<-ctx.Done()
			return nil, ctx.Err()
		}
		j.AddDone(1)
		j.SetTrace("0123456789abcdef0123456789abcdef", "0123456789abcdef")
		j.AddDone(1)
		j.SetCost([]byte(`{"cells":2,"wall_s":0.5}`))
		return []byte(`{"ok":"<body>"}` + "\n"), nil
	})
	for _, spec := range []string{`{"n":"ok"}`, `{"n":"fail"}`} {
		snap, _, err := m.Submit([]byte(spec))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, m, snap.ID)
	}
	if _, _, err := m.Submit([]byte(`{"n":"hang"}`)); err != nil {
		t.Fatal(err)
	}
	<-interrupted
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalOnDiskCompatibility pins the journal bytes: a journal
// written by the pre-framelog manager replays to the same jobs and
// result bodies, and the same sequence run today writes a
// byte-identical file.
func TestJournalOnDiskCompatibility(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "compat", "journal.log"))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal.log"), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Open(dir, Options{Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if st := m.Stats(); st.Jobs != 3 || st.TornRecords != 0 {
		t.Fatalf("stats over the committed journal = %+v, want 3 jobs and no torn records", st)
	}
	body, snap, ok := m.Result(DeriveID([]byte(`{"n":"ok"}`)))
	if !ok || snap.State != StateSucceeded || string(body) != `{"ok":"<body>"}`+"\n" ||
		snap.CellsDone != 2 || snap.TraceID != "0123456789abcdef0123456789abcdef" || snap.Created != 1_700_000_000e9 {
		t.Fatalf("succeeded job replayed as %+v, body %q", snap, body)
	}
	if cost, ok := m.Cost(snap.ID); !ok || string(cost) != `{"cells":2,"wall_s":0.5}` {
		t.Fatalf("replayed cost = %q, %v", cost, ok)
	}
	if snap, ok := m.Get(DeriveID([]byte(`{"n":"fail"}`))); !ok || snap.State != StateFailed || snap.Error != "cell <1> & cell <2> failed" {
		t.Fatalf("failed job replayed as %+v", snap)
	}
	if snap, ok := m.Get(DeriveID([]byte(`{"n":"hang"}`))); !ok || snap.State != StateRunning || snap.Attempts != 1 || snap.CellsTotal != 2 {
		t.Fatalf("interrupted job replayed as %+v", snap)
	}

	fresh := t.TempDir()
	writeCompatJournal(t, fresh)
	written, err := os.ReadFile(filepath.Join(fresh, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, golden) {
		t.Fatalf("journal bytes drifted from the committed format:\n got %q\nwant %q", written, golden)
	}
}
