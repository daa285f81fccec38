package job

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, m *Manager, id string) Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		snap, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if snap.State.Terminal() {
			return snap
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return Snapshot{}
}

// waitState polls until the job reaches the given state.
func waitState(t *testing.T, m *Manager, id string, want State) Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		snap, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if snap.State == want {
			return snap
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, want)
	return Snapshot{}
}

func TestJobLifecycleSucceeds(t *testing.T) {
	m, err := Open("", Options{Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Start(func(ctx context.Context, j *Job) ([]byte, error) {
		j.SetTotal(3)
		j.AddDone(1)
		j.AddDone(2)
		return []byte(`{"ok":true}` + "\n"), nil
	})
	spec := []byte(`{"models":["LeNet5"]}`)
	snap, created, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("first submission should create the job")
	}
	if snap.ID != DeriveID(spec) {
		t.Fatalf("snapshot ID %q != derived %q", snap.ID, DeriveID(spec))
	}
	final := waitTerminal(t, m, snap.ID)
	if final.State != StateSucceeded {
		t.Fatalf("state = %s, want succeeded (err %q)", final.State, final.Error)
	}
	if final.CellsTotal != 3 || final.CellsDone != 3 {
		t.Fatalf("progress = %d/%d, want 3/3", final.CellsDone, final.CellsTotal)
	}
	if final.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", final.Attempts)
	}
	body, _, ok := m.Result(snap.ID)
	if !ok || string(body) != `{"ok":true}`+"\n" {
		t.Fatalf("result body = %q", body)
	}
	st := m.Stats()
	if st.Completed != 1 || st.Jobs != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSubmitIdempotent(t *testing.T) {
	m, err := Open("", Options{Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Start(func(ctx context.Context, j *Job) ([]byte, error) {
		return []byte("{}"), nil
	})
	spec := []byte(`{"models":["LeNet5"]}`)
	first, created, err := m.Submit(spec)
	if err != nil || !created {
		t.Fatalf("first submit: created=%v err=%v", created, err)
	}
	again, created, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if created {
		t.Fatal("identical spec must land on the existing job")
	}
	if again.ID != first.ID {
		t.Fatalf("IDs differ: %s vs %s", again.ID, first.ID)
	}
	other, created, err := m.Submit([]byte(`{"models":["VGG16"]}`))
	if err != nil || !created {
		t.Fatalf("distinct spec: created=%v err=%v", created, err)
	}
	if other.ID == first.ID {
		t.Fatal("distinct specs must derive distinct IDs")
	}
}

func TestQueueSheddingOverflow(t *testing.T) {
	m, err := Open("", Options{Runners: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	started := make(chan struct{})
	m.Start(func(ctx context.Context, j *Job) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	submit := func(i int) error {
		_, _, err := m.Submit([]byte(fmt.Sprintf(`{"n":%d}`, i)))
		return err
	}
	if err := submit(0); err != nil {
		t.Fatal(err)
	}
	<-started // the runner holds job 0; the queue is empty again
	// Queue capacity is Runners+QueueDepth = 2 slots.
	if err := submit(1); err != nil {
		t.Fatal(err)
	}
	if err := submit(2); err != nil {
		t.Fatal(err)
	}
	if err := submit(3); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err = %v, want ErrQueueFull", err)
	}
	if st := m.Stats(); st.Jobs != 3 {
		t.Fatalf("shed job must not enter the table: jobs = %d", st.Jobs)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	m, err := Open("", Options{Runners: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	started := make(chan struct{})
	m.Start(func(ctx context.Context, j *Job) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	running, _, err := m.Submit([]byte(`{"n":"running"}`))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, _, err := m.Submit([]byte(`{"n":"queued"}`))
	if err != nil {
		t.Fatal(err)
	}

	snap, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateCancelled {
		t.Fatalf("queued job after cancel: state = %s, want cancelled", snap.State)
	}
	if _, err := m.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, running.ID)
	if final.State != StateCancelled {
		t.Fatalf("running job after cancel: state = %s, want cancelled", final.State)
	}
	if _, err := m.Cancel("jdeadbeefdeadbeef"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown cancel: err = %v, want ErrUnknownJob", err)
	}
	if st := m.Stats(); st.Cancelled != 2 {
		t.Fatalf("cancelled counter = %d, want 2", st.Cancelled)
	}
}

func TestRunnerPanicReclaimsJobAsFailed(t *testing.T) {
	m, err := Open("", Options{Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Start(func(ctx context.Context, j *Job) ([]byte, error) {
		panic("executor exploded")
	})
	snap, _, err := m.Submit([]byte(`{"n":"boom"}`))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, snap.ID)
	if final.State != StateFailed {
		t.Fatalf("state = %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, ErrRunnerPanic.Error()) || !strings.Contains(final.Error, "executor exploded") {
		t.Fatalf("error %q should carry the panic vocabulary and value", final.Error)
	}
	// The pool survives: the next job runs on the same runner.
	next, _, err := m.Submit([]byte(`{"n":"after"}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, m, next.ID); got.State != StateFailed {
		t.Fatalf("post-panic job state = %s, want failed", got.State)
	}
}

func TestJournalReplayResumesInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	m1, err := Open(dir, Options{Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	progressed := make(chan struct{})
	m1.Start(func(ctx context.Context, j *Job) ([]byte, error) {
		j.SetTotal(4)
		j.AddDone(2)
		j.SetTrace("0123456789abcdef0123456789abcdef", "0123456789abcdef")
		close(progressed)
		<-ctx.Done() // simulate a long run interrupted by shutdown
		return nil, ctx.Err()
	})
	spec := []byte(`{"models":["LeNet5"],"phases":["inference"]}`)
	snap, _, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-progressed
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	// Reboot over the same directory: the journal has submit+run+progress
	// but no terminal record, so the job must come back and requeue.
	m2, err := Open(dir, Options{Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	pre, ok := m2.Get(snap.ID)
	if !ok {
		t.Fatal("interrupted job not replayed")
	}
	if pre.CellsTotal != 4 || pre.CellsDone != 2 {
		t.Fatalf("replayed progress = %d/%d, want 2/4", pre.CellsDone, pre.CellsTotal)
	}
	if pre.TraceID != "0123456789abcdef0123456789abcdef" {
		t.Fatalf("replayed trace ID = %q", pre.TraceID)
	}
	var gotSpec string
	m2.Start(func(ctx context.Context, j *Job) ([]byte, error) {
		gotSpec = string(j.Spec())
		j.SetTotal(4)
		j.AddDone(4)
		return []byte(`{"resumed":true}` + "\n"), nil
	})
	final := waitTerminal(t, m2, snap.ID)
	if final.State != StateSucceeded {
		t.Fatalf("resumed state = %s (err %q)", final.State, final.Error)
	}
	if final.Resumed != 1 {
		t.Fatalf("resumed counter = %d, want 1", final.Resumed)
	}
	if final.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one interrupted, one resumed)", final.Attempts)
	}
	if gotSpec != string(spec) {
		t.Fatalf("resumed exec saw spec %q, want %q", gotSpec, spec)
	}
	if st := m2.Stats(); st.Resumed != 1 {
		t.Fatalf("stats resumed = %d, want 1", st.Resumed)
	}

	// Third boot: the terminal record replays, nothing requeues, and the
	// result body is servable without any executor at all.
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	m3, err := Open(dir, Options{Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	body, got, ok := m3.Result(snap.ID)
	if !ok || got.State != StateSucceeded {
		t.Fatalf("terminal replay: ok=%v state=%s", ok, got.State)
	}
	if string(body) != `{"resumed":true}`+"\n" {
		t.Fatalf("replayed body = %q", body)
	}
}

// TestJournalTornTailTruncated is the manager's wiring of a torn journal
// tail (internal/framelog checks every cut point and corruption): the
// drop reaches Stats and the surviving prefix replays.
func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	m1, err := Open(dir, Options{Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	m1.Start(func(ctx context.Context, j *Job) ([]byte, error) {
		return []byte(`{"ok":1}`), nil
	})
	snap, _, err := m1.Submit([]byte(`{"models":["LeNet5"]}`))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m1, snap.ID)
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "journal.log")
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("garbage-tail", func(t *testing.T) {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("\xde\xad\xbe\xef torn mid-append")); err != nil {
			t.Fatal(err)
		}
		f.Close()
		m, err := Open(dir, Options{Runners: 1})
		if err != nil {
			t.Fatalf("open over torn journal: %v", err)
		}
		defer m.Close()
		if st := m.Stats(); st.TornRecords != 1 {
			t.Fatalf("torn records = %d, want 1", st.TornRecords)
		}
		body, got, ok := m.Result(snap.ID)
		if !ok || got.State != StateSucceeded || string(body) != `{"ok":1}` {
			t.Fatalf("surviving prefix lost: ok=%v state=%s body=%q", ok, got.State, body)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != int64(len(pristine)) {
			t.Fatalf("journal not truncated back: %d bytes, want %d", fi.Size(), len(pristine))
		}
	})
}

// TestJournalAppendFailureCounted pins that a journal append that fails
// is counted, not dropped silently: a result body over the 16 MiB frame
// bound still succeeds in memory, but its done record is not durable.
func TestJournalAppendFailureCounted(t *testing.T) {
	m, err := Open(t.TempDir(), Options{Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	big := bytes.Repeat([]byte("x"), 16<<20+1)
	m.Start(func(ctx context.Context, j *Job) ([]byte, error) { return big, nil })
	snap, _, err := m.Submit([]byte(`{"n":"big"}`))
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, m, snap.ID); final.State != StateSucceeded {
		t.Fatalf("state = %s, want succeeded", final.State)
	}
	if body, _, _ := m.Result(snap.ID); len(body) != len(big) {
		t.Fatalf("in-memory body is %d bytes, want %d", len(body), len(big))
	}
	if st := m.Stats(); st.IOErrors != 1 {
		t.Fatalf("io errors = %d, want 1", st.IOErrors)
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	m, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	m.Start(func(ctx context.Context, j *Job) ([]byte, error) { return nil, nil })
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Submit([]byte(`{}`)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: err = %v, want ErrClosed", err)
	}
}
