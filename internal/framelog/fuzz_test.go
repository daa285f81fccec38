package framelog

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzFramelog opens arbitrary file contents as a log, the decoder both
// the result store and the job journal run on every boot. Invariants:
// Open never fails or panics on a readable file; every frame handed to
// visit reads back through ReadAt; the file Open leaves behind reopens
// to the same frames and is not torn; and a frame appended to it
// survives the next reopen. The seed corpus in testdata/fuzz/FuzzFramelog
// replays in every plain `go test`.
func FuzzFramelog(f *testing.F) {
	f.Fuzz(func(t *testing.T, data, extra []byte) {
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, frames, _ := openLog(t, path)
		for _, fr := range frames {
			got, err := l.ReadAt(fr.off, len(fr.payload))
			if err != nil || string(got) != fr.payload {
				t.Fatalf("ReadAt(%d) = %q, %v; visit saw %q", fr.off, got, err, fr.payload)
			}
		}
		if len(extra) > 0 && len(extra) <= MaxPayload && extra[0] != '!' {
			off, err := l.Append(extra)
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, frame{off, string(extra)})
		}
		size := l.Size()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		l, again, torn := openLog(t, path)
		defer l.Close()
		if torn || l.Size() != size {
			t.Fatalf("reopen: torn=%v size=%d, want a clean %d-byte log", torn, l.Size(), size)
		}
		if len(again) != len(frames) {
			t.Fatalf("reopen found %d frames, want %d", len(again), len(frames))
		}
		for i := range frames {
			if again[i] != frames[i] {
				t.Fatalf("reopen frame %d = %+v, want %+v", i, again[i], frames[i])
			}
		}
	})
}
