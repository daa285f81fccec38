package framelog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

const testMagic = "TESTLOG1"

type frame struct {
	off     int64
	payload string
}

// openLog opens path with a visit that collects every frame and rejects
// payloads starting with '!'.
func openLog(t testing.TB, path string) (*Log, []frame, bool) {
	t.Helper()
	var got []frame
	l, torn, err := Open(path, testMagic, func(off int64, payload []byte) bool {
		if payload[0] == '!' {
			return false
		}
		got = append(got, frame{off, string(payload)})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, got, torn
}

// threeRecords writes a fresh log of three frames and returns its bytes
// and the frames.
func threeRecords(t *testing.T) ([]byte, []frame) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := openLog(t, path)
	var want []frame
	for _, p := range []string{"alpha", "{\"b\":2}", "gamma-record-three"} {
		off, err := l.Append([]byte(p))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, frame{off, p})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, want
}

// checkOpen writes data, opens it, and checks the frames, the torn flag
// and the file length Open left behind.
func checkOpen(t *testing.T, data []byte, want []frame, wantTorn bool, wantSize int64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, got, torn := openLog(t, path)
	defer l.Close()
	if len(got) != len(want) {
		t.Fatalf("frames = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d = %v, want %v", i, got[i], want[i])
		}
	}
	if torn != wantTorn {
		t.Fatalf("torn = %v, want %v", torn, wantTorn)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != wantSize || l.Size() != wantSize {
		t.Fatalf("file %d bytes, Size %d, want %d", fi.Size(), l.Size(), wantSize)
	}
}

// TestOpenEveryCut cuts a three-record log at every byte offset, as a
// crash mid-append can: Open keeps exactly the whole frames before the
// cut, truncates the file to the end of the last one, and reports torn
// whenever it dropped bytes. A cut inside the magic resets the file to
// the magic alone; an empty file is new, not torn.
func TestOpenEveryCut(t *testing.T) {
	data, frames := threeRecords(t)
	for cut := 0; cut <= len(data); cut++ {
		var want []frame
		end := int64(len(testMagic))
		for _, f := range frames {
			if next := f.off + FrameSize(len(f.payload)); next <= int64(cut) {
				want, end = append(want, f), next
			}
		}
		checkOpen(t, data[:cut], want, cut > 0 && int64(cut) != end, end)
	}
}

func TestOpenCorruption(t *testing.T) {
	data, frames := threeRecords(t)
	second := frames[1].off
	patch := func(at int64, b ...byte) []byte {
		out := bytes.Clone(data)
		copy(out[at:], b)
		return out
	}
	length := func(n uint32) []byte { return binary.LittleEndian.AppendUint32(nil, n) }
	magicOnly := int64(len(testMagic))
	// A well-framed second payload that visit rejects.
	rejected := patch(second+headerLen, '!')
	binary.LittleEndian.PutUint32(rejected[second+4:], crc32.ChecksumIEEE(rejected[second+headerLen:frames[2].off]))
	cases := []struct {
		name     string
		data     []byte
		want     []frame
		wantTorn bool
		wantSize int64
	}{
		{"intact", data, frames, false, int64(len(data))},
		{"bad-magic", patch(0, 'X'), nil, true, magicOnly},
		{"short-magic", data[:3], nil, true, magicOnly},
		{"zero-length", patch(second, length(0)...), frames[:1], true, second},
		{"oversize-length", patch(second, length(MaxPayload+1)...), frames[:1], true, second},
		{"crc-flip", patch(second+headerLen, data[second+headerLen]^0x01), frames[:1], true, second},
		{"visit-rejects", rejected, frames[:1], true, second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkOpen(t, tc.data, tc.want, tc.wantTorn, tc.wantSize)
		})
	}
}

func TestAppendAndReadAt(t *testing.T) {
	data, frames := threeRecords(t)
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, _, _ := openLog(t, path)
	defer l.Close()
	for _, f := range frames {
		got, err := l.ReadAt(f.off, len(f.payload))
		if err != nil || string(got) != f.payload {
			t.Fatalf("ReadAt(%d) = %q, %v; want %q", f.off, got, err, f.payload)
		}
	}
	if _, err := l.ReadAt(frames[1].off, len(frames[1].payload)+1); !errors.Is(err, errCorrupt) {
		t.Fatalf("ReadAt with the wrong length: err = %v, want errCorrupt", err)
	}
	if _, err := l.ReadAt(frames[1].off+1, len(frames[1].payload)); !errors.Is(err, errCorrupt) {
		t.Fatalf("ReadAt off a frame boundary: err = %v, want errCorrupt", err)
	}
	for _, n := range []int{0, MaxPayload + 1} {
		if _, err := l.Append(make([]byte, n)); !errors.Is(err, errPayloadSize) {
			t.Fatalf("Append of %d bytes: err = %v, want errPayloadSize", n, err)
		}
	}
	if l.Size() != int64(len(data)) {
		t.Fatalf("rejected appends grew the log to %d bytes", l.Size())
	}
}
