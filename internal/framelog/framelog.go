// Package framelog is the append-only, checksummed log format under the
// result store's segments (internal/store) and the job journal
// (internal/job). A log file starts with an 8-byte magic naming its
// user and carries one frame per record:
//
//	[4B little-endian payload length][4B IEEE CRC-32 of payload][payload]
//
// The log is only ever appended to, so a crash can tear at most the
// final frame. Open keeps the cleanly framed prefix and truncates
// whatever follows it, so the surviving records keep serving and the
// next Append continues from the cut. This package is the only code
// that knows the frame layout.
package framelog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
)

const headerLen = 8

// MaxPayload bounds one frame's payload. The largest legitimate record
// (a job result body for a huge sweep) is far smaller, and the bound
// rejects a corrupt length prefix before it allocates gigabytes.
const MaxPayload = 16 << 20

var (
	// errPayloadSize reports an Append of an empty payload or of one
	// over MaxPayload: such a frame would not survive the next Open.
	errPayloadSize = errors.New("framelog: payload empty or over 16 MiB")
	// errCorrupt reports a ReadAt whose frame header or CRC does not
	// match the payload asked for.
	errCorrupt = errors.New("framelog: corrupt frame")
)

// FrameSize returns how many bytes an Append of an n-byte payload adds
// to the file.
func FrameSize(n int) int64 { return headerLen + int64(n) }

// Log is one open log file. Append, Size and Close must be serialized by
// the caller; ReadAt may run concurrently with them.
type Log struct {
	f    *os.File
	size int64
}

// Open opens the log at path, creating it when absent. A file that is
// empty, shorter than magic or starts with another magic holds no
// frames: it is reset to just the magic. Otherwise visit is called with
// each frame's offset and payload in file order, and the scan stops at
// the first frame that is torn, has a zero or oversize length, fails
// its CRC, or that visit rejects by returning false. The file is
// truncated there. torn reports whether Open dropped any bytes, which
// is never the case for an empty file.
func Open(path, magic string, visit func(off int64, payload []byte) bool) (l *Log, torn bool, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, false, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, false, err
	}
	l = &Log{f: f, size: int64(len(magic))}
	r := bufio.NewReader(io.NewSectionReader(f, 0, fi.Size()))
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r, head); err != nil || string(head) != magic {
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, false, err
		}
		if _, err := f.WriteAt([]byte(magic), 0); err != nil {
			f.Close()
			return nil, false, err
		}
		return l, fi.Size() > 0, nil
	}
	header := make([]byte, headerLen)
	for {
		if _, err := io.ReadFull(r, header); err != nil {
			break // clean end or torn header
		}
		n := binary.LittleEndian.Uint32(header[:4])
		if n == 0 || n > MaxPayload {
			break // corrupt length: everything past here is suspect
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			break // torn payload
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(header[4:]) {
			break // bit rot or a torn write caught by the CRC
		}
		if !visit(l.size, payload) {
			break
		}
		l.size += FrameSize(int(n))
	}
	if l.size < fi.Size() {
		if err := f.Truncate(l.size); err != nil {
			f.Close()
			return nil, false, err
		}
		torn = true
	}
	return l, torn, nil
}

// Append writes payload as one frame at the end of the log, in a single
// write, and returns the frame's offset.
func (l *Log) Append(payload []byte) (int64, error) {
	if len(payload) == 0 || len(payload) > MaxPayload {
		return 0, errPayloadSize
	}
	framed := make([]byte, FrameSize(len(payload)))
	binary.LittleEndian.PutUint32(framed[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(framed[4:headerLen], crc32.ChecksumIEEE(payload))
	copy(framed[headerLen:], payload)
	off := l.size
	if _, err := l.f.WriteAt(framed, off); err != nil {
		return 0, err
	}
	l.size += int64(len(framed))
	return off, nil
}

// ReadAt returns the n-byte payload of the frame at off, after checking
// the frame's length and CRC.
func (l *Log) ReadAt(off int64, n int) ([]byte, error) {
	if n <= 0 || n > MaxPayload {
		return nil, errCorrupt
	}
	buf := make([]byte, FrameSize(n))
	if _, err := l.f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	payload := buf[headerLen:]
	if binary.LittleEndian.Uint32(buf[:4]) != uint32(n) ||
		crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[4:headerLen]) {
		return nil, errCorrupt
	}
	return payload, nil
}

// Size returns the log's length in bytes, magic included.
func (l *Log) Size() int64 { return l.size }

// Close releases the file.
func (l *Log) Close() error { return l.f.Close() }
