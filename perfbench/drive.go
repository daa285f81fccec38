package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/inca-arch/inca/internal/job"
)

// ---- the server process under test ----

// server is one inca-serve process started from the binary built from
// the checkout under test.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan error
	log  *os.File
}

// lineWatcher is the server's stdout: it reports the boot handshake
// line and discards the rest.
type lineWatcher struct {
	mu   sync.Mutex
	buf  []byte
	addr chan string
	sent bool
}

func (w *lineWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	const prefix = "inca-serve listening on "
	if i := bytes.Index(w.buf, []byte(prefix)); i >= 0 {
		if j := bytes.IndexByte(w.buf[i:], '\n'); j >= 0 {
			w.addr <- string(w.buf[i+len(prefix) : i+j])
			w.sent = true
		}
	}
	return len(p), nil
}

// startServer boots inca-serve with args and waits until /healthz/ready
// answers 200. The returned duration runs from process start to ready.
func startServer(bin, logPath string, args ...string) (*server, time.Duration, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	w := &lineWatcher{addr: make(chan string, 1)}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stdout, cmd.Stderr = w, logf
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting inca-serve: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan error, 1), log: logf}
	go func() { s.done <- cmd.Wait() }()
	select {
	case s.base = <-w.addr:
	case err := <-s.done:
		logf.Close()
		return nil, 0, fmt.Errorf("inca-serve exited before listening: %v (log %s)", err, logPath)
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, 0, errors.New("inca-serve did not print its address within 60s")
	}
	deadline := time.Now().Add(60 * time.Second)
	c := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := c.Get(s.base + "/healthz/ready")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, errors.New("inca-serve never became ready")
		}
		time.Sleep(time.Millisecond)
	}
	c.CloseIdleConnections()
	return s, time.Since(t0), nil
}

// stop drains the server with SIGTERM and waits for it to exit,
// killing it if the drain hangs.
func (s *server) stop() error {
	defer s.log.Close()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		return err
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return errors.New("inca-serve did not drain within 30s; killed")
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// procCPU returns the CPU time a process's threads have run, in
// nanoseconds, summed from /proc/<pid>/task/*/schedstat. Where that is
// missing it falls back to utime+stime from /proc/<pid>/stat, in clock
// ticks (USER_HZ = 100 on Linux), too coarse for a short window.
func procCPU(pid int) (time.Duration, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if errors.Is(err, fs.ErrNotExist) && t.Name() != strconv.Itoa(pid) {
			continue // the thread exited after the listing
		}
		if err != nil {
			return procStatCPU(pid)
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, errors.New("empty /proc schedstat line")
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, errors.New("unparsable /proc schedstat line")
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

// procStatCPU returns a process's user+system CPU time from
// /proc/<pid>/stat.
func procStatCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 12th and 13th of them, in clock ticks (USER_HZ = 100 on Linux).
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat line")
	}
	return time.Duration(u+s) * 10 * time.Millisecond, nil
}

// procHWM returns a process's peak resident set size (VmHWM) in MB.
func procHWM(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// resetHWM resets this process's peak RSS (VmHWM) to its current RSS
// by writing 5 to /proc/self/clear_refs (Linux 4.0 and later).
func resetHWM() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// serverMetrics is the part of GET /metrics the per-layer numbers use.
type serverMetrics struct {
	Rejected  int64 `json:"rejected_total"`
	Coalesced int64 `json:"coalesced_total"`
	Cache     struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	Store *struct {
		Puts     int64 `json:"puts"`
		Compacts int64 `json:"compactions"`
		Bytes    int64 `json:"bytes"`
	} `json:"store"`
	Jobs *struct {
		Failed int64 `json:"failed_total"`
	} `json:"jobs"`
	Runtime struct {
		GCCycles     uint32  `json:"gc_cycles"`
		GCPauseTotal float64 `json:"gc_pause_total_s"`
	} `json:"runtime"`
	TraceSpansTotal int64 `json:"trace_spans_total"`
}

func scrape(base string) (serverMetrics, error) {
	var m serverMetrics
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// ---- the closed-loop generator ----

// sample is one completed (or failed) request.
type sample struct {
	kind  string
	key   string // catalog key on serve-warm
	lat   time.Duration
	ok    bool
	err   string
	cells int
	bytes int
	polls int
	hash  [32]byte
}

// connResult is one connection's request log, in sequence order.
type connResult struct {
	samples []sample
}

// prefixDigest hashes the canonical hashes of the first n responses:
// the per-connection digest the committed references pin.
func (c connResult) prefixDigest(n int) string {
	if len(c.samples) < n {
		return ""
	}
	h := sha256.New()
	for _, s := range c.samples[:n] {
		h.Write(s.hash[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// jobPoll is how often a job caller asks for its job's state.
const jobPoll = 2 * time.Millisecond

// driveSpec describes one closed-loop drive: every connection sends
// exactly count requests.
type driveSpec struct {
	count int
	// noCost strips ?cost=1 (the observability-off comparison).
	noCost bool
	// rec, when set, records one span per request, identified by
	// connection and sequence index; first offsets the index when a
	// connection's sequence is sent over several drives.
	rec   *recorder
	first int
	// canon, when set, holds each connection's canonical-hash cache, kept
	// across drives; otherwise every drive starts empty ones.
	canon []canonCache
}

// drive runs one closed loop per generator, each over its own single
// keep-alive connection, and returns the logs and the wall time. Requests
// go through plain net/http with no retries, so a refused or failed
// request counts as failed instead of being hidden.
func drive(base string, gens []generator, spec driveSpec) ([]connResult, time.Duration) {
	// The callers mostly wait on the network: one P keeps the Go
	// scheduler's idle spinning off the cores the server needs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	out := make([]connResult, len(gens))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range gens {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr, Timeout: 120 * time.Second}
			canon := canonCache{}
			if spec.canon != nil {
				canon = spec.canon[c]
			}
			for i := 0; i < spec.count; i++ {
				rq := gens[c].next()
				if spec.noCost {
					rq.Cost = false
				}
				var s sample
				if spec.rec != nil {
					spec.rec.timed("http."+rq.Kind, 0, fmt.Sprintf("c%d-%d", c, spec.first+i), func() { s = send(client, base, rq, canon) })
				} else {
					s = send(client, base, rq, canon)
				}
				out[c].samples = append(out[c].samples, s)
			}
		}(c)
	}
	wg.Wait()
	return out, time.Since(t0)
}

// canonCache memoizes canonical hashes by raw body, so the caller
// spends little CPU beside the server it measures: most warm responses
// repeat byte for byte.
type canonCache map[[32]byte][32]byte

func (m canonCache) hash(body []byte) ([32]byte, error) {
	raw := sha256.Sum256(body)
	if h, ok := m[raw]; ok {
		return h, nil
	}
	h, err := canonicalHash(body)
	if err == nil {
		m[raw] = h
	}
	return h, err
}

// send performs one request; a job is submitted, polled to a terminal
// state and its result fetched. Latency for a job runs from submission
// to the observed terminal state.
func send(client *http.Client, base string, rq request, canon canonCache) sample {
	s := sample{kind: rq.Kind, key: rq.Key}
	t0 := time.Now()
	status, body, err := post(client, base+rq.path(), rq.Body)
	if err == nil && rq.Kind == kindJob {
		if status != http.StatusAccepted && status != http.StatusOK {
			err = fmt.Errorf("job submit: HTTP %d: %s", status, bytes.TrimSpace(body))
		} else {
			body, s.polls, err = awaitJob(client, base, body)
			status = http.StatusOK
		}
	}
	s.lat = time.Since(t0)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body))
	}
	if err == nil {
		s.hash, err = canon.hash(body)
	}
	if err != nil {
		s.err = err.Error()
		return s
	}
	s.ok, s.cells, s.bytes = true, rq.Cells, len(body)
	return s
}

func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func get(client *http.Client, url string) (int, []byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// awaitJob polls a submitted job until it is terminal and returns its
// result body and the number of status polls.
func awaitJob(client *http.Client, base string, submitted []byte) ([]byte, int, error) {
	var snap job.Snapshot
	if err := json.Unmarshal(submitted, &snap); err != nil || snap.ID == "" {
		return nil, 0, fmt.Errorf("job submit: unreadable snapshot %q", submitted)
	}
	polls := 0
	for !snap.State.Terminal() {
		time.Sleep(jobPoll)
		status, body, err := get(client, base+"/v1/jobs/"+snap.ID)
		polls++
		if err != nil {
			return nil, polls, err
		}
		if status != http.StatusOK {
			return nil, polls, fmt.Errorf("job status: HTTP %d", status)
		}
		if err := json.Unmarshal(body, &snap); err != nil {
			return nil, polls, err
		}
	}
	if snap.State != job.StateSucceeded {
		return nil, polls, fmt.Errorf("job %s ended %s: %s", snap.ID, snap.State, snap.Error)
	}
	status, body, err := get(client, base+"/v1/jobs/"+snap.ID+"/result")
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("job result: HTTP %d", status)
	}
	return body, polls, err
}

// warmUp sends every catalog entry once, in order, over one connection.
func warmUp(base string, entries []request) error {
	tr := &http.Transport{MaxConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	for _, rq := range entries {
		if s := send(client, base, rq, canonCache{}); !s.ok {
			return fmt.Errorf("warm-up %s: %s", rq.Key, s.err)
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
