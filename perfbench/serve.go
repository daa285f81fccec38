package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/store"
)

// serveWorkload describes one HTTP workload.
type serveWorkload struct {
	name string
	// prefix is how many leading responses per connection the committed
	// digests cover; every connection sends at least that many.
	prefix int
	// window is the per-connection request count of one timed window,
	// and traceCount that of one traced-run drive round.
	window, traceCount int
	// windowsPerSecond sets how many windows a run measures: see
	// fixedCount.
	windowsPerSecond float64
	// fresh boots a new server with empty state for every segment of
	// segment requests per connection (a whole number of windows).
	fresh   bool
	segment int
	// flags are the server's flags for a fresh state directory; bare
	// are the flags with the observability plane off (nil when the
	// workload runs without it).
	flags, bare func(dir string) []string
	gens        func(seed int64) []generator
	// warm are the requests a warm-up sends once before timing.
	warm []request
	// verify compares every logged response with the in-process engine
	// and returns how many differ.
	verify func(cfg config, rf *refs, o *outcome, logs []connResult) int
}

func runServeWarm(cfg config, rf *refs) (*outcome, error) {
	cat := newCatalog()
	w := serveWorkload{
		name:             "serve-warm",
		prefix:           400,
		window:           300,
		traceCount:       600,
		windowsPerSecond: 4,
		// The production observability plane stays on: a tracer ring of
		// the size scripts/obs_smoke.sh gives its shards, SLO burn-rate
		// tracking with the objectives README "Operating INCA" declares,
		// and ?cost=1 on every tenth request (an assumed share).
		flags: func(string) []string {
			return []string{"-trace-ring", "4096", "-slo-p99", "500ms", "-slo-err", "0.01"}
		},
		bare: func(string) []string { return nil },
		gens: func(seed int64) []generator {
			g := make([]generator, conns())
			for c := range g {
				g[c] = newWarmGen(cat, seed, c)
			}
			return g
		},
		warm: cat.entries(),
	}
	w.verify = func(cfg config, rf *refs, o *outcome, logs []connResult) int {
		return verifyCatalog(cfg, rf, o, cat, logs)
	}
	return runServe(cfg, rf, w)
}

func runServeCold(cfg config, rf *refs) (*outcome, error) {
	w := serveWorkload{
		name:             "serve-cold",
		prefix:           60,
		window:           50,
		traceCount:       60,
		windowsPerSecond: 2,
		fresh:            true,
		segment:          200,
		flags: func(dir string) []string {
			return []string{"-store-dir", filepath.Join(dir, "store"), "-job-dir", filepath.Join(dir, "jobs")}
		},
		gens: coldGens,
	}
	w.verify = func(cfg config, _ *refs, o *outcome, logs []connResult) int {
		return verifyReplay(o, coldGens(cfg.seed), logs)
	}
	return runServe(cfg, rf, w)
}

func coldGens(seed int64) []generator {
	g := make([]generator, conns())
	for c := range g {
		g[c] = newColdGen(seed, c)
	}
	return g
}

// boot starts a server on a fresh state directory and warms it.
// The duration covers process start to ready plus the warm-up.
func (w serveWorkload) boot(cfg config, tag string, flags func(string) []string) (*server, string, time.Duration, error) {
	dir := filepath.Join(cfg.work, tag)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", 0, err
	}
	s, d, err := startServer(cfg.serveBin, filepath.Join(dir, "serve.log"), flags(dir)...)
	if err != nil {
		return nil, "", 0, err
	}
	if w.warm != nil {
		t0 := time.Now()
		if err := warmUp(s.base, w.warm); err != nil {
			s.stop()
			return nil, "", 0, err
		}
		d += time.Since(t0)
	}
	return s, dir, d, nil
}

// setupBoots is how many times a serve-warm run sets a server up;
// setup_s is the median. The first set-up is the measured server's; the
// others are spread over the run, so that the samples see the host's
// speed as the windows do, not that of the run's first second.
const setupBoots = 9

// fixedCount is how many windows (or training pairs) a run of the
// given length measures. The count depends on --seconds only, never on
// how fast the code under test is, so every commit sends the same
// request sequence and its digests stay comparable. The per-second rates
// are set so that a run takes about --seconds on a 2-core Xeon.
func fixedCount(seconds int, perSecond float64) int {
	return max(1, int(math.Round(float64(seconds)*perSecond)))
}

// runServe measures a workload in a fixed number of short windows of
// window requests per connection. Each window is timed on its own, and
// the rates are read at the fast end of the windows (see fastQuantile).
// serve-warm keeps one warmed server for all windows; serve-cold boots a
// fresh server on empty state directories for each segment of a few
// windows, so every segment does the same cold work and the memo cache
// never grows past one segment's cells.
func runServe(cfg config, rf *refs, w serveWorkload) (*outcome, error) {
	if cfg.trace {
		return traceServe(cfg, rf, w)
	}
	o := &outcome{metrics: map[string]metric{}}
	var setups []float64
	var srv *server
	if !w.fresh {
		s, _, d, err := w.boot(cfg, "setup0", w.flags)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		srv = s
	}
	gens := w.gens(cfg.seed)
	logs := make([]connResult, len(gens))
	canon := make([]canonCache, len(gens))
	for c := range canon {
		canon[c] = canonCache{}
	}
	var rps, cps, cpuMS, rss []float64
	windows := fixedCount(cfg.seconds, w.windowsPerSecond)
	perServer := windows
	if w.fresh {
		perServer = w.segment / w.window
	}
	for win := 0; win < windows; win++ {
		if !w.fresh && win > 0 && win*setupBoots/windows != (win-1)*setupBoots/windows {
			s, _, d, err := w.boot(cfg, fmt.Sprintf("setup%d", len(setups)), w.flags)
			if err == nil {
				setups = append(setups, d.Seconds())
				err = s.stop()
			}
			if err != nil {
				srv.stop()
				return nil, err
			}
		}
		if w.fresh && win%perServer == 0 {
			s, _, d, err := w.boot(cfg, fmt.Sprintf("seg%d", win/perServer), w.flags)
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
			srv = s
		}
		cpu0, err := procCPU(srv.pid())
		if err != nil {
			srv.stop()
			return nil, err
		}
		winlogs, wall := drive(srv.base, gens, driveSpec{count: w.window, canon: canon})
		cpu1, err := procCPU(srv.pid())
		if err != nil {
			srv.stop()
			return nil, err
		}
		var ok, cells float64
		for c, l := range winlogs {
			logs[c].samples = append(logs[c].samples, l.samples...)
			for _, s := range l.samples {
				if s.ok {
					ok++
					cells += float64(s.cells)
				}
			}
		}
		rps = append(rps, ok/wall.Seconds())
		cps = append(cps, cells/wall.Seconds())
		cpuMS = append(cpuMS, float64((cpu1-cpu0).Nanoseconds())/1e6/ok)
		if (win+1)%perServer == 0 || win == windows-1 {
			hwm, err := procHWM(strconv.Itoa(srv.pid()))
			if serr := srv.stop(); serr != nil {
				o.fail("server shutdown: %v", serr)
			}
			if err != nil {
				return nil, err
			}
			rss = append(rss, hwm)
		}
	}

	lat := map[string][]float64{}
	for _, l := range logs {
		for _, s := range l.samples {
			o.attempted++
			if !s.ok {
				o.failed++
				o.fail("%s request failed: %s", s.kind, s.err)
				continue
			}
			lat[s.kind] = append(lat[s.kind], float64(s.lat.Nanoseconds())/1e6)
		}
	}
	o.failed += w.verify(cfg, rf, o, logs)
	o.failed += checkPrefix(cfg, rf, o, w, logs)

	o.put("setup_s", median(setups))
	o.put("throughput_rps", quantile(rps, 1-fastQuantile))
	o.put("cells_per_s", quantile(cps, 1-fastQuantile))
	o.put("cpu_ms_per_req", quantile(cpuMS, fastQuantile))
	o.put("peak_rss_mb", median(rss))
	o.note("rates are read at p%.0f over %d windows of %d requests per connection; window req/s min %.1f, median %.1f, max %.1f",
		100*(1-fastQuantile), len(rps), w.window, quantile(rps, 0), median(rps), quantile(rps, 1))
	for _, kind := range []string{kindSimulate, kindSweep, kindJob} {
		noteLatency(o, kind, lat[kind])
	}
	return o, nil
}

// noteLatency reports a request kind's median and the highest of p99
// and p90 that has at least ten samples beyond it, with the count.
func noteLatency(o *outcome, kind string, ms []float64) {
	if len(ms) == 0 {
		return
	}
	line := fmt.Sprintf("%s_p50_ms %.4f (n=%d)", kind, median(ms), len(ms))
	switch {
	case len(ms) >= 1000:
		line += fmt.Sprintf(", %s_p99_ms %.4f", kind, quantile(ms, 0.99))
	case len(ms) >= 100:
		line += fmt.Sprintf(", %s_p90_ms %.4f (too few samples for p99)", kind, quantile(ms, 0.90))
	}
	o.note("%s", line)
}

// checkPrefix compares each connection's leading-response digest with
// the committed reference for this seed (or records it) and returns the
// number of connections that differ.
func checkPrefix(cfg config, rf *refs, o *outcome, w serveWorkload, logs []connResult) int {
	digests := make([]string, len(logs))
	for c, l := range logs {
		digests[c] = l.prefixDigest(w.prefix)
	}
	if cfg.record {
		rf.setSeed(w.name, cfg.seed, &seedRef{Prefix: digests})
		return 0
	}
	ref := rf.seed(w.name, cfg.seed)
	if ref == nil {
		o.note("seed %d has no committed digests: responses are checked against the in-process engine only", cfg.seed)
		return 0
	}
	bad := 0
	for c := range digests {
		if c < len(ref.Prefix) && digests[c] != ref.Prefix[c] {
			bad++
			o.fail("connection %d: digest of the first %d responses differs from the committed reference", c, w.prefix)
		}
	}
	if bad == 0 {
		o.note("the first %d responses of each connection match the committed digests for seed %d", w.prefix, cfg.seed)
	}
	return bad
}

// verifyCatalog checks every serve-warm response against the in-process
// engine's answer for its catalog entry, and the engine's answers
// against the committed catalog digests.
func verifyCatalog(cfg config, rf *refs, o *outcome, cat *catalog, logs []connResult) int {
	p := newReplayer(nil, nil)
	want := map[string][32]byte{}
	for _, rq := range cat.entries() {
		body, err := p.do(context.Background(), rq, rq.Key)
		if err == nil {
			want[rq.Key], err = canonicalHash(body)
		}
		if err != nil {
			o.fail("in-process reference for %s: %v", rq.Key, err)
			continue
		}
		got := fmt.Sprintf("%x", want[rq.Key])
		if cfg.record {
			rf.WarmCatalog[rq.Key] = got
		} else if ref, ok := rf.WarmCatalog[rq.Key]; !ok || ref != got {
			o.fail("catalog entry %s: simulated output differs from the committed reference", rq.Key)
		}
	}
	bad := 0
	for _, l := range logs {
		for i, s := range l.samples {
			if s.ok && s.hash != want[s.key] {
				bad++
				o.fail("response %d (%s) differs from the in-process engine", i, s.key)
			}
		}
	}
	return bad
}

// verifyReplay re-evaluates every logged request in-process, one
// goroutine per connection, and counts responses that differ.
func verifyReplay(o *outcome, gens []generator, logs []connResult) int {
	bad := make([]int, len(logs))
	errs := make([]error, len(logs))
	var wg sync.WaitGroup
	for c := range logs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := newReplayer(nil, nil)
			for i, s := range logs[c].samples {
				rq := gens[c].next()
				if !s.ok {
					continue
				}
				p.forget()
				body, err := p.do(context.Background(), rq, "")
				var h [32]byte
				if err == nil {
					h, err = canonicalHash(body)
				}
				if err != nil {
					errs[c] = fmt.Errorf("in-process reference for c%d-%d: %w", c, i, err)
					return
				}
				if h != s.hash {
					bad[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	total := 0
	for c := range logs {
		if errs[c] != nil {
			o.fail("%v", errs[c])
		}
		if bad[c] > 0 {
			o.fail("connection %d: %d responses differ from the in-process engine", c, bad[c])
		}
		total += bad[c]
	}
	return total
}

// traceRounds is how many times the traced run alternates its drives,
// so slow drift on the machine cancels out of the per-round ratios.
const traceRounds = 5

// traceRole is one server of the traced run and the drives sent to it.
type traceRole struct {
	flags  func(string) []string
	noCost bool
	rec    *recorder
	srv    *server
	dir    string
	gens   []generator
	logs   []connResult
	walls  []float64
	cpu    []float64
}

// traceServe is the traced run. Each role gets its own server: an
// untraced drive, the same drive with a span per request and /metrics
// scraped around it, and on serve-warm the same drive with the
// observability plane off. The roles take turns for traceRounds rounds
// of the same requests; then the requests are replayed in-process with a
// span around each layer's public call.
func traceServe(cfg config, rf *refs, w serveWorkload) (*outcome, error) {
	o := &outcome{metrics: map[string]metric{}}
	n := w.traceCount * traceRounds
	requests := float64(n * conns())
	rec := newRecorder()
	untraced, traced := &traceRole{flags: w.flags}, &traceRole{flags: w.flags, rec: rec}
	roles := []*traceRole{untraced, traced}
	var bare *traceRole
	if w.bare != nil {
		bare = &traceRole{flags: w.bare, noCost: true}
		roles = append(roles, bare)
	}
	for i, r := range roles {
		var err error
		if r.srv, r.dir, _, err = w.boot(cfg, fmt.Sprintf("role%d", i), r.flags); err != nil {
			for _, q := range roles[:i] {
				q.srv.stop()
			}
			return nil, err
		}
		r.gens = w.gens(cfg.seed)
		r.logs = make([]connResult, len(r.gens))
	}
	m0, err := scrape(traced.srv.base)
	for k := 0; k < traceRounds && err == nil; k++ {
		// Rotate the order each round so no role always runs first.
		for i := range roles {
			r := roles[(i+k)%len(roles)]
			var c0, c1 time.Duration
			if c0, err = procCPU(r.srv.pid()); err != nil {
				break
			}
			logs, wall := drive(r.srv.base, r.gens, driveSpec{count: w.traceCount, noCost: r.noCost, rec: r.rec, first: k * w.traceCount})
			if c1, err = procCPU(r.srv.pid()); err != nil {
				break
			}
			for c := range logs {
				r.logs[c].samples = append(r.logs[c].samples, logs[c].samples...)
			}
			r.walls = append(r.walls, wall.Seconds())
			r.cpu = append(r.cpu, float64((c1-c0).Microseconds())/1e3)
		}
	}
	var m1 serverMetrics
	if err == nil {
		m1, err = scrape(traced.srv.base)
	}
	for _, r := range roles {
		if serr := r.srv.stop(); serr != nil && err == nil {
			err = serr
		}
		for _, l := range r.logs {
			for _, s := range l.samples {
				if !s.ok {
					o.fail("%s request failed: %s", s.kind, s.err)
				}
			}
		}
	}
	if err != nil {
		return nil, err
	}
	journal := dirBytes(filepath.Join(traced.dir, "jobs"))
	logs := traced.logs
	ratio := func(a, b []float64) float64 {
		r := make([]float64, len(a))
		for i := range a {
			r[i] = a[i] / b[i]
		}
		return median(r)
	}
	o.put("bench.trace_overhead_ratio", ratio(traced.walls, untraced.walls))
	if bare != nil {
		// CPU is read in 10 ms ticks, so the ratio uses whole-run totals.
		o.put("obs.plane_cpu_ratio", sum(untraced.cpu)/sum(bare.cpu))
		o.put("obs.trace_spans_per_req", float64(m1.TraceSpansTotal-m0.TraceSpansTotal)/requests)
	}

	// In-process replay of the same requests, warmed like the server.
	var st *store.Store
	if w.name == "serve-cold" {
		if st, err = store.Open(filepath.Join(cfg.work, "replay-store"), store.Options{}); err != nil {
			return nil, err
		}
		defer st.Close()
	}
	p := newReplayer(nil, st)
	ctx := context.Background()
	for _, rq := range w.warm {
		if _, err := p.do(ctx, rq, ""); err != nil {
			return nil, err
		}
	}
	p.rec = rec
	gens := w.gens(cfg.seed)
	for i := 0; i < n; i++ {
		for c := range gens {
			rq := gens[c].next()
			if w.fresh {
				p.forget()
			}
			body, err := p.do(ctx, rq, fmt.Sprintf("c%d-%d", c, i))
			if err != nil {
				return nil, err
			}
			o.attempted++
			s := logs[c].samples[i]
			h, err := canonicalHash(body)
			if !s.ok || err != nil || h != s.hash {
				o.failed++
				o.fail("c%d-%d: HTTP response differs from the in-process replay (%s)", c, i, s.err)
			}
		}
	}

	var kb float64
	{
		var m0, m1 runtime.MemStats
		const calls = 200
		runtime.ReadMemStats(&m0)
		for i := 0; i < calls; i++ {
			if _, err := nn.ByName(zoo[i%len(zoo)]); err != nil {
				return nil, err
			}
		}
		runtime.ReadMemStats(&m1)
		kb = float64(m1.TotalAlloc-m0.TotalAlloc) / calls / 1024
	}

	agg := rec.aggregate()
	// HTTP latency against the replayed layers, over simulate and sweep
	// requests: a job's latency is mostly its status-poll interval.
	var httpNS, httpN, bytes, cells, polls, jobs float64
	for _, l := range logs {
		for _, s := range l.samples {
			bytes += float64(s.bytes)
			cells += float64(s.cells)
			if s.kind == kindJob {
				jobs++
				polls += float64(s.polls)
				continue
			}
			httpNS += float64(s.lat.Nanoseconds())
			httpN++
		}
	}
	// The replay runs every request's layers, but the server runs
	// sweep.Run and the encode only for requests it executes: a request
	// that joins another's coalescing flight replays the recorded answer
	// after decode, nn.ByName and planning. Those two spans are therefore
	// charged at the share of simulate/sweep requests the server executed.
	executed := 1 - float64(m1.Coalesced-m0.Coalesced)/httpN
	var coveredNS, replayN float64
	roots := []string{"request." + kindSimulate, "request." + kindSweep}
	for name, d := range rec.childTotals(roots...) {
		share := 1.0
		if name == "sweep.run" || name == "serve.encode" {
			share = executed
		}
		coveredNS += share * float64(d.Nanoseconds())
	}
	for _, root := range roots {
		replayN += float64(agg[root].Calls)
	}
	httpMeanUS := httpNS / httpN / 1e3
	overheadUS := httpMeanUS - coveredNS/replayN/1e3

	o.put("serve.decode_us", agg["serve.decode"].perCall())
	o.put("serve.encode_us", agg["serve.encode"].perCall())
	o.put("serve.response_bytes", bytes/requests)
	o.put("serve.overhead_us", overheadUS)
	o.put("serve.coalesced_ratio", float64(m1.Coalesced-m0.Coalesced)/requests)
	o.put("serve.rejected", float64(m1.Rejected-m0.Rejected))
	o.put("serve.gc_cycles_per_kreq", float64(m1.Runtime.GCCycles-m0.Runtime.GCCycles)*1000/requests)
	o.put("serve.gc_pause_ms_per_kreq", (m1.Runtime.GCPauseTotal-m0.Runtime.GCPauseTotal)*1e3*1000/requests)
	o.put("nn.byname_us", agg["nn.byname"].perCall())
	o.put("nn.byname_alloc_kb", kb)
	o.put("nn.byname_per_req", float64(agg["nn.byname"].Calls)/requests)
	o.put("sweep.run_us", agg["sweep.run"].perCall())
	o.put("sweep.cells", cells/requests)
	hits, misses := m1.Cache.Hits-m0.Cache.Hits, m1.Cache.Misses-m0.Cache.Misses
	o.put("sweep.hit_ratio", float64(hits)/float64(hits+misses))
	o.put("sweep.misses", float64(misses))
	var simNS float64
	for _, name := range simulateSpan {
		o.put(name+"_us", agg[name].perCall())
		simNS += float64(agg[name].Total.Nanoseconds())
	}
	if simNS > 0 {
		o.put("sim.layers_per_ms", float64(p.layers.Load())/(simNS/1e6))
	}
	if m0.Store != nil && m1.Store != nil {
		puts := m1.Store.Puts - m0.Store.Puts
		o.put("store.put_us", agg["store.put"].perCall())
		o.put("store.get_us", agg["store.get"].perCall())
		o.put("store.bytes_per_cell", float64(m1.Store.Bytes-m0.Store.Bytes)/float64(puts))
		o.put("store.puts", float64(puts))
		o.put("store.compactions", float64(m1.Store.Compacts-m0.Store.Compacts))
	}
	if jobs > 0 {
		o.put("job.journal_bytes_per_job", float64(journal)/jobs)
		o.put("job.polls_per_job", polls/jobs)
		o.put("job.failed", float64(m1.Jobs.Failed-m0.Jobs.Failed))
	}
	o.put("bench.unattributed_share", overheadUS/httpMeanUS)
	o.note("HTTP mean latency %.1f us over %d simulate/sweep requests; replayed layers cover %.1f us of it, with sweep.run and encode charged to the %.1f%% the server executed",
		httpMeanUS, int(httpN), coveredNS/replayN/1e3, 100*executed)
	noteSelfTimes(o, agg, requests, "request.", "http.")
	return o, writeTrace(cfg, rec)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// noteSelfTimes prints each layer's self time per request, largest
// first, with its share of the layers' total (roots excluded).
func noteSelfTimes(o *outcome, agg map[string]layerStat, per float64, skip ...string) {
	type row struct {
		name string
		st   layerStat
	}
	var rows []row
	var total float64
next:
	for name, st := range agg {
		for _, prefix := range skip {
			if strings.HasPrefix(name, prefix) {
				continue next
			}
		}
		rows = append(rows, row{name, st})
		total += float64(st.Self)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].st.Self > rows[j].st.Self })
	for _, r := range rows {
		o.note("self %-28s %10.2f us/op %6.1f%% (%d calls)", r.name,
			float64(r.st.Self.Nanoseconds())/1e3/per, 100*float64(r.st.Self)/total, r.st.Calls)
	}
}

// writeTrace writes the run's spans for offline analysis.
func writeTrace(cfg config, rec *recorder) error {
	if err := os.MkdirAll(cfg.traces, 0o755); err != nil {
		return err
	}
	return rec.write(filepath.Join(cfg.traces, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed)))
}
