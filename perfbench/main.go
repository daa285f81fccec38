// Command perfbench is the repository's benchmark. It runs one workload
// against the code in the current checkout and prints every metric with
// its unit, the correctness verdict, and — as its last line — one JSON
// result object.
//
// Usage (from the repository root; run.sh builds this command and
// inca-serve first):
//
//	bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 30 --trace 0
//
// Every number is host time: how long the simulator and its service take
// to run. Simulated energy, latency and accuracy only enter as
// correctness checks that must stay identical.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run produces.
type outcome struct {
	attempted, failed int
	// problems explains every failed check; empty means correct.
	problems []string
	// metrics are the gated numbers printed in the result line: the
	// end-to-end set untraced, the per-layer set traced.
	metrics map[string]metric
	// info are printed for people but not gated: per-kind latencies with
	// their sample counts, error_rate, and layer self-time tables.
	info []string
}

func (o *outcome) fail(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.info = append(o.info, fmt.Sprintf(format, args...))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	serveBin string
	work     string // scratch directory for server state and logs
	traces   string // where traced runs write their spans
	refsPath string
	record   bool
	commit   string
}

var workloads = map[string]func(config, *refs) (*outcome, error){
	"serve-warm":  runServeWarm,
	"serve-cold":  runServeCold,
	"train-noise": runTrainNoise,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "serve-warm", "workload: serve-warm, serve-cold or train-noise")
	fs.Int64Var(&cfg.seed, "seed", 1, "request-generator and dataset seed")
	fs.IntVar(&cfg.seconds, "seconds", 30, "length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	fs.StringVar(&cfg.serveBin, "serve-bin", ".bench_build/inca-serve", "inca-serve binary built from this checkout")
	fs.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory for server state and logs; spans go to its sibling traces/")
	fs.StringVar(&cfg.refsPath, "refs", "perfbench/refs.json", "committed correctness references")
	fs.StringVar(&cfg.commit, "commit", "unknown", "commit under test, for the fingerprint")
	fs.BoolVar(&cfg.record, "record-refs", false, "write this run's digests into -refs instead of comparing (only for a correct program)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need -workload serve-warm|serve-cold|train-noise, -seconds >= 1, -trace 0|1")
		return 2
	}
	cfg.trace = trace == 1
	rf, err := loadRefs(cfg.refsPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	runDir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg.work, cfg.traces = runDir, filepath.Join(filepath.Dir(cfg.work), "traces")
	defer os.RemoveAll(runDir)

	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, trace)
	fp, _ := json.Marshal(fingerprint(cfg))
	fmt.Fprintf(stdout, "fingerprint %s\n", fp)
	out, err := runWorkload(cfg, rf)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out.complete(cfg.trace)
	if cfg.record && len(out.problems) == 0 {
		if err := rf.save(cfg.refsPath); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "recorded references for %s seed %d in %s\n", cfg.workload, cfg.seed, cfg.refsPath)
	}
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "metric %-30s %16.6g %s\n", n, out.metrics[n].Value, out.metrics[n].Unit)
	}
	for _, line := range out.info {
		fmt.Fprintf(stdout, "info   %s\n", line)
	}
	correct := len(out.problems) == 0
	for _, p := range out.problems {
		fmt.Fprintf(stdout, "FAIL   %s\n", p)
	}
	errRate := 0.0
	if out.attempted > 0 {
		errRate = float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(stdout, "correct %v (attempted %d, failed %d, error_rate %g)\n", correct, out.attempted, out.failed, errRate)
	res, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, out.attempted, out.failed, out.metrics})
	fmt.Fprintf(stdout, "%s\n", res)
	if !correct {
		return 1
	}
	return 0
}

// fingerprint identifies the machine and code that produced a result.
func fingerprint(cfg config) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     cfg.commit,
		"workload":   cfg.workload,
		"seed":       cfg.seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// ---- summary statistics ----

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// fastQuantile is the quantile of per-call times and per-window CPU
// (and the complementary one of per-window rates) the gated rates are
// read at. The host runs the same code at one of two speeds, up to 1.8x
// apart, switches between them within a second, and the share of time
// it spends slow drifts from minute to minute. A median of short samples
// lands in either speed depending on that share; the low end of many
// short samples stays at the fast one, and any change to the code moves
// every sample, the fast ones too.
const fastQuantile = 0.1

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
