# Tier-1 gate for this repo. `make check` is what CI and reviewers run;
# it must pass on every commit.

GO ?= go

.PHONY: check build test vet race api-surface api-surface-update bench bench-pr6 bench-pr7 bench-pr8 bench-pr9 bench-pr10 bench-gate bench-sweep serve-smoke cluster-smoke job-smoke obs-smoke chaos trace profile fuzz

check: vet build race api-surface bench-gate

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Golden `go doc` diff over every non-internal package: fails when the
# public API surface drifts from scripts/api_surface.golden. Re-record
# with `make api-surface-update` after an intentional change.
api-surface:
	GO=$(GO) sh scripts/api_surface.sh

api-surface-update:
	GO=$(GO) sh scripts/api_surface.sh -update

# Tensor-kernel serial-vs-parallel baseline, recorded in the repo root.
bench:
	$(GO) run ./cmd/inca-bench -o BENCH_PR2.json

# Dataflow/auto-tuner era baseline for this PR, recorded in the repo root.
bench-pr6:
	$(GO) run ./cmd/inca-bench -o BENCH_PR6.json

# Result-store era baseline: the four tensor kernels plus the
# store-warm-start probe (cold recompute vs warm disk replay).
bench-pr7:
	$(GO) run ./cmd/inca-bench -o BENCH_PR7.json -pr 7

# Cluster era baseline: everything above plus the request-coalescing
# probe (a 32-request thundering herd, coalescer off vs on).
bench-pr8:
	$(GO) run ./cmd/inca-bench -o BENCH_PR8.json -pr 8

# Durable-jobs era baseline: everything above plus the job-resume probe
# (a 64-cell async job cold vs resumed against 32 checkpointed cells).
bench-pr9:
	$(GO) run ./cmd/inca-bench -o BENCH_PR9.json -pr 9

# Observability-plane era baseline: everything above plus the
# instrumentation overhead probe (traced + SLO-tracked + cost-attributed
# sweeps vs bare ones).
bench-pr10:
	$(GO) run ./cmd/inca-bench -o BENCH_PR10.json -pr 10

# Deterministic perf-regression gate: compares the two newest committed
# BENCH_PR*.json baselines and fails on a >10% slowdown in any kernel
# present in both. Override the tolerance with BENCH_GATE_TOLERANCE.
bench-gate:
	GO=$(GO) sh scripts/bench_gate.sh

# Sweep-engine scaling benchmark (serial vs 2/4/8 workers + warm cache).
bench-sweep:
	$(GO) test -bench PaperSweep -benchtime 10x -run xxx ./internal/sweep/

# Chaos suite: every deterministic fault-injection, retry, drain, and
# stuck-device test under the race detector. Seeds are fixed in the
# tests, so a failure here reproduces exactly by rerunning the target.
chaos:
	$(GO) test -race -run 'Chaos|Fault|Retry|Stuck|Readiness|MaxBody|Drain|Backoff|Transient|RetryAfter|Exhausted' \
		./internal/fault/ ./internal/sweep/ ./internal/serve/ \
		./internal/client/ ./internal/rram/ ./internal/train/ .

# Coverage-guided fuzzing, one target at a time (go test -fuzz accepts
# a single target per run): the /v1/simulate request path, the two
# fixed-point invariants, the convolution kernels against their
# pre-rewrite references, and the framed-log decoder under the result
# store and the job journal. New failing inputs land in the package's
# testdata/fuzz/ directory and replay in every later `go test`.
FUZZTIME ?= 60s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzSimulateRequest$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzQuantizerRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/fixed/
	$(GO) test -run '^$$' -fuzz '^FuzzBitSerialDot$$' -fuzztime $(FUZZTIME) ./internal/fixed/
	$(GO) test -run '^$$' -fuzz '^FuzzConvKernels$$' -fuzztime $(FUZZTIME) ./internal/tensor/
	$(GO) test -run '^$$' -fuzz '^FuzzFramelog$$' -fuzztime $(FUZZTIME) ./internal/framelog/

# Observability suite under the race detector: the obs tracer itself,
# the traced sim/sweep/serve paths (deterministic step clocks pin every
# timestamp), kernel-stats counters, and the admission-gauge invariants.
trace:
	$(GO) test -race -run 'Trace|Traced|KernelStats|Stats|QueuedGauge|Prometheus|LatencyBuckets|Pprof' \
		./internal/obs/ ./internal/sim/ ./internal/sweep/ \
		./internal/serve/ ./internal/tensor/

# CPU profile of the kernel benchmark (the numeric hot path); inspect
# with `go tool pprof cpu.pprof`.
profile:
	$(GO) run ./cmd/inca-bench -cpuprofile cpu.pprof

# End-to-end smoke of the HTTP service: boot inca-serve, probe /healthz,
# evaluate one simulate cell twice (responses must be byte-identical),
# then SIGTERM and require a clean drained exit.
serve-smoke:
	GO=$(GO) sh scripts/serve_smoke.sh

# End-to-end smoke of the sharded cluster: boot 3 shards + coordinator +
# a single-node reference, sweep through the coordinator (CSV must be
# byte-identical to the reference), SIGKILL one shard and sweep again
# (still byte-identical, readiness degraded but 200), then clean SIGTERM
# exits for every surviving node.
cluster-smoke:
	GO=$(GO) sh scripts/cluster_smoke.sh

# End-to-end crash-resume smoke of the durable job subsystem: run a job
# clean for a reference body, rerun it on a journaled server and
# SIGKILL mid-job, restart over the same directories, and require the
# resumed result byte-identical with the resume visible in /metrics.
job-smoke:
	GO=$(GO) sh scripts/job_smoke.sh

# End-to-end smoke of the observability plane: boot a 3-shard cluster
# with tracing, SLO objectives, and durable jobs; run a cost-attributed
# sharded sweep and a SIGKILL-resumed job; require the federated trace
# on the coordinator to carry shard-side spans, the usage ledger to
# reconcile with the per-request cost blocks, and burn-rate families in
# /metrics.
obs-smoke:
	GO=$(GO) sh scripts/obs_smoke.sh
