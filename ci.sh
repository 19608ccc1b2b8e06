#!/bin/sh
# CI gate: formatting, build (including examples), vet, then the full test
# suite under the race detector. The scheduler's cancellable timers, the
# loader's timeout/response race, and the websliced worker pool are exactly
# the code -race exists to check.
set -eux
cd "$(dirname "$0")"
unformatted=$(gofmt -l cmd internal examples e2ebench bench_test.go)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" "$unformatted" >&2
	exit 1
fi
go build ./...
go build ./examples/...
go vet ./...
go test -race ./...

# The end-to-end benchmark is its own module, so the root ./... skips it; it
# calls internal entry points (Profiler.Slice, slicer.Options, store keys),
# and renaming one must fail here rather than when the benchmark runs.
(cd e2ebench && go vet ./... && go test ./...)

# Coverage ratchet on the correctness-critical packages: the slicing engine,
# the control dependence graph, the replay/invariant oracles, the trace
# decoder, which parses every upload, the HTTP layer: the one handler
# and client (service), the coordinator that serves and calls them
# (cluster), and the CLI's client commands (cmd/webslice), and the content
# address: the profiler that names core.AnalysisVersion (core), the store
# the keys address (store), and the golden-pin guard (experiments). Floors
# only go up — raise them when coverage improves, never lower them to merge.
check_cover() {
	pkg=$1
	floor=$2
	pct=$(go test -cover "$pkg" | awk '{for (i=1; i<=NF; i++) if ($i == "coverage:") {sub(/%/, "", $(i+1)); print $(i+1)}}')
	if [ -z "$pct" ]; then
		echo "no coverage reported for $pkg" >&2
		exit 1
	fi
	if awk -v p="$pct" -v f="$floor" 'BEGIN{exit !(p < f)}'; then
		echo "coverage ratchet: $pkg at ${pct}%, floor is ${floor}%" >&2
		exit 1
	fi
	echo "coverage: $pkg ${pct}% (floor ${floor}%)"
}
check_cover ./internal/slicer 85
check_cover ./internal/cdg 85
check_cover ./internal/replay 82
check_cover ./internal/trace 85
check_cover ./internal/service 91
check_cover ./internal/cluster 92
check_cover ./cmd/webslice 28
check_cover ./internal/core 81
check_cover ./internal/store 88
check_cover ./internal/experiments 81

# Robustness gate: vet + race over the durability-critical service package
# (journal, quarantine) is already covered by the full -race run
# above; on top of that, a short deterministic chaos smoke — seeded
# kill/restart/IO-fault/panic schedules must lose no acknowledged job —
# and a fuzz smoke of the journal's replay path.
go test -race -count=1 -run 'TestChaos' ./internal/service/chaostest
# A quarantined job must be listed and counted before its status is
# published. The test reads both the moment the status is terminal; with
# the order reversed it failed about 1 to 3 runs in 100, so 300 runs
# (about 5 s) catch that regression with high probability.
go test -race -count=300 -run 'TestPanicIsolationAndQuarantine$' ./internal/service
# A Get that read a blob from disk promotes it into the LRU only if no Put
# stored a fresher one meanwhile, and every insert evicts from the back
# under one lock; race that promote-versus-put order, eviction and the
# corrupt-blob drop under concurrent Put and Get.
go test -race -count=20 -run 'TestConcurrentGetPutEvictStress' ./internal/store
# The jobs of one JobKey in flight share one trace through a refcounted map
# that workers hand to each other: one obtains while the rest wait, and a
# wait can end by cancellation, an obtain error or the obtainer's panic.
# Race every one of those hand-offs many times (about 2 s).
go test -race -count=50 -run 'TestTraceShare' ./internal/service
# The share also holds the trace's forward pass: the first holder loads or
# computes it under the share's lock, and its twin takes it from there, with
# or without a store. Race that hand-off through whole jobs.
go test -race -count=10 -run 'TestTwin' ./internal/service
# A stopping daemon drains its jobs while it still serves, and closes its
# server only after the drain: the signal, the HTTP server and the workers
# hand shutdown to each other, so one passing run can be luck.
go test -race -count=20 -run 'TestDrainKeepsServing' ./cmd/websliced
go test -run '^$' -fuzz FuzzJournalReplayNeverPanics -fuzztime 5s -fuzzminimizetime 100x ./internal/service

# Fuzz smoke: a few seconds per target so a crashing input or a slice that
# fails to replay is caught in CI, not only by long offline fuzzing runs.
# Each new input is minimized for at most 100 runs: at the default 60 s a
# worker spends the rest of a 5 s smoke minimizing one input.
go test -run '^$' -fuzz FuzzSliceNeverPanics -fuzztime 5s -fuzzminimizetime 100x ./internal/slicer
# Any method, path and body against the HTTP API: no route panics, and
# every answer that is not a 2xx is JSON with an error field.
go test -run '^$' -fuzz FuzzHandlerNeverPanics -fuzztime 5s -fuzzminimizetime 100x ./internal/service
go test -run '^$' -fuzz FuzzReplayAgreesWithSlice -fuzztime 5s -fuzzminimizetime 100x ./internal/replay
go test -run '^$' -fuzz FuzzV3RoundTrip -fuzztime 5s -fuzzminimizetime 100x ./internal/trace
go test -run '^$' -fuzz FuzzV3DecodeNeverPanics -fuzztime 5s -fuzzminimizetime 100x ./internal/trace
# The inflater against compress/flate, which writes every v3 block: for any
# bytes and limit, both fail or both return the same bytes.
go test -run '^$' -fuzz FuzzInflateMatchesFlate -fuzztime 5s -fuzzminimizetime 100x ./internal/trace
go test -run '^$' -fuzz FuzzBuildMatchesReference -fuzztime 5s -fuzzminimizetime 100x ./internal/cfg

# ReadAll splits a trace's blocks over up to GOMAXPROCS workers. Pin
# GOMAXPROCS to 16 so that path, and its memory budget, are raced and
# fuzzed with many workers even on a host with one or two cores.
GOMAXPROCS=16 go test -race -count=1 ./internal/trace
GOMAXPROCS=16 go test -run '^$' -fuzz FuzzV3DecodeNeverPanics -fuzztime 5s -fuzzminimizetime 100x -parallel 2 ./internal/trace

# Observability smoke: a job through the HTTP API must produce one
# causally-linked span tree (correct names and parent links), with its
# trace ID joining the structured log, the /metrics exemplars, and
# /debug/spans; the cluster variant pins the same property across the
# coordinator->worker HTTP hop on an in-process 3-node ring.
go test -count=1 -run 'TestSpansSmoke' ./internal/service
go test -count=1 -run 'TestClusterTracePropagation' ./internal/cluster

# The full validation sweep: golden corpus digests, then replay, naive-
# differential, and invariant oracles over 50 property-generated sites.
go run ./cmd/webslice verify -exp all

# No test runs the repro and slice commands, which wire the experiments
# together (repro's criteria comparison runs on its -j pool), so run each
# once at a small scale. Without -json: that would overwrite
# BENCH_repro.json.
go run ./cmd/webslice repro -exp all -scale 0.06 -j 2 >/dev/null
go run ./cmd/webslice slice -site amazon-mobile -scale 0.06 >/dev/null

# Cluster smoke with real processes: a coordinator fronting two workers on
# loopback ports runs the golden corpus, one worker is SIGKILLed mid-batch,
# and every acked job must still finish with its pinned slice digest; a
# second pass must then be served whole from the survivor's result cache.
WEBSLICE_CLUSTER_SMOKE=1 go test -count=1 -run TestMultiNodeSmoke ./cmd/websliced

# Bench smoke: every benchmark must still run (one iteration at a small
# scale) so perf harness rot is caught in CI, not at measurement time.
WEBSLICE_SCALE=0.05 go test -bench=. -benchtime=1x -run '^$' ./...
