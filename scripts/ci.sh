#!/bin/sh
# ci.sh — the full CI gate: build, lint (go vet + smokevet + optional
# staticcheck), tests, race coverage, and the fuzz smoke pass, with
# per-stage wall-clock timing so regressions in gate latency are visible
# in the CI log. Fails fast on the first broken stage.
set -eu

cd "$(dirname "$0")/.."

total_start=$(date +%s)

run_stage() {
    name=$1
    shift
    echo "==> $name"
    start=$(date +%s)
    "$@"
    end=$(date +%s)
    echo "==> $name: ok ($((end - start))s)"
    echo
}

run_stage build      make build
run_stage lint       make lint
# The portable bodies build on every architecture: vet for arm64 compiles
# the !amd64 files (the Go noise row alone) that no amd64 build touches.
run_stage vet-arm64  env GOARCH=arm64 go vet ./...
# `make test` is lint + tests for humans; lint has just run, so the stage
# runs the tests only.
run_stage test       go test ./...
# The example programs are the public API's only callers outside the
# tests; the six fast ones run here (trafficcount profiles night-street).
run_stage examples   make examples-fast
run_stage test-race  make test-race
run_stage fuzz-smoke make fuzz-smoke
# The repository benchmark is its own module, so `go test ./...` above
# never builds it. Its self-test runs every workload at tiny scale, and its
# staged driver replays each generation through the layers' public
# functions asserting bytes and detector invocations equal the untouched
# call's — a product change that breaks either fails here, not in the
# driver after the PR is up.
run_stage benchmark-selftest sh -c 'cd benchmark && go test ./...'
# One pass over what remains of the testing.B benchmarks: the root
# package's estimator/detector micro-benchmarks (all of them: 1x is
# seconds), the probe-vs-full-column presence scan, the float patch kernel
# and its back half (synthetic and real difference planes) against their
# retained oracles, the noise kernel and its plane through each body the
# CPU runs (go, avx2, avx512), the resample kernels against their oracles
# (the bilinear kernel at each of those tiers) and each resample and
# denoise row through its Go and AVX2 bodies (the blend row through its go,
# avx2 and avx512 bodies), the object fills against theirs, and each
# half of the stream frame path — the
# camera alone and the receiver alone over captured wire bytes — so a
# benchmark that stops compiling or running fails here. Figure generation
# and ladders are exercised by `make test` (internal/experiments) and
# benchmark-selftest.
run_stage bench-smoke sh -c "go test -run '^\$' -bench . -benchtime=1x -short . && go test -run '^\$' -bench 'PresenceScan|PatchComponentsFloat|FloatComponents|SmoothPlane|AddNoise|NoisePlane|BilinearInto|BoxInto|RowBodies|BenchmarkFill|CameraStream|Receiver' -benchtime=1x -short ./internal/outputs/ ./internal/detect/ ./internal/raster/ ./internal/camera/ ./internal/stream/"
# The profile service end to end: `curve -remote` through a live daemon and
# the in-process `curve` print the same key and points, store hit on the
# second request, SIGTERM drain (scripts/serve_smoke.sh).
run_stage serve-smoke make serve-smoke
# Live streaming ingest end to end: camera -> daemon, windowed profiles,
# mid-flight cancel, clean drain (scripts/stream_smoke.sh).
run_stage stream-smoke make stream-smoke
# Fleet end to end: three real daemons on a shared ring, hot-key herd
# with exactly one generation fleet-wide, kill -9 of the generating node
# with replica serving after, clean drain (scripts/fleet_smoke.sh).
run_stage fleet-smoke make fleet-smoke
# The herd's invariant under repetition, in process: TestFleetHotKeyHerd's
# drill row 200 times, one generation per key in each run (found by hand
# twice before it had a gate).
run_stage herd-drill make herd-drill
# The fleet's read path under 2 000 seeded fault schedules, in memory:
# every 200 is the sealed bytes, no tampered envelope is admitted, a copy
# outlives its replicas (internal/fleetd/sim_test.go).
run_stage fleet-sim make fleet-sim

total_end=$(date +%s)
echo "ci: all stages passed in $((total_end - total_start))s"
