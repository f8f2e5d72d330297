# Smokescreen-Go build and reproduction targets.

GO ?= go

.PHONY: build lint loc test test-race fuzz-smoke ci bench bench-kernels perf figures figures-quick examples examples-fast serve-smoke stream-smoke fleet-smoke herd-drill fleet-sim clean

# Pinned staticcheck version: `make lint` refuses other versions rather
# than drift between hosts. staticcheck is optional — hermetic builders
# have no network to install it, so lint degrades to go vet with a notice.
STATICCHECK_VERSION ?= 2025.1

build:
	$(GO) build ./...

# lint layers six gates: go vet, gofmt (no file outside the analyzer
# fixtures' testdata/, which are inputs, may differ from gofmt's output),
# the repo's own smokevet analyzer suite
# (determinism, ctxflow, atomiccounter, goroleak, axisreg, errcontract,
# reach — see DESIGN.md §10; every analyzer but reach is per-package,
# reach flags an internal/ export no non-test code uses, and ctxflow also
# rejects an exported F declared beside an exported FCtx in internal/, so
# an entry point has one name and it takes the caller's ctx), the
# CHANGES.md entry cap (one line per PR, at most
# 1500 bytes: what changed, what was measured, what was deleted — the
# narrative lives in git), a grep that keeps
# process-global setters at zero (no package-level `func Set…(` in non-test
# internal/ or cmd/ code: a setting travels with the run, not the process —
# the stand-in for ROADMAP item 3(a)'s noglobals analyzer), and optionally a
# version-pinned staticcheck. smokevet is built from this repo, so it
# always runs; a finding fails the build with
# `file:line: [analyzer] message`, and a stale //smokevet:ignore is
# itself a finding (the suppression audit runs on every full suite).
lint:
	$(GO) vet ./...
	@bad=$$(gofmt -l . | grep -v '/testdata/'); if [ -n "$$bad" ]; then \
		echo "$$bad"; echo "lint: gofmt -l lists the files above; run gofmt -w on them"; exit 1; \
	fi
	$(GO) run ./cmd/smokevet ./...
	@if LC_ALL=C awk 'length($$0) > 1500 { printf "CHANGES.md:%d: %d bytes\n", NR, length($$0); bad = 1 } END { exit !bad }' CHANGES.md; then \
		echo "lint: CHANGES.md entry over 1500 bytes; say what changed, what was measured, what was deleted"; exit 1; \
	fi
	@if grep -rnE '^func Set[A-Z]' --include='*.go' --exclude='*_test.go' --exclude-dir=testdata internal cmd; then \
		echo "lint: package-level Set* function (process-global setter); pass the value with the run instead"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		got=$$(staticcheck -version 2>/dev/null | head -n1); \
		case "$$got" in \
		*$(STATICCHECK_VERSION)*) staticcheck ./... ;; \
		*) echo "lint: staticcheck $$got found, want $(STATICCHECK_VERSION); skipping (pin with STATICCHECK_VERSION=...)" ;; \
		esac; \
	else \
		echo "lint: staticcheck not installed; ran go vet only (install staticcheck@$(STATICCHECK_VERSION) for the full gate)"; \
	fi

# The ROADMAP's size measure — non-test Go lines outside the frozen
# benchmark and analyzer fixtures — so every CHANGES.md entry quotes the
# same command.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' | xargs cat | wc -l

test: lint
	$(GO) test ./...

# Race coverage for every package that runs or feeds the worker pools:
# the scheduler itself, the detector caches and pooled scratch buffers,
# profile generation, and the core/transport/camera plumbing. The
# experiments package runs only its parallel determinism tests under the
# race detector — its full figure suite is numeric, race-free by
# construction on top of these packages, and an order of magnitude too
# slow with instrumentation on.
test-race:
	$(GO) test -race ./internal/parallel/ ./internal/detect/ ./internal/raster/ \
		./internal/profile/ ./internal/core/ ./internal/scene/ \
		./internal/transport/ ./internal/camera/ ./internal/degrade/ \
		./internal/store/ ./internal/server/ ./internal/outputs/ ./internal/plan/ \
		./internal/estimate/ ./internal/multicam/ ./internal/query/ ./internal/stats/ \
		./internal/stream/ ./internal/fleetd/ ./internal/analysis/ \
		./internal/codec/ ./internal/dataset/ ./internal/evaluate/
	$(GO) test -race -run 'Parallel' ./internal/experiments/

# Short fuzz pass over the decoders and parsers whose inputs can be torn,
# tampered or mistyped: the store's JSON envelope (and the memory-only
# admission gate fleet entry nodes put it behind), the daemon's strict
# request decoder (profile and stream bodies: no panic, and an accepted
# body re-marshals to the same request), the query language's
# parser (it must not panic, and a query's canonical form must parse back
# to itself), the transport framing the streaming ingest trusts from the network, the
# frame records inside it (decoded with pooled inflate state), the
# smokevet suppression-comment grammar (the lint gate's own input
# surface), the fused float kernel against its retained oracle, the
# presence probe against the full detection it abbreviates, the patch area
# bound (a patch the detector skips as too small to report is one the
# oracle pipeline leaves undetected), and the resample of a row range of a
# source rectangle, read in place at an offset and stride, against the
# reference kernels, and the dispatched noise row (AVX2 where the CPU has
# it) against its Go body: 12 targets. ~10s per target
# keeps it cheap enough to ride in CI; longer
# local runs:
#   go test -run '^$$' -fuzz FuzzEnvelopeDecode ./internal/store/
# FuzzDecodeFrame caps minimisation at 1s: its inputs are kilobytes, and
# the default 60s per interesting input would eat the whole 10s pass.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzEnvelopeDecode -fuzztime 10s ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzAdmitEnvelope -fuzztime 10s ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzDecodeStrict -fuzztime 10s ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzQueryParse -fuzztime 10s ./internal/query/
	$(GO) test -run '^$$' -fuzz FuzzFloatComponents -fuzztime 10s ./internal/detect/
	$(GO) test -run '^$$' -fuzz FuzzProbeFrame -fuzztime 10s ./internal/detect/
	$(GO) test -run '^$$' -fuzz FuzzPatchAreaBound -fuzztime 10s ./internal/detect/
	$(GO) test -run '^$$' -fuzz FuzzReceive -fuzztime 10s ./internal/transport/
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 10s -fuzzminimizetime 1s ./internal/codec/
	$(GO) test -run '^$$' -fuzz FuzzResampleRows -fuzztime 10s ./internal/raster/
	$(GO) test -run '^$$' -fuzz FuzzNoiseRow -fuzztime 10s ./internal/raster/
	$(GO) test -run '^$$' -fuzz FuzzSuppressParse -fuzztime 10s ./internal/analysis/

# The full CI gate with per-stage timing (scripts/ci.sh).
ci:
	sh ./scripts/ci.sh

# The root package's estimator/detector micro-benchmarks. End-to-end
# numbers come from benchmark/ (bash benchmark/run.sh, BENCHMARK.json),
# within-run kernel/oracle ratios from bench-kernels; the per-figure
# experiments run with assertions under `go test ./internal/experiments`.
bench:
	$(GO) test -run xxx -bench=. -benchmem .

# Raster/detect kernel micro-benchmarks: fast kernels vs their retained
# naive oracles, with ns/op and B/op so both the asymptotic win and the
# pooling win are visible. The last two lines are the float patch kernel
# against the historical pipeline retained in _test.go: whole patches on
# the resample shapes the cold workloads hit, then the fused back half
# (kernel, its Go bodies alone, oracle), the one-call plane denoise through
# its Go and AVX2 bodies (SmoothPlane), the tabled bilinear resample at each
# SIMD tier the CPU runs (go, avx2, avx512), the box kernel against the
# prefix-sum kernel it replaced (a near-identity and a heavy box), the noise
# kernel alone, one patch-sized noise plane through each of its bodies the
# CPU runs (NoisePlane: go, avx2, avx512), one patch-width row through each
# resample row kernel's Go and AVX2 bodies and the blend row through its
# AVX-512 body too (RowBodies), and rendered-object
# fills against their per-row and per-pixel oracles (Fill). kernel/oracle
# sub-benches run back to back, five times each, because only a ratio taken
# within one run survives this host's speed drift. The frame-path line is
# one frame through the codec each way, one camera session into a
# discarding peer — the benchmark's `small` session and the dense
# `mvi-40775` at 608, where objects touch the most rows — and the receiver
# alone over captured wire bytes; B/op and allocs/op are part of the point
# (a fresh DEFLATE writer per frame was ~900 KB/op). PresenceScan is one cold
# presence scan of small as probes against the full native count column it
# used to materialise (early-exits is the number of probes that stopped at
# the first deciding object).
bench-kernels:
	$(GO) test -run xxx -bench 'Kernel' -benchmem ./internal/raster/ ./internal/detect/
	$(GO) test -run xxx -bench 'PatchComponentsFloat|BenchmarkFloatComponents|BenchmarkSmoothPlane' -benchmem -count 5 ./internal/detect/
	$(GO) test -run xxx -bench 'BenchmarkBilinearInto|BenchmarkBoxInto|BenchmarkAddNoise|BenchmarkNoisePlane|BenchmarkRowBodies|BenchmarkFill' -benchmem -count 5 ./internal/raster/
	$(GO) test -run xxx -bench 'BenchmarkEncodeFrame|BenchmarkDecodeFrame|BenchmarkCameraStream|BenchmarkReceiver' -benchmem ./internal/codec/ ./internal/camera/ ./internal/stream/
	$(GO) test -run xxx -bench 'BenchmarkPresenceScan' -benchmem -count 5 ./internal/outputs/

# Where the CPU goes: four testing.B benchmarks (cold sweep, cube, camera,
# receiver) under -cpuprofile at GOMAXPROCS 1 and 2 on BASE and on the
# working tree, written to PERF.md as each profile's top functions by flat
# and cumulative share, side by side (scripts/perf.sh; ~2 min).
BASE ?= HEAD
perf:
	sh ./scripts/perf.sh $(BASE)

# Full-scale evaluation reports (the EXPERIMENTS.md numbers). Detector
# columns live in memory for the one run, so every run is cold (minutes).
figures:
	$(GO) run ./cmd/smokebench -out results/

figures-quick:
	$(GO) run ./cmd/smokebench -quick -out results-quick/

# End-to-end profile-service smoke: ephemeral-port daemon, one tiny
# profile through the CLI's `curve -remote` path, store-hit reuse, the same
# key and points from the in-process `curve`, SIGTERM drain.
serve-smoke:
	sh ./scripts/serve_smoke.sh

# End-to-end streaming-ingest smoke: camera sessions into a live daemon
# through POST /v1/streams, several windows with any-time bounds, then a
# mid-flight cancel that must not persist a partial window.
stream-smoke:
	sh ./scripts/stream_smoke.sh

# End-to-end fleet smoke: three real smokescreend daemons sharing a ring,
# smokeload's herd + steady scenarios against them, a kill -9 of the
# generating node with a new-key herd on the survivors (one generation:
# forward failover to the key's first live replica), then SIGTERM drain.
fleet-smoke:
	sh ./scripts/fleet_smoke.sh

# The hot-key herd's invariant — one generation per key — 200 times over a
# fresh in-process three-node fleet: TestFleetHotKeyHerd's drill row (48
# clients entering at every node, a 5 ms generation hold; ≈ 50 ms a run),
# which `go test ./...` runs once. The first run that costs two
# generations fails the target: before PR 24 about one run in 30 did (a
# store read racing a finishing job).
herd-drill:
	$(GO) test -count=200 -run 'TestFleetHotKeyHerd/drill' ./internal/fleetd/

# Deterministic fleet simulation: real nodes over an in-memory transport
# with seeded drop / flipped-envelope-byte / dead-node faults, every read
# checked against a model (internal/fleetd/sim_test.go). `go test ./...`
# and test-race run the 50-seed quick tier; this is the 2 000-seed tier.
# A failing seed prints its own replay command.
fleet-sim:
	$(GO) test -count=1 -run 'TestFleetSim' ./internal/fleetd/ -fleetsim.seeds=2000

# The six fast example programs (scripts/ci.sh's `examples` stage: they
# are the public API's only callers outside the tests).
examples-fast:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/profileservice
	$(GO) run ./examples/privacypipeline
	$(GO) run ./examples/profiletransfer
	$(GO) run ./examples/cityfleet
	$(GO) run ./examples/adaptivequery

examples: examples-fast
	# trafficcount profiles the full night-street corpus (several seconds):
	$(GO) run ./examples/trafficcount

clean:
	rm -rf results-quick
