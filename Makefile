# Build, test and benchmark entry points. This file is the one statement of
# each gate; CI (.github/workflows/ci.yml) only calls these targets.
# BENCH.md says how to run and read the benchmarks.

GO ?= go
BENCHTIME ?= 300ms
FUZZTIME ?= 10s
SERVE_ADDR ?= 127.0.0.1:7070

.PHONY: all build fmt-check vet api-check test race fuzz check cover bench smoke serve lines

all: check

build:
	$(GO) build ./...

# fmt-check fails (listing the files) if any file needs gofmt.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "files need gofmt:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# api-check runs importRules in topk/boundary_test.go, the one place the
# import-boundary rules are written down.
api-check:
	$(GO) test -count=1 -run '^TestImportBoundaries$$' ./topk

test:
	$(GO) test ./...

# race runs the whole module under the race detector (short mode bounds the
# heavy property suites). Short mode keeps, on every link of the
# byte-identity chain, the first fault-free and the first fault-armed row of
# each algorithm in internal/chaintest's table, so the detector sees all
# seven algorithms (Dense, Exact and HalfEps among them) served, recovered
# and on both engines. The live engine runs small calls on the caller,
# so the suites' /workers entries (every call through the goroutines) and
# TestMixedDispatch are what put the shard hand-off under the detector;
# none of them is skipped by -short. -short does skip
# TestLockstepEquivalenceLargeN, the one n = 10⁴ check of that hand-off
# (each large call is one barrier), so the second line runs it alone
# (a few seconds under -race).
race:
	$(GO) test -race -short ./...
	$(GO) test -race -run '^TestLockstepEquivalenceLargeN$$' ./internal/live

# fuzz gives each of the nine seeded fuzz targets a short randomized
# session — the interval algebra, the integer coin threshold's equality
# with the float coin it replaces, the sweep sampler's sender ranks
# (strictly ascending below the matcher count, every rank without a draw
# in the final round, no allocation), the Pred.Bounds value-routing contract,
# the violator set's no-desync obligation and the max-find active
# list's agreement with a replay of the per-node max-find handlers under
# fault injection (a raise left pending across the next op), the HTTP
# frontend's all-or-nothing batch-decode path and the batch decoder's
# equality with the encoding/json reference it replaced, the WAL decoder's
# torn-write obligations (no panic, exact canonical prefix, idempotent
# truncation) on arbitrary bytes, and the one streaming summary's
# invariants (Space-Saving's counters read as lower bounds: est <= true <=
# est + bound, Reset replay identity, its slots equal to a map-based
# Space-Saving's and every read to a map-based Misra-Gries's after every
# op) on arbitrary tapes of observes, reads and Resets.
fuzz:
	$(GO) test -fuzz FuzzIntervalContainment -fuzztime $(FUZZTIME) ./internal/filter/
	$(GO) test -fuzz FuzzThreshold -fuzztime $(FUZZTIME) ./internal/rngx/
	$(GO) test -fuzz FuzzSweepGaps -fuzztime $(FUZZTIME) ./internal/nodecore/
	$(GO) test -fuzz FuzzPredBounds -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz FuzzFilterMirror -fuzztime $(FUZZTIME) ./internal/lockstep/
	$(GO) test -fuzz FuzzActiveList -fuzztime $(FUZZTIME) ./internal/lockstep/
	$(GO) test -fuzz FuzzBatchDecode -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz FuzzWALDecode -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -fuzz FuzzSpaceSaving -fuzztime $(FUZZTIME) ./internal/sketch/

# cover prints per-package statement coverage for the engine-core packages
# the violation-routing test matrix concentrates on — the node core with
# its Shard (the one writer of node state), the index and its groups, both
# engines, and the fault layer — plus the paper's protocols that run on
# them (DENSE/SUB's case analysis is covered by its own script tests), the
# sketch leaf and the item layer that stands on it.
cover:
	$(GO) test -cover ./internal/nodecore/ ./internal/vindex/ ./internal/lockstep/ ./internal/live/ ./internal/faults/ ./internal/protocol/ ./internal/sketch/ ./topk/items/

check: build fmt-check vet api-check test

# bench runs every root micro-benchmark and prints plain `go test -bench`
# text, the format benchstat reads (`make bench > new.txt`). Each run is
# stamped with a "bench-env:" line (TestMain in benchenv_test.go): go
# version, GOOS/GOARCH, GOMAXPROCS, NumCPU and the live engine's default
# shard count. Several benchmarks carry their own checks, which run even at
# BENCHTIME=1x (CI's bench smoke): BenchmarkSparseStep's messages spent,
# BenchmarkEpochOpen's and BenchmarkItemsStep's zero allocations,
# BenchmarkSketchObserve's weighted, all-miss and items-zipf Space-Saving
# rows (the last is the items-zipf workload's 8 nodes' stream), whose
# every summary's Heavy must equal a reference Space-Saving's, read as
# lower bounds, after the timed loop,
# BenchmarkSweepSilent's one barrier round per silent sweep on live,
# BenchmarkLiveGrain's comparison of the live engine's parallel grain with
# both pure dispatches (own fixed-size timing; skipped on one CPU), and
# BenchmarkRulePaths (internal/nodecore, the second line), whose two ways of
# applying a filter rule must leave the same shard.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) .
	$(GO) test -run='^$$' -bench=BenchmarkRulePaths -benchmem -benchtime=$(BENCHTIME) ./internal/nodecore

# smoke is the end-to-end gate: all six workloads of the repository
# benchmark for one second each. A child topkd is driven over real sockets
# and compared with an embedded twin every pass; serve-durable kills it
# with SIGKILL and requires the restarted daemon to answer byte for byte
# what it answered before. Exit 1 on any failed check.
smoke:
	$(GO) run ./benchmark -seconds 1 -trace 0

# lines prints the Go lines added, removed and net since BASE (a commit),
# split into source and _test.go files, from git diff --numstat between
# BASE and the working tree, which counts a new file once it is staged
# (git add): `make lines BASE=<commit>`. CHANGES.md reports these counts.
lines:
	@test -n "$(BASE)" || { echo "usage: make lines BASE=<commit>"; exit 2; }
	@git diff --numstat $(BASE) -- '*.go' | awk ' \
		$$3 ~ /_test\.go$$/ { ta += $$1; tr += $$2; next } \
		{ sa += $$1; sr += $$2 } \
		END { printf "source +%d -%d (net %+d)\ntests  +%d -%d (net %+d)\n", sa, sr, sa - sr, ta, tr, ta - tr }'

# serve runs the multi-tenant HTTP frontend on $(SERVE_ADDR) with the
# stock per-server defaults (override via topkd flags, see cmd/topkd).
serve:
	$(GO) run ./cmd/topkd -addr $(SERVE_ADDR)
