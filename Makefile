GO ?= go

.PHONY: build test race vet lint lint-fix-check fuzz bench bench-compare chaos check clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The repo's own invariant checkers (sddlint -list prints the catalog);
# see DESIGN.md §8 and §13.
lint:
	$(GO) run ./cmd/sddlint ./...

# Convergence proof for `sddlint -fix`: apply every suggested fix to a
# scratch copy of the module and fail if any file changes — on a clean
# tree, -fix must be a byte-for-byte no-op. This is what keeps suggested
# fixes trustworthy enough to auto-apply.
lint-fix-check:
	@rm -rf .lintfix-scratch
	@mkdir .lintfix-scratch
	@tar --exclude=.git --exclude=.lintfix-scratch -cf - . | tar -xf - -C .lintfix-scratch
	cd .lintfix-scratch && $(GO) run ./cmd/sddlint -fix ./...
	@if ! diff -r --exclude=.git --exclude=.lintfix-scratch -q . .lintfix-scratch > /dev/null; then \
		echo "lint-fix-check: sddlint -fix modified a clean tree:"; \
		diff -r --exclude=.git --exclude=.lintfix-scratch . .lintfix-scratch; \
		rm -rf .lintfix-scratch; \
		exit 1; \
	fi
	@rm -rf .lintfix-scratch
	@echo "lint-fix-check: -fix is a no-op on a clean tree"

race:
	$(GO) test -race ./...

# Short fuzz passes over the .bench parser, the trace readers (JSONL
# events, traceparent headers, sddstat's analysis) and the two artifact
# decoders (core.ReadCompiled, dictio.Decode through a harness that
# recomputes the section CRCs); CI-friendly budget. The trace and
# artifact seeds are real files of a few KB, so minimizing a new input
# is capped to keep the budget on fuzzing.
FUZZ_TRACE = -fuzztime=10s -fuzzminimizetime=1s

fuzz:
	$(GO) test -run=FuzzParse -fuzz=FuzzParse -fuzztime=30s ./internal/bench/
	$(GO) test -run='^FuzzReadEvents$$' -fuzz='^FuzzReadEvents$$' $(FUZZ_TRACE) ./internal/obs/
	$(GO) test -run='^FuzzParseTraceparent$$' -fuzz='^FuzzParseTraceparent$$' $(FUZZ_TRACE) ./internal/obs/
	$(GO) test -run='^FuzzReadRun$$' -fuzz='^FuzzReadRun$$' $(FUZZ_TRACE) ./internal/obs/analyze/
	$(GO) test -run='^FuzzReadCompiled$$' -fuzz='^FuzzReadCompiled$$' $(FUZZ_TRACE) ./internal/core/
	$(GO) test -run='^FuzzDecode$$' -fuzz='^FuzzDecode$$' $(FUZZ_TRACE) ./internal/dictio/

# Parallel-layer benchmarks (restart search, fault-sim sharding, sweep
# rows) at workers=1 vs N plus the partition scan/refine microbenchmarks
# (DESIGN.md §14), archived as machine-readable JSON; the format and the
# speedup caveats are documented in EXPERIMENTS.md. The raw log is kept
# in a temp file so a failed bench run fails the target instead of
# feeding benchjson an empty pipe.
BENCH_RE = ^Benchmark(Parallel|DistPerClass|Refine)
BENCH_PKGS = . ./internal/core/

bench:
	$(GO) test -run='^$$' -bench='$(BENCH_RE)' -count=1 -timeout=30m $(BENCH_PKGS) > bench_parallel.out
	$(GO) run ./cmd/benchjson -o BENCH_parallel.json bench_parallel.out
	@rm -f bench_parallel.out
	@echo "wrote BENCH_parallel.json"

# Continuous bench regression gate: one quick iteration of the
# parallel-layer benchmarks, diffed against the checked-in baseline.
# ns/op is a generous smoke gate (8x — the baseline was recorded on
# different hardware and -benchtime=1x timings are noisy); the
# deterministic custom metrics (cand_evals, ind_sd, restarts, ...) must
# match the baseline exactly, which catches algorithmic drift on any
# machine. -short drops the big circuits; their baseline rows report as
# informational "missing" lines. The partition microbenchmarks take a few
# microseconds per op, so a single cold iteration measures cache misses
# rather than the scan: they run a fixed MICRO_ITERS iterations instead.
MICRO_RE = ^Benchmark(DistPerClass|Refine)
MICRO_ITERS = 2000

bench-compare:
	$(GO) test -run='^$$' -bench='^BenchmarkParallel' -benchtime=1x -count=1 -short -timeout=10m . > bench_compare.out
	$(GO) test -run='^$$' -bench='$(MICRO_RE)' -benchtime=$(MICRO_ITERS)x -count=1 -timeout=10m ./internal/core/ >> bench_compare.out
	$(GO) run ./cmd/benchjson -o bench_compare.json bench_compare.out
	$(GO) run ./cmd/benchjson compare -ns-ratio 8 BENCH_parallel.json bench_compare.json
	@rm -f bench_compare.out bench_compare.json

# Fault-injection and chaos suite (DESIGN.md §12, §15, §16) under the
# race detector: artifact corruption matrices, the faultfs seam, the
# serve middleware contracts (spans, request IDs, shed/drain), the span
# free-list and sampling determinism tests in internal/obs, the
# case-store journal/torn-tail matrix, the signal/drain exec tests, and
# the end-to-end server-integration legs (publish → serve → diagnose
# parity; shed + SIGTERM under sddload chaos; recall byte-identity and
# SIGKILL + torn-journal restart under repeated-signature -hot sddload
# traffic; the traced-serve → sddload → `sddstat serve` join).
chaos:
	$(GO) test -race -count=1 ./internal/dictio/ ./internal/faultfs/ ./internal/obs/ ./internal/serve/ ./internal/cli/ ./internal/casestore/
	$(GO) test -race -count=1 -run 'TestServe' .

# The gate for every change: static analysis (go vet + sddlint) plus the
# full suite under the race detector.
check: vet lint race

clean:
	$(GO) clean ./...
