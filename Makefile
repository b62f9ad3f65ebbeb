# Developer entry points. `make verify` is the full pre-merge gate: the
# campaign engine is concurrent, so the race detector is part of the
# baseline, not an optional extra.

GO ?= go

.PHONY: build test race fuzz lint chaos serve-chaos bench-regress bench-baseline fastvm verdict onchain adaptive profile loc verify

build:
	$(GO) build ./...

# Repo-specific lint gate: go vet, go vet of the benchmark module (perfbench
# is its own module, so `./...` never compiles it, yet it imports the
# packages above), wasai-lint (nondeterminism sources in the deterministic
# core packages, scanner/static oracle parity, error classification,
# ad-hoc caches outside internal/memo), and gofmt over the tracked Go files
# (git ls-files, so the gitignored .bench_build/ is not walked), failing
# when it lists any file.
lint:
	$(GO) vet ./...
	$(GO) -C perfbench vet ./...
	$(GO) run ./cmd/wasai-lint
	@files=$$(git ls-files '*.go') && out=$$(gofmt -l $$files) && \
		if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short smoke runs of every native fuzz target, discovered with
# `go test -list 'Fuzz.*'` so new targets join automatically. Seed corpora
# live under */testdata/fuzz and always run as part of `test`.
FUZZTIME ?= 15s
fuzz:
	@set -e; for pkg in $$($(GO) list ./...); do \
		for t in $$($(GO) test -list 'Fuzz.*' $$pkg | grep '^Fuzz' || true); do \
			echo "=== $$t ($$pkg) ==="; \
			$(GO) test -run=NONE -fuzz="^$$t$$$$" -fuzztime=$(FUZZTIME) $$pkg; \
		done; \
	done

# Resilience smoke: run a small campaign with 20% injected faults and
# retry-with-degradation, and require zero terminal failures plus unchanged
# verdicts on the un-faulted jobs (exit status is the assertion).
chaos:
	$(GO) run ./cmd/wasai-bench -exp chaos -fault-rate 0.2

# Daemon resilience smoke: flood an in-process wasai-serve past its admission
# limits with multi-tenant fault-injected campaigns; excess submissions must
# shed with 429 + Retry-After, every tenant must get work admitted, and every
# admitted job's findings digest must equal an offline run of the same spec
# (exit status is the assertion).
serve-chaos:
	$(GO) run ./cmd/wasai-bench -exp servechaos -fault-rate 0.2

# Benchmark-regression gate: re-run the fixed two-leg workload, write
# BENCH_<date>.json, and compare against the committed BENCH_BASELINE.json —
# a digest change fails as a correctness regression, >10% more DPLL calls or
# wall-clock as a performance regression. After an intentional behaviour or
# performance change, regenerate the baseline with `make bench-baseline` and
# commit it.
bench-regress:
	$(GO) run ./cmd/wasai-bench -exp regress

bench-baseline:
	$(GO) run ./cmd/wasai-bench -exp regress -write-baseline

# Decoded-IR engine gate: the direct-threaded engine the chain runs must
# retire ≥2x the instructions/sec of the reference tree-walker on the hot
# workload, with the same result and fuel (exit status is the assertion).
# Campaign-level equivalence is pinned by the golden digests of
# `go test ./internal/campaign -run 'TestFastVM|TestIncremental'`.
fastvm:
	$(GO) run ./cmd/wasai-bench -exp fastvm

# Verdict-engine gate, the gate of the campaign's only pre-execution
# triage: zero soundness violations in both directions against a dynamic
# campaign, every dynamic finding carrying its static candidate flag and
# every static negative proven negative by absint, ≥30% of the wild
# (contract, class) verdict matrix decided statically, at least the 4
# trivial contracts skipped at every worker count, and byte-identical
# findings digests with verdicts off and on at 1/4/8 workers (exit status
# is the assertion).
verdict:
	$(GO) run ./cmd/wasai-bench -exp verdict

# On-chain-data oracle gate: every injected-vulnerability fixture (both
# polarities of all oracle classes, plus intrinsic-free boilerplate)
# through full campaigns — perfect per-class precision/recall against the
# generator's ground truth, and byte-identical findings digests at 1/4/8
# workers (exit status is the assertion).
onchain:
	$(GO) run ./cmd/wasai-bench -exp onchain

# Adaptive-scheduling gate: under equal per-contract budgets the power
# schedule + fuel ledger must explore at least as many branches and score at
# least as many ground-truth findings as the static round-robin on every
# corpus (strictly more coverage somewhere), with byte-identical adaptive
# digests at 1/4/8 workers and across a journal kill+resume (exit status is
# the assertion).
adaptive:
	$(GO) run ./cmd/wasai-bench -exp adaptive

# Write pprof profiles of one wasai-bench experiment:
# `go tool pprof cpu.pprof` / `go tool pprof mem.pprof`. The default regress
# workload is solver-heavy at 2% scale; profile the default-config wild path
# the way perfbench's `wild` workload runs it (1 worker, GC percent 400)
# with `GOGC=400 make profile EXP=rq4 ARGS='-scale 1 -workers 1'`. At the
# default GOGC and one worker per CPU, GC takes about 2.6 times its
# perfbench share of the samples.
EXP ?= regress
ARGS ?=
profile:
	$(GO) run ./cmd/wasai-bench -exp $(EXP) $(ARGS) -cpuprofile cpu.pprof -memprofile mem.pprof

# Tracked non-test Go lines outside the benchmark module: the one command
# behind every "net non-test Go" figure (it needs a git checkout).
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^perfbench/' | xargs cat | wc -l

# The perfbench smoke test (its own module, so `./...` never runs it) runs
# every benchmark workload on two seeds, untraced and traced, so a change
# to an API the benchmark uses cannot break its runs unnoticed.
verify: build lint chaos serve-chaos bench-regress fastvm verdict onchain adaptive
	$(GO) test ./...
	$(GO) -C perfbench test ./...
	$(GO) test -race ./...
