GO ?= go

.PHONY: build vet fmt lint lintguard test race perfbench microbench benchguard fuzz check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails (listing the offending files) when any tracked Go file is not
# gofmt-clean; it never rewrites.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$out"; \
		exit 1; \
	fi

# lint runs the project's own static analyzer (cmd/optimus-lint): wallclock,
# globalrand, maprange, lockedescape, panicpath, lockorder, goroutinejoin,
# unlockpath, timeprop. Exit is non-zero on any finding, including unused
# //optimus:allow directives. The binary prints a whole-repo wall-time note
# to stderr (packages checked/loaded + elapsed); the memoized source
# importer keeps stdlib type-checking a one-time cost per run.
lint:
	$(GO) run ./cmd/optimus-lint ./...

# lintguard is the machine gate for make check / CI: the same whole-repo
# run with the JSON reporter, archived as optimus-lint.json. Any
# un-suppressed finding fails the gate and the report names it.
lintguard:
	@$(GO) run ./cmd/optimus-lint -json ./... > optimus-lint.json || { \
		echo "lintguard: findings (see optimus-lint.json):"; \
		cat optimus-lint.json; \
		exit 1; \
	}

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# microbench runs the Go testing.B microbenchmarks of the root package.
microbench:
	$(GO) test -bench=. -benchmem .

# benchguard is the full-scale gate, checked on a fresh run: the 1M-request
# scale benchmark and the 10M-request streaming replay against their bars
# (indexed not slower than scan, the equivalence proofs, windowed
# partitioning, streaming allocs/req and peak-heap ratio, the 256 MB
# ceiling), then the planner's parallel-vs-serial precompute test with the
# precompute -bench smoke. The soak, recovery, fan-out and gateway bars run
# at full scale in the ordinary test suite.
benchguard:
	$(GO) test -run '^TestFullScale$$' -v ./internal/experiments -full-scale
	$(GO) test -run '^TestParallelPrecomputeMatchesSerial$$' -bench 'BenchmarkPrecompute' -benchtime=1x ./internal/planner

# fuzz runs a short native-fuzzing smoke over the plan executor, the
# lint-directive parser, the call-graph builder, the Azure-trace CSV
# reader, and the trace CSV reader.
fuzz:
	$(GO) test -fuzz='^FuzzPlanApply$$' -fuzztime=10s -run '^$$' ./internal/planner
	$(GO) test -fuzz='^FuzzDirectiveParse$$' -fuzztime=10s -run '^$$' ./internal/analysis
	$(GO) test -fuzz='^FuzzCallGraph$$' -fuzztime=10s -run '^$$' ./internal/analysis
	$(GO) test -fuzz='^FuzzAzureCSV$$' -fuzztime=10s -run '^$$' ./internal/workload
	$(GO) test -fuzz='^FuzzReadCSV$$' -fuzztime=10s -run '^$$' ./internal/workload

# perfbench runs the tests of the benchmark runner, a module of its own
# under perfbench/.
perfbench:
	cd perfbench && $(GO) test ./...

# check is the pre-merge gate: formatting, static analysis (go vet plus the
# project linter with its JSON gate), a full build, the test suite under the
# race detector (the gateway stress test needs it), the benchmark runner's
# tests, and the full-scale guard.
check: fmt vet lintguard build race perfbench benchguard
