# FT-Cache build/test/lint entry points. Everything here is plain go
# tool invocations — the Makefile exists so `make verify` is the one
# command a contributor (or CI) needs to know.

GOBIN := $(shell go env GOPATH)/bin

.PHONY: build test race lint vet ftclint static verify bench bench-compare bench-ab adaptft clean

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# ftclint builds the analyzer driver into GOPATH/bin.
ftclint:
	go install ./cmd/ftclint

vet:
	go vet ./...

# lint = go vet plus the repo's own analyzer suite, run through the
# vet-tool protocol so findings carry package context and caching.
lint: ftclint vet
	go vet -vettool=$(GOBIN)/ftclint ./...

# static is the full static gate, exactly what CI's static job
# enforces: gofmt (no unformatted files), go vet, then the ftclint
# suite through the standalone driver — packages in dependency order,
# cross-package facts, cycles and context/goroutine lifetimes included.
# Set FTCLINT_CACHE=<dir> to reuse per-package results across runs.
static: ftclint
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "$$unformatted"; echo "gofmt: the files above need formatting"; exit 1; fi
	go vet ./...
	$(GOBIN)/ftclint ./...

# verify is the full local gate: what CI enforces, in one command.
verify: build lint test

# bench runs the repo's one benchmark suite (BENCHMARK.json, bench/):
# four workloads on live clusters plus the per-layer ledger, written to
# bench/results/BENCH_local.json. Pass suite flags through ARGS, e.g.
# `make bench ARGS="-label 12 -runs 3"`.
bench:
	bash bench/run.sh $(ARGS)

# bench-compare prints the per-workload verdict between two suite
# results and fails on a regression past a BENCHMARK.json bound:
# `make bench-compare OLD=bench/results/BENCH_11.json NEW=bench/results/BENCH_local.json`.
bench-compare:
	go run ./bench -compare $(OLD) $(NEW)

# bench-ab is the interleaved A/B a performance change is judged by: a
# parent revision against the working tree on one workload, alternating
# which side runs first, with median [q1, q3] and wins per end-to-end
# metric (scripts/ab.sh):
# `make bench-ab PARENT=HEAD~1 WORKLOAD=epoch_uniform PAIRS=10 SEED=1 ARGS="-seconds 6"`.
bench-ab:
	PAIRS=$(PAIRS) SEED=$(SEED) bash scripts/ab.sh $(PARENT) $(WORKLOAD) $(ARGS)

# adaptft regenerates the adaptive-vs-static policy comparison
# (results/BENCH_adaptft.json): 2 phase-shift schedules x 3 seeds,
# adaptive must beat every static policy on each block.
adaptft:
	go run ./cmd/ftcbench -adaptft

clean:
	go clean ./...
	rm -f $(GOBIN)/ftclint
