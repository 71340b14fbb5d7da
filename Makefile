GO ?= go

.PHONY: all build test race bench fuzz fmt vet check serve cover-report benchdiff generate stream-bench

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

FUZZTIME ?= 20s
fuzz:
	$(GO) test ./internal/meta -run='^$$' -fuzz=FuzzMetaParse -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/meta -run='^$$' -fuzz=FuzzLexer -fuzztime=$(FUZZTIME)
	$(GO) test . -run='^$$' -fuzz=FuzzUnmarshalAnalysis -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/genrun -run='^$$' -fuzz=FuzzGeneratedParser -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/lexrt -run='^$$' -fuzz=FuzzLexerTables -fuzztime=$(FUZZTIME)

# Regenerate the checked-in generated parsers under examples/gen/ from
# the repo grammars (CI fails if this leaves a diff).
generate:
	$(GO) run ./cmd/llstar gen -o examples/gen \
		grammars/figure1.g grammars/figure2.g grammars/json.g
	$(GO) run ./cmd/llstar gen -o examples/gen -leftrec grammars/calc.g

SERVE_ADDR ?= 127.0.0.1:8080
serve:
	$(GO) run ./cmd/llstar-serve -addr $(SERVE_ADDR) -grammars grammars

# One self-contained HTML coverage/hotspot report per benchmark grammar,
# from a synthetic corpus at the baseline seed/size.
COVER_DIR ?= profiles
cover-report:
	$(GO) run ./cmd/llstar-bench -cover-html $(COVER_DIR) -seed 1 -lines 300

# Rerun the benchmark workloads at the checked-in baseline's config and
# fail on counter drift (timings are compared only on matching hardware;
# see scripts/benchdiff).
benchdiff:
	scripts/benchdiff -no-timing BENCH_10.json

# Streaming sessions: per-grammar streamed throughput and window peaks,
# the ~100MB bounded-memory demonstration, and the incremental
# edit-latency benchmark (docs/streaming.md).
stream-bench:
	$(GO) run ./cmd/llstar-bench -stream -seed 1 -lines 300

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

check: build vet test
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
