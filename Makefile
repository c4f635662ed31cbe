# Development targets. CI (.github/workflows/ci.yml) runs test, race and a
# fuzz smoke pass; `make fuzz FUZZTIME=5m` digs deeper locally.

GO       ?= go
FUZZTIME ?= 30s

FUZZ_TARGETS       := FuzzMineEquivalence FuzzClosedSetEquivalence FuzzMineLB
STORE_FUZZ_TARGETS := FuzzReadSnapshot

.PHONY: all build vet test race fuzz bench bench-json bench-compare bench-serve bench-serve-compare serve smoke smoke-cluster

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Each fuzz target runs for FUZZTIME; the committed corpora under
# internal/difftest/testdata/fuzz/ and internal/store/testdata/fuzz/
# replay in plain `make test` too.
fuzz:
	@for t in $(FUZZ_TARGETS); do \
		echo "--- fuzz $$t ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) ./internal/difftest || exit 1; \
	done
	@for t in $(STORE_FUZZ_TARGETS); do \
		echo "--- fuzz $$t ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) ./internal/store || exit 1; \
	done

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Run the mining service locally with the bundled mini datasets loaded.
SERVE_ADDR ?= :8077
serve:
	$(GO) run ./cmd/farmerd -addr $(SERVE_ADDR) -data testdata

# End-to-end service smoke: boots a real farmerd, mines FARMER and CHARM
# over HTTP, checks the streams against direct library calls, cancels a
# job mid-run and SIGTERMs the daemon. CI runs this with -race.
smoke:
	$(GO) test -count=1 -run TestFarmerdEndToEnd ./cmd/farmerd

# Machine-readable core benchmarks (ns/op, allocs/op, B/op for Prepare,
# SnapshotLoad, Mine, MineParallel and CHARM over the bench datasets,
# prepared Mine and exact top-20 on three paper-shape points (MinePaper,
# TopKPaper), plus the widened bitset kernels in isolation); CI archives
# the file.
BENCH_JSON_DATASETS ?= BC,LC,CT,PC,ALL
bench-json:
	$(GO) run ./cmd/benchjson -datasets $(BENCH_JSON_DATASETS) -o BENCH_core.json

# Re-measure and diff against the committed baseline; exits non-zero when
# ns/op or allocs/op grew past BENCH_THRESHOLD on any benchmark.
BENCH_THRESHOLD ?= 0.30
bench-compare:
	$(GO) run ./cmd/benchjson -datasets $(BENCH_JSON_DATASETS) -o /tmp/bench_new.json
	$(GO) run ./cmd/benchjson -compare -threshold $(BENCH_THRESHOLD) BENCH_core.json /tmp/bench_new.json

# Cold-vs-warm repeated-request throughput through the farmerd query path
# (one-round-trip POST /v1/query + NDJSON body): ServeCold mines every
# request, ServeWarm replays the primed result cache zero-copy. -cluster
# adds distributed rows: ClusterSingle (standalone service) vs Cluster2W
# (coordinator + two local cluster workers), same job, so the delta is the
# distribution overhead. CI archives the file.
BENCH_SERVE_DATASETS ?= BC,LC,CT,PC,ALL
bench-serve:
	$(GO) run ./cmd/benchjson -serve -cluster -datasets $(BENCH_SERVE_DATASETS) -o BENCH_serve.json

# Re-measure the request path and diff against the committed baseline;
# exits non-zero when allocs/op or bytes/op on a warm replay grew past
# BENCH_THRESHOLD (timing is reported but never gates locally).
bench-serve-compare:
	$(GO) run ./cmd/benchjson -serve -datasets $(BENCH_SERVE_DATASETS) -o /tmp/bench_serve_new.json
	$(GO) run ./cmd/benchjson -compare -metric allocs,bytes -match '^ServeWarm/' -threshold $(BENCH_THRESHOLD) BENCH_serve.json /tmp/bench_serve_new.json

# Anytime-tier quality harness: top-k recall/regret of best-first, leap
# and sample against the exhausted exact miner under node and wall-clock
# budgets, written as BENCH_quality.json. Fails unless best-first at the
# 10% budget keeps >= 0.9 mean recall (both budget dimensions locally; CI
# gates the deterministic node dimension and archives the file).
BENCH_QUALITY_DATASETS ?= BC,LC,CT,PC
BENCH_QUALITY_GATE ?= both
bench-quality:
	$(GO) run ./cmd/benchjson -quality -quality-gate $(BENCH_QUALITY_GATE) -datasets $(BENCH_QUALITY_DATASETS) -o BENCH_quality.json

# Cluster smoke: coordinator + two worker daemons as real processes over
# one shared store dir, FARMER and CHARM mined distributed and diffed
# byte-for-byte against a standalone daemon, one worker SIGKILLed mid-job.
smoke-cluster:
	$(GO) test -count=1 -run TestFarmerdClusterEndToEnd ./cmd/farmerd
