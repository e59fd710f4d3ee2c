# Developer entry points; CI runs the same steps (.github/workflows/ci.yml).

GO ?= go

.PHONY: build test race bench bench-serve bench-admit crash-smoke serve fmt vet check clean integration experiments-smoke perfbench-test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Engine + GN2 analysis benchmarks, results archived under bench-results/
# (uploaded as a CI workflow artifact — the BENCH_*.json trajectory for
# future perf PRs). BENCH_core.json tracks the numeric-layer kernels:
# the production fast path next to its frozen big.Rat reference build
# (internal/core/bigref) plus the internal/rat and internal/interval
# micro-benchmarks, so the speedup and allocation reduction are
# re-measured on every archive. Each kernel has one comparison path:
# GN2 and DP always run the interval screen (the *Screened rows), GN1
# never does (BenchmarkGN1). The *Figure3Mix rows run the three
# kernels on the analyze-cold set mix (Figure-3 profiles, N 10–50),
# 640 sets each: ten passes over the fixed 64-set corpus.
# BENCH_codec.json tracks the task-set wire codec at N = 10/25/50 on
# Figure-3 sets: the client's request encode (json.Marshal), the
# server's strict request decode, and the exact UtilizationS sum.
# `make bench-all` runs every benchmark in the repo.
bench:
	mkdir -p bench-results
	$(GO) test -bench 'BenchmarkAnalyze' -benchtime 100x -run XXX ./internal/engine/ | tee bench-results/BENCH_engine.txt
	$(GO) test -bench 'BenchmarkTable|BenchmarkAnalysisScaling|BenchmarkCompositeVsSingle' -benchtime 100x -run XXX . | tee bench-results/BENCH_gn2.txt
	$(GO) test -bench 'BenchmarkGN2Sweep|BenchmarkGN2xSweep|BenchmarkGN1(Ref)?$$|BenchmarkDP(Screened|Ref)$$' -benchtime 10x -run XXX ./internal/core/ | tee bench-results/BENCH_core.txt
	$(GO) test -bench 'Figure3Mix' -benchtime 640x -run XXX ./internal/core/ | tee -a bench-results/BENCH_core.txt
	$(GO) test -bench 'BenchmarkRat' -run XXX ./internal/rat/ | tee -a bench-results/BENCH_core.txt
	$(GO) test -bench 'BenchmarkInterval' -run XXX ./internal/interval/ | tee -a bench-results/BENCH_core.txt
	$(GO) run ./cmd/benchjson -in bench-results/BENCH_engine.txt -out bench-results/BENCH_engine.json
	$(GO) run ./cmd/benchjson -in bench-results/BENCH_gn2.txt -out bench-results/BENCH_gn2.json
	$(GO) run ./cmd/benchjson -in bench-results/BENCH_core.txt -out bench-results/BENCH_core.json
	$(GO) test -bench 'BenchmarkSetMarshal|BenchmarkSetUnmarshal|BenchmarkUtilizationS' -benchtime 2000x -run XXX ./internal/task/ | tee bench-results/BENCH_codec.txt
	$(GO) run ./cmd/benchjson -in bench-results/BENCH_codec.txt -out bench-results/BENCH_codec.json

bench-all:
	$(GO) test -bench . -benchtime 100x -run XXX ./...

# Serving-path load benchmark: cmd/loadgen replays a deterministic mixed
# analyze/admit/stream workload against a 1-node and a 2-node in-process
# fleet (HTTP + routing + cache sharding, not just the engine), and the
# throughput + p50/p95/p99 numbers join the BENCH_*.json trajectory.
# The wal=* runs replay the same admit-heavy stream with the durable
# store off, fsync-per-append and interval-flushed, so the WAL's cost on
# admission p99 is re-measured (and the always-vs-interval comparison
# reproducible) on every archive.
bench-serve:
	mkdir -p bench-results
	$(GO) run ./cmd/loadgen -inprocess 1 -requests 400 -seed 1 -label fleet=1 | tee bench-results/BENCH_serve.txt
	$(GO) run ./cmd/loadgen -inprocess 2 -requests 400 -seed 1 -label fleet=2 | tee -a bench-results/BENCH_serve.txt
	$(GO) run ./cmd/loadgen -inprocess 1 -requests 400 -seed 1 -mix admit-heavy -label wal=off | tee -a bench-results/BENCH_serve.txt
	waldir=$$(mktemp -d) && \
	$(GO) run ./cmd/loadgen -inprocess 1 -requests 400 -seed 1 -mix admit-heavy -state-dir $$waldir/always -fsync always -label wal=always | tee -a bench-results/BENCH_serve.txt && \
	$(GO) run ./cmd/loadgen -inprocess 1 -requests 400 -seed 1 -mix admit-heavy -state-dir $$waldir/interval -fsync interval -label wal=interval | tee -a bench-results/BENCH_serve.txt && \
	rm -rf $$waldir
	$(GO) run ./cmd/benchjson -in bench-results/BENCH_serve.txt -out bench-results/BENCH_serve.json

# Admission-path benchmark: one warm admit+release round trip against a
# GN2 controller, incremental (persistent sweep state) vs scratch (full
# re-analysis, the pre-incremental behavior), on paper-sized (10-task
# Figure-3b profile) and 100/200-task resident sets, with and without a
# durable-store append per mutation. The from-scratch serving baseline
# is the wal=* admit-heavy series in BENCH_serve.json.
bench-admit:
	mkdir -p bench-results
	$(GO) test -bench 'BenchmarkAdmitRelease' -benchtime 200x -run XXX ./internal/admission/ | tee bench-results/BENCH_admit.txt
	$(GO) run ./cmd/benchjson -in bench-results/BENCH_admit.txt -out bench-results/BENCH_admit.json

crash-smoke: ## live-daemon kill -9 + WAL replay smoke, archives BENCH_recovery.json
	bash scripts/crash_recovery_smoke.sh

serve: ## run the analysis daemon on :8080
	$(GO) run ./cmd/fpgaschedd -addr :8080

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# The benchmark module (perfbench/, its own go.mod) is outside the root
# module, so `go test ./...` never builds it; vet and test it here.
perfbench-test:
	cd perfbench && $(GO) vet . && $(GO) test .

integration: ## api golden-file wire tests + client<->server end-to-end
	$(GO) test ./api/ ./client/ -count=1
	$(GO) build ./examples/...

experiments-smoke: ## quick local evaluation pass + local/remote parity
	$(GO) run ./cmd/experiments -samples 10 fig3b
	$(GO) test ./cmd/experiments/ -run TestRemoteParity -count=1

check: vet build race integration perfbench-test
	@test -z "$$(gofmt -l .)" || { echo "gofmt needed on:"; gofmt -l .; exit 1; }
	$(GO) test ./internal/server/ -run TestWarmSpeedup -count=1

clean:
	$(GO) clean ./...
