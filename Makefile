GO ?= go

.PHONY: check fmt changelog race race-replicas race-exec exec-smoke schedd-smoke loadgen-smoke market-smoke bench benchsmoke benchsmoke-large exec-bench-smoke guard e2e e2e-trace e2e-smoke ab test build vet audit fuzz-smoke

## check: gofmt, the append-only changelog, vet, build, and test
## everything (the tier-1 gate)
check: fmt changelog vet build test

## fmt: fail, listing the offenders, if any Go file is not gofmt-clean
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

## changelog: fail if a line of CHANGES.md at the merge base with
## origin/main is deleted or edited (a FOUND: line may become
## MENDED (…); scripts/changelog_check.sh)
changelog:
	bash scripts/changelog_check.sh

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: race-detector pass over the simulation and learning packages
## (sim's TestPoolConcurrentRebind rebinds pooled engines across
## goroutines), the baseline schedulers (which keep per-run scratch),
## the market model, the service, and the provenance store and
## estimator (whose TestConcurrentAdds and TestConcurrentObserve exist
## to be raced)
race:
	$(GO) test -race ./internal/core/... ./internal/sim/... ./internal/sched/... ./internal/market/... ./internal/expt/... ./internal/telemetry/... ./internal/invariant/... ./internal/api/... ./internal/schedd/... ./internal/provenance/... ./internal/estimate/...

## race-replicas: race-detector pass over replica-parallel learning
## (concurrent learners sharing a fan-out telemetry sink)
race-replicas:
	$(GO) test -race -run Replica -count=1 ./internal/core/...

## race-exec: race-detector soak over the execution-stage runtime —
## TCP loopback masters with worker connections killed mid-run
race-exec:
	$(GO) test -race -count=1 ./internal/exec/...

## exec-smoke: end-to-end loopback smoke with real processes: a
## reassign master on 127.0.0.1 joined by two execworker processes,
## plus an in-process run under injected worker deaths
exec-smoke:
	mkdir -p bin
	$(GO) build -o bin/reassign ./cmd/reassign
	$(GO) build -o bin/execworker ./cmd/execworker
	bash scripts/exec_smoke.sh ./bin

## schedd-smoke: end-to-end smoke of the scheduler service: start a
## schedd daemon, drive 50 concurrent jobs through it with schedload,
## assert non-zero throughput + warm Q-table cache + clean shutdown
schedd-smoke:
	mkdir -p bin
	$(GO) build -o bin/schedd ./cmd/schedd
	$(GO) build -o bin/schedload ./cmd/schedload
	bash scripts/schedd_smoke.sh ./bin

## loadgen-smoke: end-to-end smoke of open-system mode: generate a
## short seeded multi-tenant trace (bit-identical across two runs),
## replay it against a race-detector-built schedd with tenant +
## deadline hints, assert the per-tenant report, labeled /metrics
## series, and a clean SIGTERM drain
loadgen-smoke:
	mkdir -p bin
	$(GO) build -race -o bin/schedd ./cmd/schedd
	$(GO) build -o bin/schedload ./cmd/schedload
	bash scripts/loadgen_smoke.sh ./bin

## market-smoke: end-to-end smoke of the spot-market subsystem:
## generate a hostile trace (bit-identical across two runs), check
## that -market without -execute is refused, then replay the trace
## through the exec master under both market policies, asserting
## notice-reactive pays no more than reactive-only
market-smoke:
	mkdir -p bin
	$(GO) build -o bin/reassign ./cmd/reassign
	bash scripts/market_smoke.sh ./bin

## bench: run the governed benchmark suite (internal/benchsuite, the
## plan-replay tier included) and record BENCH_core.json
bench:
	$(GO) run ./cmd/benchjson -o BENCH_core.json

## benchsmoke: one-iteration pass over the replica ladder, keeping the
## parallel learning path exercised in CI without benchmark noise
benchsmoke:
	$(GO) test -run '^$$' -bench BenchmarkLearningReplicas -benchtime 1x .

## benchsmoke-large: one-iteration pass over the large-DAG tier (1000-
## and 10k-activation workflows on 256-/1024-vCPU fleets), keeping the
## extreme-scale learning path exercised in CI
benchsmoke-large:
	$(GO) test -run '^$$' -bench BenchmarkLearningLarge -benchtime 1x .

## exec-bench-smoke: one-iteration pass over the exec throughput tier
## (InProc + loopback TCP at 64 and 256 workers), keeping the wire path
## exercised in CI without benchmark noise
exec-bench-smoke:
	$(GO) test -run '^$$' -bench BenchmarkExecThroughput -benchtime 1x .

## guard: fail if any governed benchmark's allocs/op regress >10% or
## bytes/op >15% vs the committed BENCH_core.json baseline
guard:
	$(GO) run ./cmd/benchguard -baseline BENCH_core.json -threshold 0.10 -bytes-threshold 0.15

## e2e: the repository's end-to-end benchmark (BENCHMARK.json; see
## bench/README.md): four closed-loop workloads against an in-process
## schedd and a loopback-TCP exec master, seven metrics each, with a
## correctness gate and a plan digest that must repeat (~2 min)
e2e:
	$(GO) run ./bench

## e2e-trace: the same workloads traced: per-layer metrics, and span
## files under bench/out/
e2e-trace:
	$(GO) run ./bench -trace

## e2e-smoke: the same four workloads at a twentieth of their size,
## twice (~5 s each): fails on the bench's correctness gate or if any
## workload's plan digest differs between the two runs
e2e-smoke:
	GO=$(GO) bash scripts/e2e_smoke.sh

## ab: alternating-pair A/B of the end-to-end benchmark between two
## revisions (scripts/ab.sh): median, quartiles and wins per metric,
## failing if the plan digests differ, e.g.
##   make ab A=07f53f6 B=HEAD AB_ARGS='-workload svc-cold-large -pairs 5'
A ?= HEAD~1
B ?= HEAD
ab:
	GO=$(GO) bash scripts/ab.sh $(A) $(B) $(AB_ARGS)

## audit: the correctness harness — invariant auditor sweeps,
## fresh-vs-reset differential grid, the simulator's determinism and
## engine-reuse checks (same seed ⇒ same run, fresh = Reset = Rebind,
## the idle-VM counter against a scan), and the exec master's
## differential checks (the per-turn oracle against the scans its
## bookkeeping replaced, and bit-identical repeats of plain, market and
## codec runs); -count=1 defeats the test cache
audit:
	$(GO) test -count=1 ./internal/invariant/...
	$(GO) test -count=1 -run 'Deterministic|Reset|Rebind|IdleCounter' ./internal/sim/...
	$(GO) test -count=1 -run 'TurnOracle|DeterminismBitIdentical|MarketExecDeterministic|CodecDeterminismOracle' ./internal/exec/

## fuzz-smoke: a short native-fuzzing pass over the DES kernel (its
## structural properties, and its pop order against a container/heap
## reference, same-instant follow-ups included), the shared event heap (against an indexed container/heap
## under set, move, cancel and reset), both workflow parsers, the Q table's band indexing
## (against a map reference), the Prometheus writer's label escaping
## schedd's submit handler (no panic, no 5xx, every 4xx a typed
## error), the service's JSON reader (a submission and a status against
## json.Unmarshal into method-less copies), its JSON writer (a status
## against json.Encoder.Encode), the exec wire codec, the
## market trace reader, the seeded rng source (against
## rand.NewSource, re-seeded mid-stream) and the learner's sign-first
## reward (against CrispReward over the full standard deviation), on
## top of replaying the checked-in corpus
fuzz-smoke:
	$(GO) test ./internal/des -fuzz '^FuzzKernel$$' -fuzztime 10s
	$(GO) test ./internal/des -fuzz '^FuzzKernelOrder$$' -fuzztime 10s
	$(GO) test ./internal/des -run '^$$' -fuzz '^FuzzHeap$$' -fuzztime 10s
	$(GO) test ./internal/rl -fuzz FuzzBandIndex -fuzztime 10s
	$(GO) test ./internal/dax -fuzz FuzzRead -fuzztime 10s
	$(GO) test ./internal/wfjson -fuzz FuzzRead -fuzztime 10s
	$(GO) test ./internal/metrics -fuzz FuzzPromLabel -fuzztime 10s
	$(GO) test ./internal/schedd -run '^$$' -fuzz '^FuzzSubmit$$' -fuzztime 10s
	$(GO) test ./internal/api -run '^$$' -fuzz '^FuzzDecodeSubmit$$' -fuzztime 10s
	$(GO) test ./internal/api -run '^$$' -fuzz '^FuzzDecodeStatus$$' -fuzztime 10s
	$(GO) test ./internal/api -run '^$$' -fuzz '^FuzzEncodeStatus$$' -fuzztime 10s
	$(GO) test ./internal/exec -run '^$$' -fuzz '^FuzzWireCodec$$' -fuzztime 10s
	$(GO) test ./internal/market -run '^$$' -fuzz '^FuzzMarketTrace$$' -fuzztime 10s
	$(GO) test ./internal/randsrc -run '^$$' -fuzz '^FuzzSource$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzSignFirstReward$$' -fuzztime 10s
