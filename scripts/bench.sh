#!/usr/bin/env bash
# Runs the update-pipeline benchmark suite in a benchstat-friendly
# format (repeat runs via -count so benchstat can compute variance).
#
# Usage:
#   scripts/bench.sh [out-file] [count]
#
# Compare two runs (e.g. before and after a change) with:
#   benchstat before.txt after.txt
#
# The committed before/after numbers for the batched update pipeline
# live in BENCH_PR3.json; the degraded-mode (breaker/deadline) healthy
# overhead numbers live in BENCH_PR4.json; the versioned read path
# (memoized on-demand) numbers live in BENCH_PR5.json; the incremental
# delta-propagation numbers live in BENCH_PR6.json; the adaptive-
# maintenance (live migration) numbers live in BENCH_PR7.json; the
# watch-hub fan-out numbers live in BENCH_PR8.json; the durable-restart
# (checkpoint + WAL recovery) numbers live in BENCH_PR9.json; the mux
# watch transport (one connection, batched frames) numbers live in
# BENCH_PR10.json. The dependency-graph microbenchmarks (cold
# inclusion, fan-out release, plan-miss propagation, slot-table lookup,
# Define on an interned and on a new shape, Migrate, AppendSlots) sit beside the code in
# internal/core/graph_bench_test.go and run from here too, as do the
# durability ones (checkpoint, recovery, decode, batch restore of a
# 100k-item plane) in internal/persist/persist_bench_test.go.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-bench.txt}"
count="${2:-4}"

benches='BenchmarkValueReadParallel|BenchmarkTriggerPropagation|BenchmarkSubscribeChurnParallel|BenchmarkE4FreshnessOverhead|BenchmarkE5TriggeredVsPeriodic|BenchmarkE9WorkerPool|BenchmarkE19BatchedTicks|BenchmarkHealthyOverhead|BenchmarkE20MemoizedReads|BenchmarkE21DeltaPropagation|BenchmarkE22AdaptiveMaintenance|BenchmarkE23WatchFanout|BenchmarkE23PublishHotPath|BenchmarkE24Recovery|BenchmarkIncludeCold41|BenchmarkReleaseFanout10k|BenchmarkPropagateSeeds|BenchmarkSlotLookup|BenchmarkDefine|BenchmarkMigrate|BenchmarkAppendSlots|BenchmarkCheckpoint100k|BenchmarkOpenRecover100k|BenchmarkDecodeCheckpoint|BenchmarkRestoreStaleBatch'

go test -run '^$' -bench "^(${benches})$" -benchmem -count "${count}" . ./internal/core ./internal/persist | tee "${out}"
