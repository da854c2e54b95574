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
# Recorded numbers are in EXPERIMENTS.md (per-PR sections). Every
# benchmark that guards a package sits beside it and runs from here: the
# item hot paths (the single-threaded read per mechanism and the shared
# read from many goroutines, trigger propagation, churn, healthy-mode
# overhead) in internal/core/guard_bench_test.go, the dependency-graph
# microbenchmarks (cold inclusion, fan-out release, plan-miss
# propagation, slot-table lookup, Define on an interned and on a new
# shape, Migrate, AppendSlots) in internal/core/graph_bench_test.go, the
# publish hot path with the hub attached in internal/watch/hub_test.go,
# the relay hop (apply into a mirrored point plus a local Session poll)
# in internal/watch/relay_test.go,
# and the durability ones (checkpoint, recovery and decode of a
# 100k-item plane, and a WAL append under each sync policy with the
# cost of removing the segment at rotation) in
# internal/persist/persist_bench_test.go. The
# paper's experiments are not timed here: TestExperimentIndex in
# internal/bench runs every figure mdbench prints, beside one claim
# test per experiment.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-bench.txt}"
count="${2:-4}"

benches='BenchmarkValueRead|BenchmarkValueReadParallel|BenchmarkTriggerPropagation|BenchmarkSubscribeChurnParallel|BenchmarkHealthyOverhead|BenchmarkE23PublishHotPath|BenchmarkRelayApply|BenchmarkIncludeCold41|BenchmarkReleaseFanout10k|BenchmarkPropagateSeeds|BenchmarkSlotLookup|BenchmarkDefine|BenchmarkMigrate|BenchmarkAppendSlots|BenchmarkCheckpoint100k|BenchmarkOpenRecover100k|BenchmarkDecodeCheckpoint|BenchmarkWALAppend'

go test -run '^$' -bench "^(${benches})$" -benchmem -count "${count}" ./internal/core ./internal/watch ./internal/persist | tee "${out}"
