#!/usr/bin/env bash
# Build the benchmark from source and run it. From the repository root or
# anywhere else:
#
#   benchmark/run.sh                          all four workloads, one process each;
#                                             writes benchmark/results/latest.json
#   benchmark/run.sh --trace                  the same, traced: per-layer metrics
#   benchmark/run.sh --label L --seed N       name the result, choose the seed
#   benchmark/run.sh --smoke                  tiny and quick; numbers not comparable
#   benchmark/run.sh compare A.json B.json    judge B against A by the bounds
#   benchmark/run.sh --check-counts           counts that must repeat exactly
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                             one workload (what BENCHMARK.json runs)
#
# Exits non-zero when the build fails, an operation fails (error_share > 0),
# a metric regressed (compare) or a count did not repeat (--check-counts).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-target}"
# the build's chatter goes to stderr, so stdout carries only the results
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
# One core, the last: the box's few cores are shared with other tenants and
# with whoever runs this script, and a benchmark that spreads over all of
# them measures how the scheduler places its threads. On one core every
# thread, and the reference work every timing is set against (src/pace.rs),
# meet the same weather. Where the affinity cannot be set, run unpinned.
last_cpu=$(($(nproc) - 1))
if taskset -c "$last_cpu" true 2>/dev/null; then
    exec taskset -c "$last_cpu" "$target/release/vo-benchmark" "$@"
fi
exec "$target/release/vo-benchmark" "$@"
