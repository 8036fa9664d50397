#!/usr/bin/env bash
# Build the micro benches (Release) and refresh the kernel/train-step
# baseline at the repo root:
#   BENCH_micro.json — SpMM vs dense Chebyshev, SIMD layer, DTW graph
#     construction, train-step configs (bench_micro; see DESIGN.md §9)
# End-to-end serving and training numbers come from perfbench
# (perfbench/README.md), not from this script.
#
# Usage: tools/run_bench.sh [extra bench_micro flags]
# The registered google-benchmark suites of bench_micro are skipped by
# default (pass --benchmark_filter=... to include some).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

build_dir=build-bench
cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${build_dir}" -j --target bench_micro

"${build_dir}/bench/bench_micro" \
  --benchmark_filter='^$' \
  --json="${repo_root}/BENCH_micro.json" \
  "$@"
