#!/usr/bin/env bash
# Build the test suite under ThreadSanitizer and run the parallel-backend
# and sparse-backend suites with a 4-thread pool. Catches data races in the
# ThreadPool, the threaded tensor kernels (dense and CSR SpMM), the tape's
# parallel backward loops, and the serving stack (EventLoop post/timer
# ordering, ForecastServer coalescing and the loop-owned snapshot swap under
# concurrent clients + a publishing retrainer — ServeSnapshot.SwapUnderLoad
# is the DESIGN.md §14 zero-pause-publish gate; the §15 fault-tolerance
# gates ride the same Serve* filter: ServeOverload.OverloadStorm* drives 4
# client threads against a slow, fault-injecting engine through bounded
# admission + deadlines + the circuit breaker, and
# ServeShutdown.RacyDrainNeverBreaksPromises races drain() against live
# clients — both must show zero races, zero broken promises, zero hangs).
# The §16 parallel-execution gates ride along too: ExecPool* exercises the
# worker pool's per-worker FIFO queues and drain-on-destruction, and
# ServePool.StormRacesWorkersBreakerPublishAndDrain races 3 pool workers
# against 4 clients, a poisoned publisher, the circuit breaker, and drain()
# with exact counter accounting.
# ParallelTrainer* and ParallelDeterminism* run the trainer's batch workers,
# which write disjoint slots of one shared per-item gradient-sink vector.
#
# Usage: tools/run_tsan.sh [extra gtest filter]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

build_dir=build-tsan
cmake -B "${build_dir}" -S . -DRIHGCN_SANITIZE=thread >/dev/null
cmake --build "${build_dir}" -j --target rihgcn_tests

filter="${1:-KernelConformance*:ThreadPool*:MatmulParallel*:ParallelDeterminism*:ParallelTrainer*:*ParallelBackendGrad*:CsrStructure*:CsrSpmm*:*SparseAndDenseTraining*:TapeArena*:FusedCell*:NumericalGuard*:TrainCheckpoint*:FaultInjection*:OnlineRobust*:OnlineMemo*:RobustPrimitives*:Engine*:EventLoop*:Serve*:ExecPool*}"

# tools/tsan.supp: exception_ptr refcounts live in uninstrumented
# libstdc++.so; see the file for why that one frame is a false positive.
TSAN_OPTIONS="halt_on_error=1 suppressions=${repo_root}/tools/tsan.supp" \
RIHGCN_THREADS=4 \
  "${build_dir}/tests/rihgcn_tests" --gtest_filter="${filter}"
