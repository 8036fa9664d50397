// Fixed-size thread pool and deterministic data-parallel primitives for the
// tensor kernels (blocked matmul, elementwise ops, transpose) and the
// autodiff tape's backward loops.
//
// Determinism contract (DESIGN.md §8 "Parallel execution model")
//  * parallel_for partitions [begin, end) into chunks of `grain` elements.
//    Chunk boundaries depend only on (begin, end, grain) — never on the
//    thread count or on scheduling. Each chunk runs on exactly one thread.
//  * Kernel bodies write disjoint outputs and each output element is
//    produced entirely inside one chunk, so results are bit-for-bit
//    identical for every thread count, including fully serial execution.
//
// Sizing: the process-wide pool (ThreadPool::global()) reads the
// RIHGCN_THREADS environment variable once at first use; unset falls back to
// std::thread::hardware_concurrency(), while a set-but-invalid value throws
// (see threads_from_env). A pool of size N spawns N-1 workers — the thread
// that calls parallel_for participates.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rihgcn {

/// Work-stealing-free fixed-size thread pool. parallel_for is synchronous:
/// it returns when every chunk has run.
///
/// Thread safety: parallel_for may be called concurrently from several
/// non-pool threads (each call is an independent job; the trainer's
/// data-parallel workers rely on this). A parallel_for issued from inside a
/// running chunk executes inline and serially (reentrancy guard) —
/// nesting never deadlocks and never oversubscribes.
class ThreadPool {
 public:
  /// `num_threads` == total concurrency (callers participate); a pool of
  /// size <= 1 spawns no workers and runs everything inline.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t num_threads() const noexcept {
    return num_threads_;
  }

  /// Body receives a half-open chunk [chunk_begin, chunk_end).
  using RangeBody = std::function<void(std::size_t, std::size_t)>;

  /// Run `body` over [begin, end) in chunks of `grain` (see the determinism
  /// contract above). The first exception thrown by any chunk is rethrown
  /// here after all claimed chunks finish; remaining chunks still run.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const RangeBody& body);

  /// True while the calling thread is executing a chunk body — i.e. a
  /// parallel_for issued now would run inline.
  [[nodiscard]] static bool in_parallel_region() noexcept;

  /// Process-wide pool, created on first use with threads_from_env().
  /// Its size is clamped to hardware_concurrency: oversubscription only
  /// adds context-switch cost for these compute-bound kernels. Direct
  /// ThreadPool(n) construction is not clamped.
  [[nodiscard]] static ThreadPool& global();
  /// Replace the global pool with one of `n` threads (0 = re-read the
  /// environment; the hardware_concurrency clamp applies either way).
  /// Callers must quiesce kernel activity first: the old pool is joined
  /// and destroyed. Intended for tests and benchmarks.
  static void set_global_threads(std::size_t n);
  /// RIHGCN_THREADS if set, else hardware concurrency. A set-but-invalid
  /// value (0, non-numeric, > 1024) throws std::runtime_error rather than
  /// silently falling back — a typo'd thread count should fail loudly.
  [[nodiscard]] static std::size_t threads_from_env();

 private:
  struct RangeJob;

  void worker_loop();
  void run_chunk(RangeJob& job, std::size_t chunk);
  void run_serial(std::size_t begin, std::size_t end, std::size_t grain,
                  const RangeBody& body);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  // workers: jobs available or stop
  std::condition_variable done_cv_;  // parallel_for callers: job finished
  std::deque<RangeJob*> jobs_;
  bool stop_ = false;
  std::size_t num_threads_ = 1;
};

/// Dispatch thresholds for the parallel tensor kernels. Below the threshold
/// the serial path runs inline so tiny matrices don't pay pool dispatch
/// overhead. Mutable so tests and benchmarks can force the threaded path on
/// small inputs; not synchronized — set while no kernels are in flight.
/// Grain changes never alter kernel results: each output element is
/// produced wholly inside one chunk.
struct ParallelTuning {
  static std::size_t min_elems;         ///< elementwise ops: min elements
  static std::size_t elem_grain;        ///< elementwise ops: chunk size
  static std::size_t min_matmul_flops;  ///< matmul family: min n*k*m
  static std::size_t matmul_row_grain;  ///< matmul family: rows per chunk
  /// Serial cut-over for the row-partitioned (matmul/SpMM) dispatchers: jobs
  /// whose TOTAL work is below this many flops skip pool dispatch entirely,
  /// even above min_matmul_flops. Rationale (BENCH_micro.json): a ~1 Mflop
  /// dispatch splits into ~16 chunks of a few µs each, and the wake/steal/
  /// join overhead then exceeds the parallel win (cheb_dense N=64 ran 23%
  /// SLOWER @4T than @1T). Below ~4 Mflops the serial kernel is never worse
  /// than the dispatched one on the sizes the model produces. Results are
  /// unaffected — dispatch never changes bits (DESIGN.md §8).
  static std::size_t serial_cutover_flops;
  /// Restore the defaults (tests).
  static void reset() noexcept;
};

}  // namespace rihgcn
