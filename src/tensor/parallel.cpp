#include "tensor/parallel.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>

namespace rihgcn {

namespace {

// Depth of chunk execution on this thread; > 0 means a parallel_for
// issued now must run inline (reentrancy guard).
thread_local int tl_region_depth = 0;

struct ScopedRegion {
  ScopedRegion() noexcept { ++tl_region_depth; }
  ~ScopedRegion() noexcept { --tl_region_depth; }
  ScopedRegion(const ScopedRegion&) = delete;
  ScopedRegion& operator=(const ScopedRegion&) = delete;
};

}  // namespace

// A synchronous chunked-range job. Lives on the issuing thread's stack; the
// issuer removes it from the queue and waits for done_chunks == num_chunks
// before returning, so the pointer stays valid for every thread that can
// still dereference it (all dereferences happen under the pool mutex or on a
// chunk claimed before the issuer finished waiting).
struct ThreadPool::RangeJob {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t grain = 1;
  std::size_t num_chunks = 0;
  std::atomic<std::size_t> next_chunk{0};
  std::size_t done_chunks = 0;  // guarded by pool mutex
  const RangeBody* body = nullptr;
  std::exception_ptr error;  // first error only; guarded by pool mutex
};

ThreadPool::ThreadPool(std::size_t num_threads)
    : num_threads_(std::max<std::size_t>(1, num_threads)) {
  workers_.reserve(num_threads_ - 1);
  for (std::size_t i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

bool ThreadPool::in_parallel_region() noexcept { return tl_region_depth > 0; }

void ThreadPool::run_chunk(RangeJob& job, std::size_t chunk) {
  std::exception_ptr err;
  {
    ScopedRegion region;
    try {
      const std::size_t b = job.begin + chunk * job.grain;
      (*job.body)(b, std::min(job.end, b + job.grain));
    } catch (...) {
      err = std::current_exception();
    }
  }
  std::lock_guard<std::mutex> lk(mutex_);
  if (err && !job.error) job.error = err;
  if (++job.done_chunks == job.num_chunks) done_cv_.notify_all();
}

void ThreadPool::run_serial(std::size_t begin, std::size_t end,
                            std::size_t grain, const RangeBody& body) {
  // Same fixed chunk boundaries as the threaded path, executed in order.
  ScopedRegion region;
  for (std::size_t b = begin; b < end; b += grain) {
    body(b, std::min(end, b + grain));
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              std::size_t grain, const RangeBody& body) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const std::size_t num_chunks = (end - begin + grain - 1) / grain;
  if (workers_.empty() || num_chunks == 1 || in_parallel_region()) {
    run_serial(begin, end, grain, body);
    return;
  }

  RangeJob job;
  job.begin = begin;
  job.end = end;
  job.grain = grain;
  job.num_chunks = num_chunks;
  job.body = &body;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    jobs_.push_back(&job);
  }
  work_cv_.notify_all();

  // The caller participates until every chunk is claimed...
  for (;;) {
    const std::size_t c = job.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.num_chunks) break;
    run_chunk(job, c);
  }
  // ...then waits for straggler chunks still running on workers.
  std::unique_lock<std::mutex> lk(mutex_);
  for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
    if (*it == &job) {
      jobs_.erase(it);
      break;
    }
  }
  done_cv_.wait(lk, [&] { return job.done_chunks == job.num_chunks; });
  if (job.error) std::rethrow_exception(job.error);
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lk(mutex_);
  for (;;) {
    work_cv_.wait(lk, [&] { return stop_ || !jobs_.empty(); });
    if (stop_) return;
    RangeJob* job = jobs_.front();
    const std::size_t c = job->next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= job->num_chunks) {
      // Exhausted: drop it so we don't spin; the issuer also erases it.
      jobs_.pop_front();
      continue;
    }
    lk.unlock();
    run_chunk(*job, c);
    lk.lock();
  }
}

// ---- Global pool -----------------------------------------------------------

namespace {

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool_owner;
std::atomic<ThreadPool*> g_pool{nullptr};

}  // namespace

namespace {

// Oversubscribing the machine is never a win for these compute-bound
// kernels: with more workers than cores the chunked loops just pay context
// switches (BENCH_micro.json showed cheb_dense N=1024 at 15.1 ms with 4
// requested threads vs 8.8 ms with 1 on a single-core host). Requests for
// the shared global pool are therefore clamped to the hardware; direct
// ThreadPool(n) construction stays uncapped so tests can still exercise
// real multi-worker pools.
std::size_t capped_global_size(std::size_t requested) {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t cap = hw == 0 ? 1 : static_cast<std::size_t>(hw);
  if (requested == 0) requested = 1;
  return requested < cap ? requested : cap;
}

}  // namespace

ThreadPool& ThreadPool::global() {
  ThreadPool* p = g_pool.load(std::memory_order_acquire);
  if (p != nullptr) return *p;
  std::lock_guard<std::mutex> lk(g_pool_mutex);
  if (!g_pool_owner) {
    g_pool_owner =
        std::make_unique<ThreadPool>(capped_global_size(threads_from_env()));
    g_pool.store(g_pool_owner.get(), std::memory_order_release);
  }
  return *g_pool_owner;
}

void ThreadPool::set_global_threads(std::size_t n) {
  std::lock_guard<std::mutex> lk(g_pool_mutex);
  g_pool.store(nullptr, std::memory_order_release);
  g_pool_owner.reset();  // joins the old pool's workers
  g_pool_owner = std::make_unique<ThreadPool>(
      capped_global_size(n == 0 ? threads_from_env() : n));
  g_pool.store(g_pool_owner.get(), std::memory_order_release);
}

std::size_t ThreadPool::threads_from_env() {
  const char* env = std::getenv("RIHGCN_THREADS");
  if (env == nullptr || *env == '\0') {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
  }
  // A set-but-invalid value is a configuration error; silently falling back
  // to hardware_concurrency made "RIHGCN_THREADS=O4" run 64-wide on a big
  // box without anyone noticing.
  char* endp = nullptr;
  errno = 0;
  const unsigned long v = std::strtoul(env, &endp, 10);
  if (endp == env || *endp != '\0' || errno == ERANGE || v == 0 || v > 1024) {
    throw std::runtime_error(
        std::string("RIHGCN_THREADS must be an integer in [1, 1024], got '") +
        env + "'");
  }
  return static_cast<std::size_t>(v);
}

// ---- Tuning ---------------------------------------------------------------

namespace {
// Coarsened from the seed values (32k/16k elems, 256k flops, 8 rows) after
// BENCH_micro.json showed dispatch overhead eating the win at small N: a
// chunk now carries enough work (~tens of µs) that claiming it costs a
// fraction of running it, and small matrices stay on the serial path.
constexpr std::size_t kDefaultMinElems = std::size_t{1} << 16;
constexpr std::size_t kDefaultElemGrain = std::size_t{1} << 15;
constexpr std::size_t kDefaultMinMatmulFlops = std::size_t{1} << 19;
constexpr std::size_t kDefaultMatmulRowGrain = 16;
constexpr std::size_t kDefaultSerialCutoverFlops = std::size_t{1} << 22;
}  // namespace

std::size_t ParallelTuning::min_elems = kDefaultMinElems;
std::size_t ParallelTuning::elem_grain = kDefaultElemGrain;
std::size_t ParallelTuning::min_matmul_flops = kDefaultMinMatmulFlops;
std::size_t ParallelTuning::matmul_row_grain = kDefaultMatmulRowGrain;
std::size_t ParallelTuning::serial_cutover_flops = kDefaultSerialCutoverFlops;

void ParallelTuning::reset() noexcept {
  min_elems = kDefaultMinElems;
  elem_grain = kDefaultElemGrain;
  min_matmul_flops = kDefaultMinMatmulFlops;
  matmul_row_grain = kDefaultMatmulRowGrain;
  serial_cutover_flops = kDefaultSerialCutoverFlops;
}

}  // namespace rihgcn
