// ForecastServer — the online serving front end (DESIGN.md §14, §15).
//
// OnlineForecaster (src/core/online.hpp) wraps ONE stream around the f64
// tape model; ForecastServer is the production path: many streams, many
// concurrent clients, one compiled core::InferenceEngine. Three mechanisms
// carry the load:
//
//   * micro-batching — forecast requests land in an admission queue on the
//     event-loop thread and are flushed through ONE predict_batch call when
//     the queue holds `max_batch` distinct windows or the oldest request has
//     waited `max_delay_us`, whichever comes first;
//   * coalescing — concurrent requests for the same (stream, ingest
//     version) share one engine invocation and one window slot in the
//     batch: later arrivals just attach to the pending entry's waiter list;
//   * snapshot swap — the engine sits behind a loop-thread-owned
//     shared_ptr<Snapshot>; publish() canary-tests a freshly compiled engine
//     on the caller's thread (typically a background retrain loop) and posts
//     the pointer swap to the loop, so the next flush picks it up. Serving
//     never pauses — publish is just an enqueue — and in-flight batches
//     finish on the snapshot they started with. (An atomic<shared_ptr> would
//     work too, but libstdc++'s _Sp_atomic hides its spinlock bit from TSan;
//     routing the swap through the loop keeps the single-writer discipline
//     uniform AND sanitizer-provable.)
//
// And four overload/fault mechanisms keep it standing when the load or the
// engine misbehaves (DESIGN.md §15):
//
//   * bounded admission — at most `max_queue` distinct windows wait at once;
//     beyond that the shed policy either rejects the newcomer or sheds the
//     oldest entry, failing its waiters with ServeError{OVERLOADED};
//   * deadlines — a request may carry `deadline_us` (or inherit the config
//     default); expiry is enforced on the loop thread via a cancellable
//     EventLoop timer plus a sweep at flush start, so an expired request
//     fails with ServeError{DEADLINE_EXCEEDED} *before* consuming a batch
//     slot;
//   * engine circuit breaker + per-stream fallback — a flush that throws or
//     emits non-finite rows answers the affected waiters from a degraded
//     path (the stream's last good forecast, else the engine output scrubbed
//     to the historical mean, else the all-mean matrix — the shared
//     core::scrub_non_finite semantics), and after `breaker_threshold`
//     consecutive failed engine calls the breaker OPENS: every request is
//     served from fallback without touching the engine until a half-open
//     probe batch (after `breaker_cooldown_us`) succeeds and closes it;
//   * canary-gated publish — publish() runs the candidate on a synthetic
//     probe window first; a throw, shape mismatch or non-finite output
//     quarantines the candidate (counted in stats) and keeps the current
//     snapshot serving.
//
// Every flush is one pipeline (DESIGN.md §16): plan the admitted batch into
// chunks and run the breaker gate per chunk, execute each chunk (inline on
// the loop thread, or with ServeConfig::num_workers > 0 on an ExecPool
// worker with a private Workspace over the shared plan), then settle in
// admission order on the loop thread. With a pool, the loop keeps admitting
// batch t+1 while batch t executes — the pipelined flush. Breaker
// bookkeeping and settlement never leave the loop thread, so per-window
// outputs are bitwise identical for any worker count and the §15 failure
// accounting is exact.
//
// Every request resolves to a typed outcome: a finite Matrix or a
// serve::ServeError via set_exception — never a broken promise, including
// through drain()/destruction (ServeError{SHUTTING_DOWN}).
//
// All mutable server state (stream buffers, the admission queue, snapshot
// workspaces, breaker state) is owned by the single EventLoop thread; client
// threads only normalize inputs, post closures and wait on futures. That
// single-writer discipline is what the TSan-covered swap-under-load and
// overload-storm tests lock in.
//
// Responses are deterministic: windows are materialized from the stream
// buffer at enqueue time (an ingest racing a forecast affects only requests
// enqueued after it), and promises are fulfilled in enqueue order, waiters
// in attach order.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/engine.hpp"
#include "core/robust.hpp"
#include "data/dataset.hpp"
#include "data/windows.hpp"
#include "serve/error.hpp"
#include "serve/event_loop.hpp"
#include "serve/exec_pool.hpp"

namespace rihgcn::serve {

/// What to do when the admission queue is full and a request needs a new
/// window slot (coalescing attaches never grow the queue, so they are
/// always admitted).
enum class ShedPolicy {
  kRejectNew,   ///< fail the incoming request with OVERLOADED
  kShedOldest,  ///< fail the oldest queued window's waiters, admit the new
};

/// Engine circuit-breaker state (DESIGN.md §15 state machine).
enum class BreakerState {
  kClosed,    ///< normal serving through the engine
  kOpen,      ///< engine bypassed; everything served from fallback
  kHalfOpen,  ///< one probe batch in flight; its outcome decides
};

struct ServeConfig {
  /// Flush the admission queue at this many distinct windows (clamped to
  /// [1, engine max_batch] at construction).
  std::size_t max_batch = 8;
  /// ... or when the oldest queued request has waited this long.
  std::uint64_t max_delay_us = 500;
  /// Bounded admission: at most this many distinct windows queued (floored
  /// to 1). Waiters coalescing onto an existing window don't count.
  std::size_t max_queue = 64;
  ShedPolicy shed_policy = ShedPolicy::kRejectNew;
  /// Default per-request deadline (microseconds from enqueue); 0 = none.
  /// forecast_async's explicit argument overrides it per request.
  std::uint64_t default_deadline_us = 0;
  /// Consecutive failed engine calls (throw or non-finite output) that
  /// open the circuit breaker (floored to 1).
  std::size_t breaker_threshold = 3;
  /// How long an open breaker waits before letting one half-open probe
  /// batch through the engine.
  std::uint64_t breaker_cooldown_us = 10'000;
  /// Per-stream stuck-sensor demotion threshold (core::StuckSensorDetector,
  /// the shared OnlineForecaster semantics); 0 disables.
  std::size_t stuck_threshold = 12;
  /// true: engine failures answer waiters with degraded-but-finite values
  /// (last-good / mean-scrub fallback). false: they carry
  /// ServeError{ENGINE_FAILURE} instead — for deployments that prefer a
  /// typed error over a stale number.
  bool degraded_serving = true;
  /// Flush executor (DESIGN.md §16). 0 = each flush executes inline on the
  /// loop thread. K >= 1 = a K-worker ExecPool executes it: the admitted
  /// batch is split into fixed deterministic chunks (chunk c on worker
  /// c mod K, each worker running against its own private Workspace over
  /// the shared plan), and while the workers execute batch t the loop keeps
  /// admitting and coalescing batch t+1 — the pipelined flush. Per-window
  /// outputs are bitwise identical for any K. Overridden at
  /// construction by RIHGCN_SERVE_WORKERS when set (set-but-invalid throws,
  /// the RIHGCN_THREADS contract).
  std::size_t num_workers = 0;
};

/// Monotonic serving counters (all lifetime totals).
struct ServerStats {
  std::size_t requests = 0;            ///< forecast futures handed out
  std::size_t responses = 0;           ///< futures fulfilled with a value
  std::size_t engine_calls = 0;        ///< predict_batch invocations
  std::size_t batched_windows = 0;     ///< sum of batch sizes over calls
  std::size_t coalesced_requests = 0;  ///< requests that joined a pending window
  std::size_t snapshot_swaps = 0;      ///< published engines applied by the loop
  std::size_t pooled_flushes = 0;      ///< flushes dispatched to the ExecPool
  // ---- overload & fault-tolerance counters (DESIGN.md §15) -----------------
  std::size_t shed_requests = 0;       ///< failed with OVERLOADED
  std::size_t deadline_expired = 0;    ///< failed with DEADLINE_EXCEEDED
  std::size_t aborted_requests = 0;    ///< failed with SHUTTING_DOWN
  std::size_t engine_failures = 0;     ///< engine calls that threw / went non-finite
  std::size_t fallback_responses = 0;  ///< degraded values served (subset of responses)
  std::size_t scrubbed_entries = 0;    ///< non-finite output entries scrubbed to mean
  std::size_t breaker_opens = 0;       ///< transitions to OPEN (incl. failed probes)
  std::size_t breaker_probes = 0;      ///< half-open probe batches attempted
  std::size_t breaker_closes = 0;      ///< successful probes closing the breaker
  std::size_t quarantined_publishes = 0;  ///< candidates rejected by the canary
  std::size_t sanitized_entries = 0;   ///< ingest values demoted to missing
  std::size_t coerced_mask_entries = 0;  ///< ingest mask entries outside {0,1}
  std::size_t stuck_demotions = 0;     ///< readings demoted by stuck detection
};

class ForecastServer {
 public:
  /// Starts the loop thread. `engine` is the initial snapshot; `normalizer`
  /// is copied (the server converts original-unit readings to the model's
  /// normalized space and back).
  ForecastServer(std::shared_ptr<core::InferenceEngine> engine,
                 const data::ZScoreNormalizer& normalizer, ServeConfig cfg);
  /// Equivalent to drain(): every still-queued request resolves with
  /// ServeError{SHUTTING_DOWN} or a final-flush value before the loop joins.
  ~ForecastServer();
  ForecastServer(const ForecastServer&) = delete;
  ForecastServer& operator=(const ForecastServer&) = delete;

  /// Register a sensor stream; `start_slot` anchors its time-of-day clock.
  /// Returns the stream id used by ingest/forecast.
  std::size_t add_stream(std::size_t start_slot = 0);

  /// Ingest one reading (ORIGINAL units, num_nodes x num_features values +
  /// mask). Sanitizes with the shared core::sanitize_reading (non-finite
  /// values and malformed mask entries demoted to missing); the loop thread
  /// additionally demotes stuck sensors. Bumps the stream's ingest version,
  /// so it never coalesces with earlier forecasts. Throws
  /// ServeError{SHUTTING_DOWN} once drain() has begun.
  void ingest(std::size_t stream, const Matrix& values, const Matrix& mask);
  /// Ingest a fully-missing timestep (feed gap).
  void ingest_gap(std::size_t stream);

  /// Queue a forecast of the stream's next `horizon` target-feature steps
  /// in ORIGINAL units (num_nodes x horizon).
  ///
  /// `deadline_us` bounds the time the request may wait before being
  /// answered: nullopt inherits ServeConfig::default_deadline_us, an
  /// explicit 0 disables the deadline for this request.
  ///
  /// The future carries exactly one of: a finite Matrix; a
  /// serve::ServeError (OVERLOADED / DEADLINE_EXCEEDED / ENGINE_FAILURE /
  /// SHUTTING_DOWN); or std::logic_error if the stream has no readings yet
  /// (validated eagerly — such a request never occupies a queue slot).
  [[nodiscard]] std::future<Matrix> forecast_async(
      std::size_t stream,
      std::optional<std::uint64_t> deadline_us = std::nullopt);
  /// Blocking convenience wrapper.
  [[nodiscard]] Matrix forecast(std::size_t stream) {
    return forecast_async(stream).get();
  }

  /// Canary-gated swap of a retrained engine (any thread, never blocks
  /// serving). The candidate first predicts a synthetic probe window on the
  /// CALLER's thread; a throw, wrong shape or non-finite output quarantines
  /// it — stats().quarantined_publishes counts, the current snapshot keeps
  /// serving, and publish returns false. On success the pointer swap is
  /// posted to the loop (applied before the next flush) and publish returns
  /// true. Throws std::invalid_argument for a null engine or one whose
  /// dimensions disagree with the server's (caller bugs, not fault modes).
  [[nodiscard]] bool publish(std::shared_ptr<core::InferenceEngine> engine);

  /// Graceful shutdown: stops admission (subsequent forecasts resolve to
  /// ServeError{SHUTTING_DOWN}, ingests throw it), serves everything already
  /// admitted via one final flush, then stops and joins the loop thread
  /// deterministically. Idempotent; called by the destructor.
  void drain();

  [[nodiscard]] ServerStats stats() const;
  /// Current circuit-breaker state (any thread).
  [[nodiscard]] BreakerState breaker_state() const noexcept {
    return static_cast<BreakerState>(
        breaker_state_.load(std::memory_order_acquire));
  }
  /// True once drain() has begun (any thread).
  [[nodiscard]] bool draining() const noexcept {
    return draining_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t num_nodes() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_features() const noexcept { return f_; }
  [[nodiscard]] std::size_t horizon() const noexcept { return horizon_; }
  /// Resolved worker count (config after the RIHGCN_SERVE_WORKERS
  /// override); 0 = inline flush execution.
  [[nodiscard]] std::size_t num_workers() const noexcept {
    return cfg_.num_workers;
  }

 private:
  /// An engine plus its private scratch: ws[w] is touched only by the
  /// executor thread w of a flush — the loop thread (one workspace) or
  /// ExecPool worker w (num_workers of them) — over the one shared
  /// immutable plan.
  struct Snapshot {
    std::shared_ptr<core::InferenceEngine> engine;
    std::vector<core::InferenceEngine::Workspace> ws;
  };
  /// Per-stream serving state (loop thread only).
  struct Stream {
    core::StreamBuffer buffer;  ///< shared OnlineForecaster rolling buffer
    std::uint64_t version = 0;  ///< bumped per ingest; the coalescing key
    core::StuckSensorDetector detector;  ///< shared OnlineForecaster semantics
    Matrix last_good;  ///< last finite engine forecast (original units)
  };
  /// A promise that can be raced for by the loop thread and the
  /// drain/forecast_async shutdown paths: whoever settles first wins, every
  /// later attempt is a silent no-op. This is what makes "typed outcome for
  /// every request, no broken promises" hold through racy shutdown.
  struct SettleOnce {
    std::promise<Matrix> promise;
    std::atomic<bool> settled{false};
    /// True iff the caller won the exclusive right to settle the promise
    /// (set_value / set_exception). Counting happens between claim() and the
    /// set so stats() is consistent by the time the client's .get() returns.
    bool claim() { return !settled.exchange(true, std::memory_order_acq_rel); }
  };
  /// One waiter on a queued window.
  struct Waiter {
    std::shared_ptr<SettleOnce> settle;
    std::uint64_t seq = 0;       ///< unique token for deadline lookup
    std::uint64_t timer_id = 0;  ///< armed deadline timer; 0 = none
    bool has_deadline = false;
    EventLoop::Clock::time_point deadline{};
  };
  /// One admission-queue entry: a materialized window and its waiters.
  struct Pending {
    std::size_t stream = 0;
    std::uint64_t version = 0;
    data::Window window;
    std::vector<Waiter> waiters;
  };
  /// One chunk of a flush: one predict_batch call. The plan fills
  /// `windows` for the chunks the breaker gate lets through (an empty list
  /// means the chunk is answered from fallback); run_chunk fills the rest.
  /// Distinct chunks are written by distinct executors, and the loop reads
  /// them only once every chunk has run, so no field needs synchronization
  /// beyond the loop post itself.
  struct Chunk {
    std::vector<const data::Window*> windows;
    bool ok = false;     ///< call returned finite output
    bool threw = false;
    std::vector<Matrix> preds;  ///< denormalized, one per window of the chunk
  };
  /// One flush (DESIGN.md §16): the entries moved out of the admission
  /// queue, the snapshot they execute against, and the per-chunk results.
  /// While a pooled flush executes, the admission queue keeps filling
  /// (batch t+1); results settle in chunk order — i.e. admission order.
  struct FlushState {
    std::shared_ptr<Snapshot> snap;
    std::vector<Pending> entries;
    std::size_t chunk_size = 0;
    std::vector<Chunk> chunks;
    std::size_t chunks_left = 0;  ///< executed chunks not yet done (loop thread)
  };

  // Loop-thread internals.
  void enqueue_request(std::size_t stream, std::shared_ptr<SettleOnce> settle,
                       bool has_deadline, EventLoop::Clock::time_point deadline);
  void attach_waiter(Pending& p, Waiter w);
  void arm_deadline(std::size_t stream, Waiter& w);
  void on_deadline_expired(std::size_t stream, std::uint64_t seq);
  /// Sweep expired waiters out of the queue (flush-start fast-fail).
  void fail_expired(EventLoop::Clock::time_point now);
  void settle_with_value(Waiter& w, const Matrix& value, bool fallback);
  void settle_with_error(Waiter& w, ServeStatus status, const char* detail);
  /// Answer one pending entry from the degraded path: last-good forecast,
  /// else `raw_pred` (original units) scrubbed to the historical mean, else
  /// the all-mean matrix. With degraded_serving=false, delivers
  /// ServeError{ENGINE_FAILURE} instead.
  void fallback_respond(Pending& p, const Matrix* raw_pred);
  /// Breaker bookkeeping after one engine call (loop thread).
  void note_engine_result(bool success, EventLoop::Clock::time_point now);
  void set_breaker(BreakerState s) noexcept {
    breaker_ = s;
    breaker_state_.store(static_cast<int>(s), std::memory_order_release);
  }
  /// One flush, plan → execute → settle: move the admission queue into a
  /// FlushState, split it into chunks and run the breaker gate once per
  /// chunk in admission order; execute the admitted chunks inline (no
  /// pool) or on the ExecPool; settle via finish_flush. A no-op while a
  /// pooled flush is in flight (its completion re-flushes).
  void flush();
  /// Execute one chunk: predict_batch on workspace c mod ws.size(),
  /// denormalize, flag non-finite output. Runs on the loop thread or on
  /// ExecPool worker c mod K; touches only chunk c of the flush.
  void run_chunk(FlushState& st, std::size_t c) const;
  /// Loop-side pooled completion: counts down the in-flight chunks; the
  /// last one settles the flush and flushes batch t+1.
  void on_chunk_done(const std::shared_ptr<FlushState>& st);
  /// Breaker bookkeeping and settlement of an executed flush, in chunk
  /// (= admission) order.
  void finish_flush(FlushState& st);
  /// Drain rendezvous: once loop_draining_ is set, run the final flush and,
  /// when no flush is in flight any more, release the drain() caller.
  void maybe_finish_drain();
  /// A snapshot of `engine` with one workspace per flush executor thread.
  [[nodiscard]] std::shared_ptr<Snapshot> make_snapshot(
      std::shared_ptr<core::InferenceEngine> engine) const;
  /// Deterministic synthetic window for the publish canary: normalized-mean
  /// values under a half-observed checkerboard mask.
  [[nodiscard]] data::Window make_probe_window() const;

  // Immutable after construction.
  std::size_t n_ = 0, f_ = 0;
  std::size_t lookback_ = 0, horizon_ = 0, steps_per_day_ = 0;
  ServeConfig cfg_;
  data::ZScoreNormalizer normalizer_;
  Matrix mean_forecast_;  ///< n x horizon, the historical-mean fallback

  // Loop-thread-owned state.
  std::shared_ptr<Snapshot> snapshot_;  ///< swapped only via posted closures
  std::deque<Stream> streams_;
  std::vector<Pending> pending_;
  std::uint64_t flush_timer_ = 0;  ///< 0 = not armed
  std::uint64_t next_waiter_seq_ = 1;
  BreakerState breaker_ = BreakerState::kClosed;
  std::size_t consecutive_engine_failures_ = 0;
  EventLoop::Clock::time_point breaker_retry_at_{};
  bool loop_draining_ = false;  ///< set by drain's final closure
  std::shared_ptr<FlushState> inflight_;  ///< pooled flush in execution
  /// Fulfilled by the loop once loop_draining_ is set and the final flush
  /// (and any flush in flight before it) has settled — the rendezvous that
  /// lets drain() stop the loop without orphaning worker completions.
  std::shared_ptr<std::promise<void>> drain_quiesce_;

  // Client-visible registry: per-stream readings-seen counters for the
  // eager no-readings validation (guarded by reg_mu_; the atomics
  // themselves are lock-free once fetched).
  mutable std::mutex reg_mu_;
  std::vector<std::shared_ptr<std::atomic<std::uint64_t>>> reg_seen_;

  std::atomic<std::size_t> num_streams_{0};  ///< for client-side validation
  std::atomic<bool> draining_{false};
  std::once_flag drain_once_;
  std::atomic<int> breaker_state_{static_cast<int>(BreakerState::kClosed)};
  std::atomic<std::size_t> requests_{0};
  std::atomic<std::size_t> responses_{0};
  std::atomic<std::size_t> engine_calls_{0};
  std::atomic<std::size_t> batched_windows_{0};
  std::atomic<std::size_t> coalesced_{0};
  std::atomic<std::size_t> swaps_{0};
  std::atomic<std::size_t> pooled_flushes_{0};
  std::atomic<std::size_t> shed_{0};
  std::atomic<std::size_t> deadline_expired_{0};
  std::atomic<std::size_t> aborted_{0};
  std::atomic<std::size_t> engine_failures_{0};
  std::atomic<std::size_t> fallback_responses_{0};
  std::atomic<std::size_t> scrubbed_entries_{0};
  std::atomic<std::size_t> breaker_opens_{0};
  std::atomic<std::size_t> breaker_probes_{0};
  std::atomic<std::size_t> breaker_closes_{0};
  std::atomic<std::size_t> quarantined_{0};
  std::atomic<std::size_t> sanitized_entries_{0};
  std::atomic<std::size_t> coerced_mask_entries_{0};
  std::atomic<std::size_t> stuck_demotions_{0};

  EventLoop loop_;  ///< joins before the state above dies
  /// Declared after loop_, so it is destroyed FIRST: workers are joined
  /// while the loop object (which their completions post into) still
  /// exists. drain() guarantees the pool is idle before either dies.
  std::unique_ptr<ExecPool> exec_pool_;
};

}  // namespace rihgcn::serve
