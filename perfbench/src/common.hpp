// Shared pieces of the end-to-end benchmark: clocks, percentile rules, the
// in-memory span trace, the traced engine decorator, result records and the
// host/run stamp.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "tensor/matrix.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the process-wide benchmark epoch (first call).
[[nodiscard]] std::int64_t now_ns();
[[nodiscard]] inline double ns_to_ms(std::int64_t ns) {
  return static_cast<double>(ns) * 1e-6;
}
/// Spins until now_ns() reaches `t`. A sleeping generator wakes late when
/// the host is busy, and that lateness would land in every latency it times.
void wait_until_ns(std::int64_t t);

/// printf-style formatting into a std::string.
[[nodiscard]] std::string strf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 for an empty input.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(const std::vector<double>& v) {
  return quantile(v, 0.5);
}

/// A tail statistic sized to its sample: the highest of p99.9 / p99 / p90 /
/// p80 / p75 / p50 that leaves at least ten samples beyond it.
struct Tail {
  double q = 0.5;
  double value = 0.0;
  std::size_t samples = 0;
  [[nodiscard]] std::string label() const;
};
[[nodiscard]] Tail sized_tail(const std::vector<double>& v);

/// One span: a timed call into a layer. `parent` is the index of the span
/// that caused it (-1 for a root); spans of one request share `request`.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// What TracedEngine records per window it runs: the call's span and
/// timing, and a fingerprint of the window's newest reading (which
/// identifies the stream and reading that produced the window).
struct WindowRecord {
  std::uint64_t fingerprint = 0;
  std::int64_t span = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::size_t batch = 0;
};

/// In-memory span recorder. Disabled traces record nothing; enabled ones
/// keep every span until write() at the end of the run.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}
  /// Records a finished span and returns its index (-1 when disabled).
  std::int64_t add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent = -1,
                   std::uint64_t request = 0);
  void add_windows(const std::vector<WindowRecord>& recs);
  /// Snapshot of every span recorded so far.
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::vector<WindowRecord> windows() const;
  /// Writes the spans as JSON lines. Returns false on an I/O error.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;  ///< guards spans_, windows_
  std::vector<Span> spans_;
  std::vector<WindowRecord> windows_;
};

/// Engine decorator that records one "engine.predict_batch" span and one
/// WindowRecord per window into a Trace. The plan and the numerics are the
/// base engine's.
class TracedEngine : public rihgcn::core::InferenceEngine {
 public:
  TracedEngine(const rihgcn::core::RihgcnModel& model, Options options,
               Trace& trace)
      : InferenceEngine(model, options), trace_(trace) {}
  const rihgcn::FMatrix& predict_batch(const rihgcn::data::Window* const* windows,
                                       std::size_t batch,
                                       Workspace& ws) const override;

 private:
  Trace& trace_;
};

/// FNV-1a fingerprint of a matrix's bit pattern, chained through `h`.
[[nodiscard]] std::uint64_t fingerprint(const rihgcn::Matrix& m,
                                        std::uint64_t h = 1469598103934665603ULL);

/// True when `m` is rows x cols and every entry is finite.
[[nodiscard]] bool well_formed(const rihgcn::Matrix& m, std::size_t rows,
                               std::size_t cols);

/// num / den, or 0 when den is 0.
[[nodiscard]] inline double ratio_of(std::size_t num, std::size_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Peak resident set size of this process, in MB (2^20 bytes).
[[nodiscard]] double peak_rss_mb();

/// The threads a workload keeps busy, pinned before it starts.
struct ThreadPlan {
  std::size_t global_pool = 2;       ///< RIHGCN_THREADS
  std::size_t engine_threads = 1;    ///< InferenceEngine::Options::num_threads
  std::size_t exec_workers = 0;      ///< ServeConfig::num_workers
  std::size_t trainer_threads = 0;   ///< TrainConfig::num_threads
  std::size_t loop_threads = 0;      ///< server event loops
  std::size_t loadgen_threads = 0;   ///< load generator threads
  std::size_t busy = 0;              ///< most threads computing at once
  std::string describe() const;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< 0 = a single measurement or a count
  std::string stat;         ///< e.g. "p50", "p90", "median of 3"
};

/// What one workload run produced.
struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> gate_failures;  ///< empty = every check passed
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  ///< extra report lines (run block, checks)

  void gate(bool ok, const std::string& what) {
    if (!ok) gate_failures.push_back(what);
  }
  void e2e(std::string name, double value, std::string unit,
           std::size_t samples = 0, std::string stat = "") {
    end_to_end.push_back({std::move(name), value, std::move(unit), samples,
                          std::move(stat)});
  }
  void layer(std::string name, double value, std::string unit,
             std::size_t samples = 0, std::string stat = "") {
    per_layer.push_back({std::move(name), value, std::move(unit), samples,
                         std::move(stat)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

/// engine.call_ms.b<B>: median engine call time per batch size B, from
/// window records (a call's records are contiguous).
void report_engine_calls(const std::vector<WindowRecord>& recs, RunResult& res);

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".";
  ThreadPlan plan;  ///< pinned by main before the workload starts
  /// Set-up repetitions whose median is setup_s.
  [[nodiscard]] std::size_t setup_reps() const { return trace || smoke ? 1 : 3; }
};

RunResult run_serve_stream(const RunOptions& opt);
RunResult run_serve_hot(const RunOptions& opt);
RunResult run_train_epoch(const RunOptions& opt);
RunResult run_city_16k(const RunOptions& opt);

}  // namespace perfbench
