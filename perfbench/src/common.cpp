#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <map>

namespace perfbench {

std::int64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

void wait_until_ns(std::int64_t t) {
  while (now_ns() < t) {
  }
}

std::string strf(const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace {

/// The percentile sized_tail chooses for `n` samples.
double tail_quantile_for(std::size_t n) {
  // At least ten samples must lie beyond the reported percentile:
  // n * (1 - q) >= 10. p99 therefore needs 1000 samples.
  for (const double q : {0.999, 0.99, 0.9, 0.8, 0.75}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9) return q;
  }
  return 0.5;
}

}  // namespace

std::string Tail::label() const {
  char buf[16];
  const double pct = q * 100.0;
  if (std::fabs(pct - std::round(pct)) < 1e-9) {
    std::snprintf(buf, sizeof buf, "p%.0f", pct);
  } else {
    std::snprintf(buf, sizeof buf, "p%.1f", pct);
  }
  return buf;
}

Tail sized_tail(const std::vector<double>& v) {
  Tail t;
  t.samples = v.size();
  t.q = tail_quantile_for(v.size());
  t.value = quantile(v, t.q);
  return t;
}

std::int64_t Trace::add(const char* name, std::int64_t start_ns,
                        std::int64_t end_ns, std::int64_t parent,
                        std::uint64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<Span> Trace::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Trace::add_windows(const std::vector<WindowRecord>& recs) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  windows_.insert(windows_.end(), recs.begin(), recs.end());
}

std::vector<WindowRecord> Trace::windows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return windows_;
}

bool Trace::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %" PRId64
                 ", \"end_ns\": %" PRId64 ", \"parent\": %" PRId64
                 ", \"request\": %" PRIu64 "}\n",
                 i, s.name, s.start_ns, s.end_ns, s.parent, s.request);
  }
  return std::fclose(f) == 0;
}

const rihgcn::FMatrix& TracedEngine::predict_batch(
    const rihgcn::data::Window* const* windows, std::size_t batch,
    Workspace& ws) const {
  const std::int64_t t0 = now_ns();
  const rihgcn::FMatrix& out = InferenceEngine::predict_batch(windows, batch, ws);
  const std::int64_t t1 = now_ns();
  const std::int64_t span = trace_.add("engine.predict_batch", t0, t1);
  // Fingerprints are taken after the timed call so they stay out of the span.
  std::vector<WindowRecord> recs(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    recs[b] = WindowRecord{fingerprint(windows[b]->x_obs.back()), span, t0, t1,
                           batch};
  }
  trace_.add_windows(recs);
  return out;
}

std::uint64_t fingerprint(const rihgcn::Matrix& m, std::uint64_t h) {
  const auto* p = reinterpret_cast<const unsigned char*>(m.data());
  for (std::size_t i = 0; i < m.size() * sizeof(double); ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

bool well_formed(const rihgcn::Matrix& m, std::size_t rows, std::size_t cols) {
  return m.rows() == rows && m.cols() == cols && !m.has_non_finite();
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void report_engine_calls(const std::vector<WindowRecord>& recs, RunResult& res) {
  std::map<std::size_t, std::vector<double>> call_ms;
  std::int64_t last_span = -1;
  for (const WindowRecord& r : recs) {
    if (r.span == last_span) continue;
    last_span = r.span;
    call_ms[r.batch].push_back(ns_to_ms(r.end_ns - r.start_ns));
  }
  for (const auto& [b, v] : call_ms) {
    res.layer(strf("engine.call_ms.b%zu", b), median(v), "ms", v.size(), "p50");
  }
}

std::string ThreadPlan::describe() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "RIHGCN_THREADS=%zu engine_threads=%zu exec_workers=%zu "
                "trainer_threads=%zu loop_threads=%zu loadgen_threads=%zu "
                "busy=%zu",
                global_pool, engine_threads, exec_workers, trainer_threads,
                loop_threads, loadgen_threads, busy);
  return buf;
}

}  // namespace perfbench
