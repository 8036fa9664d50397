// Scalar reference kernels + the runtime ISA dispatcher (tensor/simd.hpp).
//
// The scalar table is the ground truth the SIMD tables are held to: bitwise
// for double (tests/test_kernel_conformance.cpp compares every kernel across
// ISAs with operator==), ULP-bounded for float. Keep these loops boring —
// one rounded multiply and one rounded add per accumulation step, ascending
// index order.
#include "tensor/simd.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>

namespace rihgcn::simd {

namespace {

// ---- scalar double kernels -------------------------------------------------

void s_add(double* y, const double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += x[i];
}

void s_sub(double* y, const double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] -= x[i];
}

void s_mul(double* y, const double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] *= x[i];
}

void s_scale(double* y, double s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] *= s;
}

void s_add_into(double* out, const double* a, const double* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void s_sub_into(double* out, const double* a, const double* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void s_mul_into(double* out, const double* a, const double* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void s_axpy(double* y, double a, const double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void s_fmadd(double* y, const double* a, const double* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a[i] * b[i];
}

void s_mul2_add(double* out, const double* a, const double* b, const double* c,
                const double* d, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double ab = a[i] * b[i];
    const double cd = c[i] * d[i];
    out[i] = ab + cd;
  }
}

// Cache-blocked C += A·B over output rows [i0, i1): 4 output rows at a time,
// 4 output columns at a time, k innermost. Every C element accumulates its
// k-terms in ascending order, each term one rounded multiply + one rounded
// add seeded from the existing C value — the exact per-element arithmetic of
// the naive i-k-j kernel (detail::matmul_naive), so the result is bitwise
// identical to the serial reference and independent of row partitioning.
void s_matmul_rows(const double* ap, const double* bp, double* cp,
                   std::size_t k, std::size_t m, std::size_t i0,
                   std::size_t i1) {
  std::size_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    const double* a0 = ap + (i + 0) * k;
    const double* a1 = ap + (i + 1) * k;
    const double* a2 = ap + (i + 2) * k;
    const double* a3 = ap + (i + 3) * k;
    double* c0 = cp + (i + 0) * m;
    double* c1 = cp + (i + 1) * m;
    double* c2 = cp + (i + 2) * m;
    double* c3 = cp + (i + 3) * m;
    std::size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      double t00 = c0[j], t01 = c0[j + 1], t02 = c0[j + 2], t03 = c0[j + 3];
      double t10 = c1[j], t11 = c1[j + 1], t12 = c1[j + 2], t13 = c1[j + 3];
      double t20 = c2[j], t21 = c2[j + 1], t22 = c2[j + 2], t23 = c2[j + 3];
      double t30 = c3[j], t31 = c3[j + 1], t32 = c3[j + 2], t33 = c3[j + 3];
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double* brow = bp + kk * m + j;
        const double b0 = brow[0], b1 = brow[1], b2 = brow[2], b3 = brow[3];
        const double av0 = a0[kk], av1 = a1[kk], av2 = a2[kk], av3 = a3[kk];
        t00 += av0 * b0; t01 += av0 * b1; t02 += av0 * b2; t03 += av0 * b3;
        t10 += av1 * b0; t11 += av1 * b1; t12 += av1 * b2; t13 += av1 * b3;
        t20 += av2 * b0; t21 += av2 * b1; t22 += av2 * b2; t23 += av2 * b3;
        t30 += av3 * b0; t31 += av3 * b1; t32 += av3 * b2; t33 += av3 * b3;
      }
      c0[j] = t00; c0[j + 1] = t01; c0[j + 2] = t02; c0[j + 3] = t03;
      c1[j] = t10; c1[j + 1] = t11; c1[j + 2] = t12; c1[j + 3] = t13;
      c2[j] = t20; c2[j + 1] = t21; c2[j + 2] = t22; c2[j + 3] = t23;
      c3[j] = t30; c3[j + 1] = t31; c3[j + 2] = t32; c3[j + 3] = t33;
    }
    for (; j < m; ++j) {
      double t0 = c0[j], t1 = c1[j], t2 = c2[j], t3 = c3[j];
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double b0 = bp[kk * m + j];
        t0 += a0[kk] * b0;
        t1 += a1[kk] * b0;
        t2 += a2[kk] * b0;
        t3 += a3[kk] * b0;
      }
      c0[j] = t0; c1[j] = t1; c2[j] = t2; c3[j] = t3;
    }
  }
  for (; i < i1; ++i) {
    const double* arow = ap + i * k;
    double* crow = cp + i * m;
    for (std::size_t j = 0; j < m; ++j) {
      double t = crow[j];
      for (std::size_t kk = 0; kk < k; ++kk) t += arow[kk] * bp[kk * m + j];
      crow[j] = t;
    }
  }
}

// C += S·B over rows [i0, i1), S in CSR. i-p-j order: per output element the
// terms arrive in ascending structural order p, one rounded multiply + one
// rounded add each — the dense kernels' ascending-k order minus the zero
// terms (the bitwise sparse-vs-dense parity argument in tensor/csr.hpp).
void s_spmm_rows(const std::size_t* row_ptr, const std::size_t* col_idx,
                 const double* vals, const double* b, double* c, std::size_t m,
                 std::size_t i0, std::size_t i1) {
  for (std::size_t i = i0; i < i1; ++i) {
    double* crow = c + i * m;
    for (std::size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      const double v = vals[p];
      const double* brow = b + col_idx[p] * m;
      for (std::size_t j = 0; j < m; ++j) crow[j] += v * brow[j];
    }
  }
}

// C += Aᵀ·B over output rows [i0, i1) of C: output row i walks column i of
// A for ascending r and, for every nonzero a_ri, adds round(a_ri * b_rj) to
// each element — the r-ascending order with the zero skip that the CSR
// transpose SpMM reproduces term for term.
void s_matmul_at_rows(const double* ap, const double* bp, double* cp,
                      std::size_t n, std::size_t p, std::size_t m,
                      std::size_t i0, std::size_t i1) {
  for (std::size_t i = i0; i < i1; ++i) {
    double* crow = cp + i * m;
    for (std::size_t r = 0; r < n; ++r) {
      const double av = ap[r * p + i];
      if (av == 0.0) continue;
      const double* brow = bp + r * m;
      for (std::size_t j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

// ---- scalar float kernels --------------------------------------------------

void s_saxpy(float* y, float a, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void s_smatmul_rows(const float* ap, const float* bp, float* cp, std::size_t k,
                    std::size_t m, std::size_t i0, std::size_t i1) {
  for (std::size_t i = i0; i < i1; ++i) {
    const float* arow = ap + i * k;
    float* crow = cp + i * m;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = bp + kk * m;
      for (std::size_t j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

void s_sspmm_rows(const std::size_t* row_ptr, const std::size_t* col_idx,
                  const float* vals, const float* b, float* c, std::size_t m,
                  std::size_t i0, std::size_t i1) {
  for (std::size_t i = i0; i < i1; ++i) {
    float* crow = c + i * m;
    for (std::size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      const float v = vals[p];
      const float* brow = b + col_idx[p] * m;
      for (std::size_t j = 0; j < m; ++j) crow[j] += v * brow[j];
    }
  }
}

void s_smatmul_panel(const float* ap, const float* bp, float* cp,
                     std::size_t rows, std::size_t k, std::size_t m) {
  s_smatmul_rows(ap, bp, cp, k, m, 0, rows);
}

inline float s_sigmoidf(float x) { return 1.0f / (1.0f + std::exp(-x)); }

void s_lstm_step(const float* gates, float* c, float* h, std::size_t rows,
                 std::size_t hdim) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* g = gates + r * 4 * hdim;
    float* cr = c + r * hdim;
    float* hr = h + r * hdim;
    for (std::size_t j = 0; j < hdim; ++j) {
      const float iv = s_sigmoidf(g[j]);
      const float fv = s_sigmoidf(g[hdim + j]);
      const float ov = s_sigmoidf(g[2 * hdim + j]);
      const float gv = std::tanh(g[3 * hdim + j]);
      const float cc = fv * cr[j] + iv * gv;
      cr[j] = cc;
      hr[j] = ov * std::tanh(cc);
    }
  }
}

void s_gru_step(const float* gx, const float* gh, const float* bias, float* h,
                std::size_t rows, std::size_t hdim) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* x = gx + r * 3 * hdim;
    const float* hh = gh + r * 3 * hdim;
    float* hr = h + r * hdim;
    for (std::size_t j = 0; j < hdim; ++j) {
      const float rg = s_sigmoidf(x[j] + hh[j] + bias[j]);
      const float zg =
          s_sigmoidf(x[hdim + j] + hh[hdim + j] + bias[hdim + j]);
      const float ng = std::tanh(x[2 * hdim + j] + rg * hh[2 * hdim + j] +
                                 bias[2 * hdim + j]);
      hr[j] = ng - zg * ng + zg * hr[j];
    }
  }
}

constexpr Kernels kScalarKernels = {
    s_add,   s_sub,      s_mul,         s_scale,  s_add_into,
    s_sub_into, s_mul_into, s_axpy,     s_fmadd,  s_mul2_add,
    s_matmul_rows, s_spmm_rows, s_matmul_at_rows, s_saxpy, s_smatmul_rows,
    s_sspmm_rows, s_smatmul_panel, s_lstm_step, s_gru_step,
};

// ---- dispatch --------------------------------------------------------------

std::atomic<const Kernels*> g_active{nullptr};
std::mutex g_resolve_mutex;
Isa g_active_isa = Isa::kScalar;

Isa detect_isa() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
      isa_supported(Isa::kAvx2)) {
    return Isa::kAvx2;
  }
#endif
  return Isa::kScalar;
}

const Kernels& resolve() {
  std::lock_guard<std::mutex> lk(g_resolve_mutex);
  const Kernels* p = g_active.load(std::memory_order_acquire);
  if (p != nullptr) return *p;
  const std::optional<Isa> forced = isa_from_env();
  const Isa isa = forced.value_or(detect_isa());
  const Kernels& table = kernels_for(isa);  // throws if env asked too much
  g_active_isa = isa;
  g_active.store(&table, std::memory_order_release);
  return table;
}

}  // namespace

// Implemented in simd_avx2.cpp (returns nullptr when the build target or the
// running CPU cannot execute AVX2+FMA).
const Kernels* avx2_kernels_or_null() noexcept;

bool isa_supported(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
      return avx2_kernels_or_null() != nullptr;
  }
  return false;
}

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
  }
  return "?";
}

std::optional<Isa> isa_from_env() {
  const char* env = std::getenv("RIHGCN_SIMD");
  if (env == nullptr || *env == '\0') return std::nullopt;
  const std::string v(env);
  if (v == "scalar") return Isa::kScalar;
  if (v == "avx2") {
    if (!isa_supported(Isa::kAvx2)) {
      throw std::runtime_error(
          "RIHGCN_SIMD=avx2 but this CPU/build does not support AVX2+FMA");
    }
    return Isa::kAvx2;
  }
  throw std::runtime_error("RIHGCN_SIMD must be 'scalar' or 'avx2', got '" +
                           v + "'");
}

const Kernels& kernels_for(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return kScalarKernels;
    case Isa::kAvx2:
      if (const Kernels* k = avx2_kernels_or_null()) return *k;
      throw std::runtime_error(
          "AVX2 kernels unavailable on this CPU/build (need AVX2+FMA)");
  }
  throw std::runtime_error("unknown SIMD ISA");
}

Isa active_isa() {
  resolve();
  std::lock_guard<std::mutex> lk(g_resolve_mutex);
  return g_active_isa;
}

const Kernels& active_kernels() {
  const Kernels* p = g_active.load(std::memory_order_acquire);
  if (p != nullptr) return *p;
  return resolve();
}

void force_isa(Isa isa) {
  const Kernels& table = kernels_for(isa);  // throws if unsupported
  std::lock_guard<std::mutex> lk(g_resolve_mutex);
  g_active_isa = isa;
  g_active.store(&table, std::memory_order_release);
}

void reset_isa() {
  std::lock_guard<std::mutex> lk(g_resolve_mutex);
  g_active.store(nullptr, std::memory_order_release);
}

}  // namespace rihgcn::simd
