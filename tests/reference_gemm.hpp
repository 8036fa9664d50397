// Naive reference loops for the tape's backward GEMMs, written in the most
// literal form of each per-element contract (tensor/matrix.hpp). The tested
// kernels must match these bit for bit, under every ISA and thread count.
#pragma once

#include <cstddef>
#include <cstring>

#include "tensor/matrix.hpp"

namespace rihgcn::ref {

/// C = A·Bᵀ: one accumulator per element, seeded with 0.0, k-terms added in
/// ascending order.
inline Matrix matmul_bt(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a(i, k) * b(j, k);
      out(i, j) = s;
    }
  }
  return out;
}

/// C += Aᵀ·B: each element seeded from C, r-terms added in ascending order,
/// terms with a_ri == 0 skipped.
inline void matmul_at_accumulate(const Matrix& a, const Matrix& b,
                                 Matrix& out) {
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = out(i, j);
      for (std::size_t r = 0; r < a.rows(); ++r) {
        if (a(r, i) == 0.0) continue;
        s += a(r, i) * b(r, j);
      }
      out(i, j) = s;
    }
  }
}

inline Matrix matmul_at(const Matrix& a, const Matrix& b) {
  Matrix out(a.cols(), b.cols());
  ref::matmul_at_accumulate(a, b, out);
  return out;
}

/// Same shape and same bit patterns — unlike Matrix ==, this tells -0.0
/// from +0.0 and compares NaNs by representation.
inline bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace rihgcn::ref
