// Dense row-major matrix of doubles: the numeric workhorse underneath the
// autodiff tape, the neural-network layers and the classical baselines.
//
// Design notes
//  * Value semantics: a Matrix owns its storage; copies are deep. All model
//    state (parameters, activations, gradients) is built from Matrix values,
//    which keeps ownership trivial (C++ Core Guidelines R.1, C.20).
//  * Shapes are checked on every binary operation; mismatches throw
//    ShapeError. Silent broadcasting bugs are the classic failure mode of
//    hand-rolled DL stacks, so we make every shape rule explicit.
//  * double precision throughout: problem sizes here are small (tens of
//    nodes, hundreds of timesteps), and double makes the numerical gradient
//    checks in tests/autodiff meaningful to ~1e-6 relative error.
#pragma once

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

namespace rihgcn {

/// Thrown when matrix dimensions are incompatible with the requested op.
class ShapeError : public std::runtime_error {
 public:
  explicit ShapeError(const std::string& what) : std::runtime_error(what) {}
};

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// rows x cols matrix with every element set to `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Build from nested initializer list: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  /// Build from a flat row-major buffer (size must equal rows*cols).
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked access (tests and debugging).
  [[nodiscard]] double& at(std::size_t r, std::size_t c);
  [[nodiscard]] double at(std::size_t r, std::size_t c) const;

  [[nodiscard]] double* data() noexcept { return data_.data(); }
  [[nodiscard]] const double* data() const noexcept { return data_.data(); }
  [[nodiscard]] std::vector<double>& storage() noexcept { return data_; }
  [[nodiscard]] const std::vector<double>& storage() const noexcept {
    return data_;
  }

  [[nodiscard]] bool same_shape(const Matrix& other) const noexcept {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// Factory: identity matrix.
  [[nodiscard]] static Matrix identity(std::size_t n);
  /// Factory: every element = value.
  [[nodiscard]] static Matrix constant(std::size_t rows, std::size_t cols,
                                       double value);
  /// Factory: single row from a vector.
  [[nodiscard]] static Matrix row_vector(const std::vector<double>& v);
  /// Factory: single column from a vector.
  [[nodiscard]] static Matrix col_vector(const std::vector<double>& v);

  // ---- In-place mutators -------------------------------------------------
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double s);
  /// Elementwise (Hadamard) in-place product.
  Matrix& hadamard_inplace(const Matrix& other);
  /// Set every element to `value`.
  void fill(double value);
  /// Apply `f` to every element in place. For large matrices `f` is invoked
  /// from the worker threads of the global ThreadPool, so it must be safe to
  /// call concurrently (every callsite uses stateless lambdas).
  void apply(const std::function<double(double)>& f);

  // ---- Views / slices (deep copies — storage is always owned) ------------
  [[nodiscard]] Matrix row(std::size_t r) const;
  [[nodiscard]] Matrix col(std::size_t c) const;
  /// Columns [c0, c1) as a new rows x (c1-c0) matrix.
  [[nodiscard]] Matrix slice_cols(std::size_t c0, std::size_t c1) const;
  /// Rows [r0, r1) as a new (r1-r0) x cols matrix.
  [[nodiscard]] Matrix slice_rows(std::size_t r0, std::size_t r1) const;
  /// Write `src` into columns starting at c0 (shapes must fit).
  void set_cols(std::size_t c0, const Matrix& src);
  /// Write `src` into rows starting at r0 (shapes must fit).
  void set_rows(std::size_t r0, const Matrix& src);

  [[nodiscard]] Matrix transposed() const;

  // ---- Reductions ---------------------------------------------------------
  [[nodiscard]] double sum() const noexcept;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// Frobenius norm.
  [[nodiscard]] double norm() const noexcept;
  /// Largest |element|.
  [[nodiscard]] double abs_max() const noexcept;
  /// true if any element is NaN or +/-inf.
  [[nodiscard]] bool has_non_finite() const noexcept;
  /// Per-column mean as a 1 x cols matrix.
  [[nodiscard]] Matrix col_mean() const;
  /// Per-column (population) standard deviation as a 1 x cols matrix.
  [[nodiscard]] Matrix col_std() const;
  /// Per-row sum as a rows x 1 matrix.
  [[nodiscard]] Matrix row_sum() const;

  friend bool operator==(const Matrix& a, const Matrix& b) noexcept {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// ---- Free-function kernels -------------------------------------------------
//
// The matmul family and the large-size elementwise/transpose paths run on
// the global ThreadPool (tensor/parallel.hpp). Partitioning is by output
// rows with fixed chunk boundaries and every output element keeps the exact
// serial accumulation order (ascending k), so results are bit-for-bit
// identical for any thread count — see DESIGN.md §8.

/// C = A * B (throws ShapeError unless A.cols == B.rows).
[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b);
/// C += A * B into a preallocated output (avoids allocation in hot loops).
void matmul_accumulate(const Matrix& a, const Matrix& b, Matrix& out);

namespace detail {
/// The seed single-threaded i-k-j kernel, kept verbatim as the ground-truth
/// reference for the parallel backend's property tests and as the baseline
/// in bench_micro. C += A * B; shapes must already agree.
void matmul_naive(const Matrix& a, const Matrix& b, Matrix& out);
}  // namespace detail
/// C = A * B^T without materializing the transpose.
[[nodiscard]] Matrix matmul_bt(const Matrix& a, const Matrix& b);
/// C = A * B^T into a preallocated output. Every element is overwritten
/// (0.0 plus its k-terms in ascending order), so `out` need not be zeroed.
void matmul_bt_into(const Matrix& a, const Matrix& b, Matrix& out);
/// C = A^T * B without materializing the transpose.
[[nodiscard]] Matrix matmul_at(const Matrix& a, const Matrix& b);
/// C += A^T * B into a preallocated output; zero `out` first for the plain
/// product. Same ascending-r accumulation order as matmul_at, and terms with
/// a_ri == 0 are skipped (the spmm_t parity in tensor/csr.hpp).
void matmul_at_accumulate(const Matrix& a, const Matrix& b, Matrix& out);

[[nodiscard]] Matrix operator+(const Matrix& a, const Matrix& b);
[[nodiscard]] Matrix operator-(const Matrix& a, const Matrix& b);
[[nodiscard]] Matrix operator*(const Matrix& a, double s);
[[nodiscard]] Matrix operator*(double s, const Matrix& a);

/// Elementwise (Hadamard) product.
[[nodiscard]] Matrix hadamard(const Matrix& a, const Matrix& b);
/// Elementwise map: out[i] = f(a[i]).
[[nodiscard]] Matrix map(const Matrix& a,
                         const std::function<double(double)>& f);
/// Elementwise zip: out[i] = f(a[i], b[i]).
[[nodiscard]] Matrix zip(const Matrix& a, const Matrix& b,
                         const std::function<double(double, double)>& f);
/// Add a 1 x cols row vector to every row of `a`.
[[nodiscard]] Matrix add_row_broadcast(const Matrix& a, const Matrix& row);
/// Horizontal concatenation [a | b].
[[nodiscard]] Matrix hcat(const Matrix& a, const Matrix& b);
/// Vertical concatenation [a ; b].
[[nodiscard]] Matrix vcat(const Matrix& a, const Matrix& b);

/// max |a - b| over all elements; throws on shape mismatch.
[[nodiscard]] double max_abs_diff(const Matrix& a, const Matrix& b);
/// true if all elements agree within `tol`.
[[nodiscard]] bool allclose(const Matrix& a, const Matrix& b,
                            double tol = 1e-9);

std::ostream& operator<<(std::ostream& os, const Matrix& m);

}  // namespace rihgcn
