#include "tensor/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "reference_gemm.hpp"

namespace rihgcn {
namespace {

TEST(Matrix, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, ZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(m(r, c), 0.0);
  }
}

TEST(Matrix, FillConstructor) {
  Matrix m(2, 2, 7.5);
  EXPECT_EQ(m(0, 0), 7.5);
  EXPECT_EQ(m(1, 1), 7.5);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
}

TEST(Matrix, InitializerListRaggedThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), ShapeError);
}

TEST(Matrix, FlatBufferConstructor) {
  Matrix m(2, 3, std::vector<double>{1, 2, 3, 4, 5, 6});
  EXPECT_EQ(m(1, 2), 6.0);
}

TEST(Matrix, FlatBufferSizeMismatchThrows) {
  EXPECT_THROW(Matrix(2, 3, std::vector<double>{1, 2}), ShapeError);
}

TEST(Matrix, AtBoundsChecked) {
  Matrix m(2, 2);
  EXPECT_THROW((void)m.at(2, 0), ShapeError);
  EXPECT_THROW((void)m.at(0, 2), ShapeError);
  EXPECT_NO_THROW((void)m.at(1, 1));
}

TEST(Matrix, Identity) {
  Matrix i = Matrix::identity(3);
  EXPECT_EQ(i(0, 0), 1.0);
  EXPECT_EQ(i(1, 1), 1.0);
  EXPECT_EQ(i(0, 1), 0.0);
}

TEST(Matrix, RowColVectorFactories) {
  Matrix r = Matrix::row_vector({1, 2, 3});
  EXPECT_EQ(r.rows(), 1u);
  EXPECT_EQ(r.cols(), 3u);
  Matrix c = Matrix::col_vector({1, 2});
  EXPECT_EQ(c.rows(), 2u);
  EXPECT_EQ(c.cols(), 1u);
}

TEST(Matrix, AddSubInPlace) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{1, 1}, {1, 1}};
  a += b;
  EXPECT_EQ(a(0, 0), 2.0);
  a -= b;
  EXPECT_EQ(a(0, 0), 1.0);
}

TEST(Matrix, AddShapeMismatchThrows) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_THROW(a += b, ShapeError);
  EXPECT_THROW(a -= b, ShapeError);
  EXPECT_THROW(a.hadamard_inplace(b), ShapeError);
}

TEST(Matrix, ScalarMultiply) {
  Matrix a{{2, 4}};
  a *= 0.5;
  EXPECT_EQ(a(0, 0), 1.0);
  EXPECT_EQ(a(0, 1), 2.0);
  Matrix b = a * 3.0;
  EXPECT_EQ(b(0, 1), 6.0);
  Matrix c = 3.0 * a;
  EXPECT_EQ(c(0, 1), 6.0);
}

TEST(Matrix, Hadamard) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{2, 0}, {1, 2}};
  Matrix h = hadamard(a, b);
  EXPECT_EQ(h(0, 0), 2.0);
  EXPECT_EQ(h(0, 1), 0.0);
  EXPECT_EQ(h(1, 1), 8.0);
}

TEST(Matrix, Matmul) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c = matmul(a, b);
  EXPECT_EQ(c(0, 0), 19.0);
  EXPECT_EQ(c(0, 1), 22.0);
  EXPECT_EQ(c(1, 0), 43.0);
  EXPECT_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MatmulShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW((void)matmul(a, b), ShapeError);
}

TEST(Matrix, MatmulIdentity) {
  Matrix a{{1, 2}, {3, 4}};
  EXPECT_TRUE(allclose(matmul(a, Matrix::identity(2)), a));
  EXPECT_TRUE(allclose(matmul(Matrix::identity(2), a), a));
}

TEST(Matrix, MatmulBtMatchesExplicitTranspose) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  Matrix b{{7, 8, 9}, {1, 2, 3}};
  EXPECT_TRUE(ref::same_bits(matmul_bt(a, b), ref::matmul_bt(a, b)));
  EXPECT_TRUE(ref::same_bits(matmul_bt(a, b), matmul(a, b.transposed())));
}

TEST(Matrix, MatmulAtMatchesExplicitTranspose) {
  Matrix a{{1, 2}, {3, 4}, {5, 6}};
  Matrix b{{7, 8}, {9, 1}, {2, 3}};
  EXPECT_TRUE(ref::same_bits(matmul_at(a, b), ref::matmul_at(a, b)));
  EXPECT_TRUE(ref::same_bits(matmul_at(a, b), matmul(a.transposed(), b)));
}

TEST(Matrix, Transposed) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t(2, 1), 6.0);
}

TEST(Matrix, SliceCols) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  Matrix s = a.slice_cols(1, 3);
  EXPECT_EQ(s.cols(), 2u);
  EXPECT_EQ(s(0, 0), 2.0);
  EXPECT_EQ(s(1, 1), 6.0);
  EXPECT_THROW((void)a.slice_cols(2, 4), ShapeError);
}

TEST(Matrix, SliceRows) {
  Matrix a{{1, 2}, {3, 4}, {5, 6}};
  Matrix s = a.slice_rows(1, 3);
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_EQ(s(0, 0), 3.0);
  EXPECT_THROW((void)a.slice_rows(2, 4), ShapeError);
}

TEST(Matrix, SetColsAndRows) {
  Matrix a(2, 3);
  a.set_cols(1, Matrix{{9}, {8}});
  EXPECT_EQ(a(0, 1), 9.0);
  EXPECT_EQ(a(1, 1), 8.0);
  a.set_rows(0, Matrix{{1, 2, 3}});
  EXPECT_EQ(a(0, 2), 3.0);
  EXPECT_THROW(a.set_cols(2, Matrix(2, 2)), ShapeError);
}

TEST(Matrix, Reductions) {
  Matrix a{{1, 2}, {3, 4}};
  EXPECT_EQ(a.sum(), 10.0);
  EXPECT_EQ(a.mean(), 2.5);
  EXPECT_EQ(a.min(), 1.0);
  EXPECT_EQ(a.max(), 4.0);
  EXPECT_NEAR(a.norm(), std::sqrt(30.0), 1e-12);
  EXPECT_EQ(a.abs_max(), 4.0);
}

TEST(Matrix, EmptyReductionsThrow) {
  Matrix m;
  EXPECT_THROW((void)m.mean(), ShapeError);
  EXPECT_THROW((void)m.min(), ShapeError);
  EXPECT_THROW((void)m.max(), ShapeError);
}

TEST(Matrix, HasNonFinite) {
  Matrix a{{1, 2}};
  EXPECT_FALSE(a.has_non_finite());
  a(0, 0) = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(a.has_non_finite());
  a(0, 0) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(a.has_non_finite());
}

TEST(Matrix, ColMeanStd) {
  Matrix a{{1, 10}, {3, 10}};
  Matrix mu = a.col_mean();
  EXPECT_EQ(mu(0, 0), 2.0);
  EXPECT_EQ(mu(0, 1), 10.0);
  Matrix sd = a.col_std();
  EXPECT_NEAR(sd(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(sd(0, 1), 0.0, 1e-12);
}

TEST(Matrix, RowSum) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix s = a.row_sum();
  EXPECT_EQ(s(0, 0), 3.0);
  EXPECT_EQ(s(1, 0), 7.0);
}

TEST(Matrix, AddRowBroadcast) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix row{{10, 20}};
  Matrix out = add_row_broadcast(a, row);
  EXPECT_EQ(out(0, 0), 11.0);
  EXPECT_EQ(out(1, 1), 24.0);
  EXPECT_THROW((void)add_row_broadcast(a, Matrix(1, 3)), ShapeError);
}

TEST(Matrix, HcatVcat) {
  Matrix a{{1}, {2}};
  Matrix b{{3}, {4}};
  Matrix h = hcat(a, b);
  EXPECT_EQ(h.cols(), 2u);
  EXPECT_EQ(h(1, 1), 4.0);
  Matrix v = vcat(a, b);
  EXPECT_EQ(v.rows(), 4u);
  EXPECT_EQ(v(3, 0), 4.0);
  EXPECT_THROW((void)hcat(a, Matrix(3, 1)), ShapeError);
  EXPECT_THROW((void)vcat(a, Matrix(2, 2)), ShapeError);
}

TEST(Matrix, MapAndZip) {
  Matrix a{{1, -2}};
  Matrix m = map(a, [](double x) { return x * x; });
  EXPECT_EQ(m(0, 1), 4.0);
  Matrix z = zip(a, m, [](double x, double y) { return x + y; });
  EXPECT_EQ(z(0, 1), 2.0);
  EXPECT_THROW((void)zip(a, Matrix(2, 2), [](double, double) { return 0.0; }),
               ShapeError);
}

TEST(Matrix, MaxAbsDiffAndAllclose) {
  Matrix a{{1.0, 2.0}};
  Matrix b{{1.0, 2.0 + 1e-12}};
  EXPECT_LT(max_abs_diff(a, b), 1e-10);
  EXPECT_TRUE(allclose(a, b, 1e-10));
  EXPECT_FALSE(allclose(a, Matrix(1, 3), 1e-10));
}

TEST(Matrix, EqualityOperator) {
  Matrix a{{1, 2}};
  Matrix b{{1, 2}};
  EXPECT_TRUE(a == b);
  b(0, 0) = 9;
  EXPECT_FALSE(a == b);
}

TEST(Matrix, StreamOutput) {
  Matrix a{{1, 2}};
  std::ostringstream os;
  os << a;
  EXPECT_NE(os.str().find("1x2"), std::string::npos);
}

TEST(Matrix, MatmulAccumulateAddsIntoOutput) {
  Matrix a{{1, 0}, {0, 1}};
  Matrix b{{2, 3}, {4, 5}};
  Matrix out(2, 2, 1.0);
  matmul_accumulate(a, b, out);
  EXPECT_EQ(out(0, 0), 3.0);
  EXPECT_EQ(out(1, 1), 6.0);
  Matrix bad(3, 2);
  EXPECT_THROW(matmul_accumulate(a, b, bad), ShapeError);
}

// Property sweep: (AB)C == A(BC) across shapes.
class MatmulAssocTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(MatmulAssocTest, Associativity) {
  auto [n, k, m, p] = GetParam();
  Matrix a(static_cast<std::size_t>(n), static_cast<std::size_t>(k));
  Matrix b(static_cast<std::size_t>(k), static_cast<std::size_t>(m));
  Matrix c(static_cast<std::size_t>(m), static_cast<std::size_t>(p));
  // Deterministic pseudo-random contents.
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = std::sin(1.0 + static_cast<double>(i));
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = std::cos(2.0 + static_cast<double>(i));
  for (std::size_t i = 0; i < c.size(); ++i) c.data()[i] = std::sin(3.0 + 2.0 * static_cast<double>(i));
  EXPECT_TRUE(
      allclose(matmul(matmul(a, b), c), matmul(a, matmul(b, c)), 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatmulAssocTest,
                         ::testing::Values(std::tuple{1, 1, 1, 1},
                                           std::tuple{2, 3, 4, 5},
                                           std::tuple{5, 1, 7, 2},
                                           std::tuple{8, 8, 8, 8},
                                           std::tuple{1, 9, 2, 6}));

}  // namespace
}  // namespace rihgcn
