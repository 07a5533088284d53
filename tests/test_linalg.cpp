// Tests for the complex linear-algebra substrate: matrix storage and the
// reference kernels other suites use as oracles, and Cholesky factor/solve
// on random HPD systems (the STAP weight path's solver).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/cmatrix.hpp"
#include "linalg_reference.hpp"

namespace pstap::linalg {
namespace {

using cd = std::complex<double>;

CMatrix<double> random_matrix(std::size_t m, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  CMatrix<double> a(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      a(i, j) = {rng.normal(), rng.normal()};
  return a;
}

// HPD matrix via A = B B^H + eps I.
CMatrix<double> random_hpd(std::size_t n, std::uint64_t seed) {
  auto b = random_matrix(n, n, seed);
  CMatrix<double> a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      cd acc{};
      for (std::size_t k = 0; k < n; ++k) acc += b(i, k) * std::conj(b(j, k));
      a(i, j) = acc;
    }
    a(i, i) += 0.1;
  }
  return a;
}

std::vector<cd> random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cd> v(n);
  for (auto& x : v) x = {rng.normal(), rng.normal()};
  return v;
}

double residual(const CMatrix<double>& a, std::span<const cd> x,
                std::span<const cd> b) {
  std::vector<cd> ax(a.rows());
  ref::matvec(a, x, ax);
  double num = 0, den = 1e-300;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    num += std::norm(ax[i] - b[i]);
    den += std::norm(b[i]);
  }
  return std::sqrt(num / den);
}

// ---------------------------------------------------------------- matrix --

TEST(CMatrixTest, ElementAccessAndRowSpans) {
  CMatrix<float> a(2, 3);
  a(1, 2) = {5.0f, -1.0f};
  EXPECT_EQ(a.row(1)[2], (std::complex<float>{5.0f, -1.0f}));
  EXPECT_EQ(a.rows(), 2u);
  EXPECT_EQ(a.cols(), 3u);
  EXPECT_EQ(a.flat().size(), 6u);
}

TEST(CMatrixTest, ScaledIdentity) {
  CMatrix<double> a(3, 3);
  a.set_scaled_identity({2.0, 0.0});
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_EQ(a(i, j), (i == j ? cd{2.0, 0.0} : cd{}));
}

TEST(CMatrixTest, ScaledIdentityRequiresSquare) {
  CMatrix<double> a(2, 3);
  EXPECT_THROW(a.set_scaled_identity({1.0, 0.0}), PreconditionError);
}

TEST(CMatrixTest, HerUpdateBuildsOuterProduct) {
  CMatrix<double> a(2, 2);
  std::vector<cd> x{{1.0, 1.0}, {2.0, 0.0}};
  ref::her_update(a, x, 1.0);
  // x x^H = [ |x0|^2        x0*conj(x1) ; x1*conj(x0)  |x1|^2 ]
  EXPECT_NEAR(a(0, 0).real(), 2.0, 1e-12);
  EXPECT_NEAR(a(1, 1).real(), 4.0, 1e-12);
  EXPECT_NEAR(std::abs(a(0, 1) - cd(2.0, 2.0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(a(1, 0) - std::conj(a(0, 1))), 0.0, 1e-12);
}

TEST(CMatrixTest, HerUpdateAccumulatesHermitian) {
  auto a = CMatrix<double>(4, 4);
  Rng rng(5);
  for (int s = 0; s < 10; ++s) {
    std::vector<cd> x(4);
    for (auto& v : x) v = {rng.normal(), rng.normal()};
    ref::her_update(a, x, 0.1);
  }
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(a(i, i).imag(), 0.0, 1e-12);
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(std::abs(a(i, j) - std::conj(a(j, i))), 0.0, 1e-12);
    }
  }
}

TEST(CMatrixTest, MatvecAgainstHandComputed) {
  CMatrix<double> a(2, 2);
  a(0, 0) = {1, 0}; a(0, 1) = {0, 1};
  a(1, 0) = {2, 0}; a(1, 1) = {0, 0};
  std::vector<cd> x{{1, 0}, {1, 0}}, y(2);
  ref::matvec(a, x, y);
  EXPECT_NEAR(std::abs(y[0] - cd(1, 1)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(y[1] - cd(2, 0)), 0.0, 1e-12);
}

TEST(CMatrixTest, MatvecHermIsAdjoint) {
  auto a = random_matrix(3, 4, 77);
  auto x = random_vector(4, 78);
  auto y = random_vector(3, 79);
  // <y, A x> == <A^H y, x>
  std::vector<cd> ax(3), ahy(4);
  ref::matvec(a, x, ax);
  ref::matvec_herm(a, y, ahy);
  cd lhs{}, rhs{};
  for (std::size_t i = 0; i < 3; ++i) lhs += std::conj(y[i]) * ax[i];
  for (std::size_t j = 0; j < 4; ++j) rhs += std::conj(ahy[j]) * x[j];
  EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-10);
}

TEST(CMatrixTest, CdotAndNorm) {
  std::vector<cd> x{{1, 1}, {0, 2}};
  std::vector<cd> y{{2, 0}, {1, 0}};
  const cd d = ref::cdot<double>(x, y);
  EXPECT_NEAR(std::abs(d - (std::conj(cd(1, 1)) * cd(2, 0) + std::conj(cd(0, 2)))), 0.0,
              1e-12);
  EXPECT_NEAR(ref::norm2_sq<double>(x), 1 + 1 + 4, 1e-12);
}

// -------------------------------------------------------------- cholesky --

class CholeskySizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CholeskySizes, SolveResidualIsSmall) {
  const std::size_t n = GetParam();
  auto a = random_hpd(n, 1000 + n);
  const auto a_copy = a;
  auto b = random_vector(n, 2000 + n);
  std::vector<cd> x = b;
  ASSERT_TRUE(solve_hpd(a, std::span<cd>(x)));
  EXPECT_LT(residual(a_copy, x, b), 1e-10) << "n=" << n;
}

TEST_P(CholeskySizes, FactorReconstructsMatrix) {
  const std::size_t n = GetParam();
  auto a = random_hpd(n, 3000 + n);
  const auto original = a;
  ASSERT_TRUE(cholesky_factor(a));
  // Reconstruct L L^H and compare.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      cd acc{};
      for (std::size_t k = 0; k <= j; ++k) acc += a(i, k) * std::conj(a(j, k));
      EXPECT_NEAR(std::abs(acc - original(i, j)), 0.0, 1e-8 * (1.0 + std::abs(original(i, j))))
          << "i=" << i << " j=" << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySizes, ::testing::Values(1, 2, 3, 4, 8, 16, 32, 64));

TEST(Cholesky, DetectsIndefiniteMatrix) {
  CMatrix<double> a(2, 2);
  a(0, 0) = {1, 0}; a(0, 1) = {0, 0};
  a(1, 0) = {0, 0}; a(1, 1) = {-1, 0};
  EXPECT_FALSE(cholesky_factor(a));
}

TEST(Cholesky, DetectsSingularMatrix) {
  CMatrix<double> a(2, 2);  // rank 1
  a(0, 0) = {1, 0}; a(0, 1) = {1, 0};
  a(1, 0) = {1, 0}; a(1, 1) = {1, 0};
  EXPECT_FALSE(cholesky_factor(a));
}

TEST(Cholesky, IdentitySolveReturnsRhs) {
  CMatrix<double> a(3, 3);
  a.set_scaled_identity({1.0, 0.0});
  std::vector<cd> b{{1, 2}, {3, 4}, {5, 6}};
  const auto expected = b;
  ASSERT_TRUE(solve_hpd(a, std::span<cd>(b)));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(std::abs(b[i] - expected[i]), 0.0, 1e-12);
  }
}

TEST(Cholesky, RejectsNonSquare) {
  CMatrix<double> a(2, 3);
  EXPECT_THROW((void)cholesky_factor(a), PreconditionError);
}

TEST(Cholesky, FloatPrecisionVariantWorks) {
  using cf = std::complex<float>;
  CMatrix<float> a(2, 2);
  a(0, 0) = {4, 0}; a(0, 1) = {0, 1};
  a(1, 0) = {0, -1}; a(1, 1) = {3, 0};
  std::vector<cf> b{{1, 0}, {0, 1}};
  ASSERT_TRUE(solve_hpd(a, std::span<cf>(b)));
  // Verify A x = b against the original matrix by direct multiply.
  const cf ax0 = cf{4, 0} * b[0] + cf{0, 1} * b[1];
  const cf ax1 = cf{0, -1} * b[0] + cf{3, 0} * b[1];
  EXPECT_NEAR(std::abs(ax0 - cf{1, 0}), 0.0, 1e-5);
  EXPECT_NEAR(std::abs(ax1 - cf{0, 1}), 0.0, 1e-5);
}

}  // namespace
}  // namespace pstap::linalg
