// Plain std::complex reference kernels used as oracles by the tests: the
// textbook loops the production GEMM / rank-k paths are checked against.
// No SIMD path and no library caller — the STAP kernels run through
// linalg/cgemm.hpp and the factorizations.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <type_traits>

#include "common/error.hpp"
#include "linalg/cmatrix.hpp"

namespace pstap::linalg::ref {

// Vector arguments are non-deduced: T comes from the matrix, so callers can
// pass std::vector directly.
template <typename T>
using In = std::type_identity_t<std::span<const std::complex<T>>>;
template <typename T>
using Out = std::type_identity_t<std::span<std::complex<T>>>;

/// Hermitian rank-1 update: A += alpha * x * x^H (square, |x| == rows).
template <typename T>
void her_update(CMatrix<T>& a, In<T> x, std::type_identity_t<T> alpha) {
  PSTAP_REQUIRE(a.rows() == a.cols() && x.size() == a.rows(),
                "her_update shape mismatch");
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const std::complex<T> xi = x[i];
    for (std::size_t j = 0; j < a.cols(); ++j) {
      a(i, j) += alpha * xi * std::conj(x[j]);
    }
  }
}

/// y = A * x.
template <typename T>
void matvec(const CMatrix<T>& a, In<T> x, Out<T> y) {
  PSTAP_REQUIRE(x.size() == a.cols() && y.size() == a.rows(),
                "matvec shape mismatch");
  for (std::size_t i = 0; i < a.rows(); ++i) {
    std::complex<T> acc{};
    for (std::size_t j = 0; j < a.cols(); ++j) acc += a(i, j) * x[j];
    y[i] = acc;
  }
}

/// y = A^H * x.
template <typename T>
void matvec_herm(const CMatrix<T>& a, In<T> x, Out<T> y) {
  PSTAP_REQUIRE(x.size() == a.rows() && y.size() == a.cols(),
                "matvec_herm shape mismatch");
  for (auto& v : y) v = {};
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const std::complex<T> xi = x[i];
    for (std::size_t j = 0; j < a.cols(); ++j) y[j] += std::conj(a(i, j)) * xi;
  }
}

/// Hermitian inner product <x, y> = x^H y.
template <typename T>
std::complex<T> cdot(std::span<const std::complex<T>> x,
                     std::span<const std::complex<T>> y) {
  PSTAP_REQUIRE(x.size() == y.size(), "cdot size mismatch");
  std::complex<T> acc{};
  for (std::size_t i = 0; i < x.size(); ++i) acc += std::conj(x[i]) * y[i];
  return acc;
}

/// Squared 2-norm.
template <typename T>
T norm2_sq(std::span<const std::complex<T>> x) {
  T acc{};
  for (const auto& v : x) acc += std::norm(v);
  return acc;
}

}  // namespace pstap::linalg::ref
