// Dense complex matrix storage used by the adaptive-weight kernels.
#pragma once

#include <algorithm>
#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace pstap::linalg {

/// Row-major dense matrix of std::complex<T>.
///
/// Deliberately minimal: storage and element access only. The STAP kernels
/// run their products through linalg/cgemm.hpp and the factorizations.
template <typename T>
class CMatrix {
 public:
  using value_type = std::complex<T>;

  CMatrix() = default;
  CMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, value_type{}) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  value_type& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  const value_type& operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Span over row r.
  std::span<value_type> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const value_type> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  std::span<value_type> flat() noexcept { return {data_.data(), data_.size()}; }
  std::span<const value_type> flat() const noexcept {
    return {data_.data(), data_.size()};
  }

  void set_zero() { std::fill(data_.begin(), data_.end(), value_type{}); }

  /// Set to the identity scaled by `diag` (square matrices only).
  void set_scaled_identity(value_type diag) {
    PSTAP_REQUIRE(rows_ == cols_, "identity requires a square matrix");
    set_zero();
    for (std::size_t i = 0; i < rows_; ++i) (*this)(i, i) = diag;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<value_type> data_;
};

using CMatF = CMatrix<float>;
using CMatD = CMatrix<double>;

}  // namespace pstap::linalg
