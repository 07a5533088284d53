// Fundamental value types and unit helpers used across pstap.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>

namespace pstap {

/// Single-precision complex sample — the radar data element type.
/// 8 bytes, matching the data volumes the paper reports for CPI files.
using cfloat = std::complex<float>;

/// Double-precision complex, used inside numerically sensitive kernels
/// (covariance accumulation, Cholesky) before rounding back to cfloat.
using cdouble = std::complex<double>;

/// Simulated or measured time in seconds.
using Seconds = double;

/// Byte-count convenience constants.
inline constexpr std::size_t KiB = 1024;
inline constexpr std::size_t MiB = 1024 * KiB;
inline constexpr std::size_t GiB = 1024 * MiB;

/// Convert a linear power ratio to decibels.
inline double to_db(double ratio) { return 10.0 * std::log10(ratio); }

/// Convert decibels to a linear power ratio.
inline double from_db(double db) { return std::pow(10.0, db / 10.0); }

/// Integer ceiling division for non-negative values.
template <typename T>
constexpr T ceil_div(T a, T b) {
  return (a + b - 1) / b;
}

/// Round `a` up to the next multiple of `b` (b > 0).
template <typename T>
constexpr T round_up(T a, T b) {
  return ceil_div(a, b) * b;
}

/// Smallest power of two >= v (v >= 1).
constexpr std::size_t next_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace pstap
