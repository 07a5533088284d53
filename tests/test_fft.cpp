// Tests for the FFT substrate: analytic spot checks, round-trip and
// Parseval properties (parameterized over lengths, incl. the mixed-radix
// and Rader paths), a double-precision DFT oracle on every SIMD backend,
// linearity, shift theorem, strided/batched interfaces.
// transform() is a batch of one through the SoA engine, so every case
// below runs the same kernels as the batched paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <span>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/types.hpp"
#include "fft/fft.hpp"

namespace pstap::fft {
namespace {

std::vector<cfloat> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cfloat> v(n);
  for (auto& x : v) x = rng.complex_normal();
  return v;
}

// O(n^2) reference DFT used as the oracle.
std::vector<cfloat> naive_dft(const std::vector<cfloat>& x, bool inverse) {
  const std::size_t n = x.size();
  std::vector<cfloat> out(n);
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t k = 0; k < n; ++k) {
    cdouble acc{};
    for (std::size_t t = 0; t < n; ++t) {
      const double ang = sign * 2.0 * std::numbers::pi *
                         static_cast<double>(k * t % n) / static_cast<double>(n);
      acc += cdouble(x[t].real(), x[t].imag()) * cdouble(std::cos(ang), std::sin(ang));
    }
    if (inverse) acc /= static_cast<double>(n);
    out[k] = cfloat(static_cast<float>(acc.real()), static_cast<float>(acc.imag()));
  }
  return out;
}

double max_abs_diff(const std::vector<cfloat>& a, const std::vector<cfloat>& b) {
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, double(std::abs(a[i] - b[i])));
  return m;
}

// -------------------------------------------------------- analytic cases --

TEST(Fft, LengthOneIsIdentity) {
  std::vector<cfloat> x{{3.0f, -2.0f}};
  FftPlan plan(1);
  plan.transform(x, Direction::kForward);
  EXPECT_FLOAT_EQ(x[0].real(), 3.0f);
  EXPECT_FLOAT_EQ(x[0].imag(), -2.0f);
}

TEST(Fft, DeltaTransformsToFlatSpectrum) {
  std::vector<cfloat> x(8, cfloat{});
  x[0] = {1.0f, 0.0f};
  FftPlan plan(8);
  plan.transform(x, Direction::kForward);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0f, 1e-6);
    EXPECT_NEAR(v.imag(), 0.0f, 1e-6);
  }
}

TEST(Fft, ConstantTransformsToDelta) {
  std::vector<cfloat> x(16, cfloat{1.0f, 0.0f});
  FftPlan plan(16);
  plan.transform(x, Direction::kForward);
  EXPECT_NEAR(x[0].real(), 16.0f, 1e-5);
  for (std::size_t k = 1; k < 16; ++k) EXPECT_NEAR(std::abs(x[k]), 0.0f, 1e-5);
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  const std::size_t bin = 5;
  std::vector<cfloat> x(n);
  for (std::size_t t = 0; t < n; ++t) {
    const double ang = 2.0 * std::numbers::pi * double(bin * t) / double(n);
    x[t] = {static_cast<float>(std::cos(ang)), static_cast<float>(std::sin(ang))};
  }
  FftPlan plan(n);
  plan.transform(x, Direction::kForward);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == bin) {
      EXPECT_NEAR(std::abs(x[k]), double(n), 1e-3);
    } else {
      EXPECT_NEAR(std::abs(x[k]), 0.0, 1e-3);
    }
  }
}

TEST(Fft, MatchesNaiveDftPow2) {
  auto x = random_signal(32, 1);
  auto expected = naive_dft(x, false);
  FftPlan plan(32);
  plan.transform(x, Direction::kForward);
  EXPECT_LT(max_abs_diff(x, expected), 1e-4);
}

TEST(Fft, MatchesNaiveDftNonPow2) {
  for (std::size_t n : {3u, 5u, 6u, 7u, 12u, 15u, 21u, 100u}) {
    auto x = random_signal(n, 100 + n);
    auto expected = naive_dft(x, false);
    FftPlan plan(n);
    plan.transform(x, Direction::kForward);
    EXPECT_LT(max_abs_diff(x, expected), 2e-4) << "n=" << n;
  }
}

// ------------------------------------------------- parameterized properties --

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, InverseUndoesForward) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 7 * n + 1);
  const auto original = x;
  FftPlan plan(n);
  plan.transform(x, Direction::kForward);
  plan.transform(x, Direction::kInverse);
  EXPECT_LT(max_abs_diff(x, original), 1e-4) << "n=" << n;
}

TEST_P(FftRoundTrip, ParsevalEnergyPreserved) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 13 * n + 5);
  double time_energy = 0;
  for (const auto& v : x) time_energy += std::norm(v);
  FftPlan plan(n);
  plan.transform(x, Direction::kForward);
  double freq_energy = 0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / double(n), time_energy, 1e-3 * time_energy + 1e-6);
}

TEST_P(FftRoundTrip, LinearityHolds) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 17 * n);
  auto y = random_signal(n, 19 * n);
  const cfloat alpha{2.0f, -1.0f};
  std::vector<cfloat> combo(n);
  for (std::size_t i = 0; i < n; ++i) combo[i] = alpha * x[i] + y[i];
  FftPlan plan(n);
  plan.transform(x, Direction::kForward);
  plan.transform(y, Direction::kForward);
  plan.transform(combo, Direction::kForward);
  std::vector<cfloat> expected(n);
  for (std::size_t i = 0; i < n; ++i) expected[i] = alpha * x[i] + y[i];
  EXPECT_LT(max_abs_diff(combo, expected), 2e-3) << "n=" << n;
}

TEST_P(FftRoundTrip, TimeShiftBecomesPhaseRamp) {
  const std::size_t n = GetParam();
  if (n < 2) return;
  auto x = random_signal(n, 23 * n);
  std::vector<cfloat> shifted(n);
  for (std::size_t i = 0; i < n; ++i) shifted[i] = x[(i + 1) % n];  // x[t+1]
  FftPlan plan(n);
  plan.transform(x, Direction::kForward);
  plan.transform(shifted, Direction::kForward);
  double max_err = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const double ang = 2.0 * std::numbers::pi * double(k) / double(n);
    const cfloat ramp(static_cast<float>(std::cos(ang)), static_cast<float>(std::sin(ang)));
    max_err = std::max(max_err, double(std::abs(shifted[k] - ramp * x[k])));
  }
  EXPECT_LT(max_err, 2e-3) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Lengths, FftRoundTrip,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 128, 256, 1024,
                                           3, 5, 10, 12, 30, 100, 127, 130, 384));

// ---------------------------------------------------- accuracy oracle --

std::vector<simd::Backend> simd_backends() {
  std::vector<simd::Backend> out{simd::Backend::kScalar};
  const simd::Backend best = simd::detect_best();
  if (static_cast<int>(best) >= static_cast<int>(simd::Backend::kSse2)) {
    out.push_back(simd::Backend::kSse2);
  }
  if (static_cast<int>(best) >= static_cast<int>(simd::Backend::kAvx2)) {
    out.push_back(simd::Backend::kAvx2);
  }
  return out;
}

// Restores the auto-detected SIMD backend even if a test fails mid-way.
struct SimdBackendGuard {
  ~SimdBackendGuard() { simd::force_backend(simd::detect_best()); }
};

// Direct DFT in double of every lane of SoA planes (element k of lane l at
// [k * lanes + l]); the inverse is scaled by 1/n like FftPlan's.
std::vector<cdouble> soa_dft(const AlignedVector<float>& re,
                             const AlignedVector<float>& im, std::size_t n,
                             std::size_t lanes, Direction dir) {
  const double sign = dir == Direction::kInverse ? 1.0 : -1.0;
  std::vector<cdouble> roots(n);
  for (std::size_t t = 0; t < n; ++t) {
    const double ang = sign * 2.0 * std::numbers::pi * double(t) / double(n);
    roots[t] = {std::cos(ang), std::sin(ang)};
  }
  const double scale = dir == Direction::kInverse ? 1.0 / double(n) : 1.0;
  std::vector<cdouble> out(n * lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t k = 0; k < n; ++k) {
      cdouble acc{};
      for (std::size_t t = 0; t < n; ++t) {
        acc += cdouble(re[t * lanes + l], im[t * lanes + l]) * roots[k * t % n];
      }
      out[k * lanes + l] = acc * scale;
    }
  }
  return out;
}

// Forward and inverse transform_soa against the double DFT, at 1, 16
// (kBatchLanes, pulse compression's width) and 64 lanes, on every backend:
// max |error| <= 1e-6 * max |X|. Lengths cover powers of two (radix-4
// stages, with one radix-2 stage at 2, 8, 32), pure small radices,
// composites with a prime factor above 7 (130, 254, and 143 with two),
// Rader primes over mixed-radix (13, 23, 47, 127, 131) and power-of-two
// (17, 257) convolutions, and the paper's 127 Doppler bins.
TEST(FftOracle, MatchesDoubleDftOnEveryBackend) {
  SimdBackendGuard guard;
  for (const std::size_t n :
       {2u, 4u, 8u, 16u, 32u, 64u, 1024u, 3u, 5u, 7u, 9u, 10u, 12u, 13u, 15u,
        17u, 23u, 30u, 47u, 100u, 126u, 127u, 130u, 131u, 143u, 254u, 257u,
        384u, 1000u}) {
    const FftPlan plan(n);
    for (const std::size_t lanes :
         {std::size_t{1}, FftPlan::kBatchLanes, std::size_t{64}}) {
      Rng rng(1000 * n + lanes);
      AlignedVector<float> re(n * lanes), im(n * lanes);
      for (std::size_t i = 0; i < n * lanes; ++i) {
        const cfloat v = rng.complex_normal();
        re[i] = v.real();
        im[i] = v.imag();
      }
      for (const Direction dir : {Direction::kForward, Direction::kInverse}) {
        const std::vector<cdouble> ref = soa_dft(re, im, n, lanes, dir);
        double peak = 0.0;
        for (const cdouble& v : ref) peak = std::max(peak, std::abs(v));
        for (const simd::Backend b : simd_backends()) {
          simd::force_backend(b);
          AlignedVector<float> got_re = re, got_im = im;
          BatchScratch scratch;
          plan.transform_soa(got_re, got_im, lanes, dir, scratch);
          double err = 0.0;
          for (std::size_t i = 0; i < n * lanes; ++i) {
            err = std::max(err, std::abs(cdouble(got_re[i], got_im[i]) - ref[i]));
          }
          EXPECT_LE(err, 1e-6 * peak)
              << simd::backend_name(b) << " n=" << n << " lanes=" << lanes
              << (dir == Direction::kForward ? " forward" : " inverse")
              << " rel=" << err / peak;
        }
      }
    }
  }
}

// ------------------------------------------------------------ interfaces --

// transform_strided_batch with a single series: the strided view of one
// sequence, gathered and scattered through the SoA planes.
TEST(Fft, StridedTransformEqualsGathered) {
  const std::size_t n = 16, stride = 5;
  auto base = random_signal(n * stride, 31);
  std::vector<cfloat> gathered(n);
  for (std::size_t i = 0; i < n; ++i) gathered[i] = base[i * stride];
  FftPlan plan(n);
  BatchScratch scratch;
  plan.transform(gathered, Direction::kForward);
  plan.transform_strided_batch(base.data(), 1, n * stride, stride,
                               Direction::kForward, scratch);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(base[i * stride] - gathered[i]), 0.0, 1e-5);
  }
}

TEST(Fft, StridedLeavesOtherElementsUntouched) {
  const std::size_t n = 8, stride = 3;
  auto base = random_signal(n * stride, 37);
  const auto original = base;
  FftPlan plan(n);
  BatchScratch scratch;
  plan.transform_strided_batch(base.data(), 1, n * stride, stride,
                               Direction::kForward, scratch);
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (i % stride != 0 || i / stride >= n) {
      EXPECT_EQ(base[i], original[i]) << "index " << i;
    }
  }
}

TEST(Fft, BatchTransformsEachSegment) {
  const std::size_t n = 32, count = 4;
  auto data = random_signal(n * count, 41);
  auto copy = data;
  FftPlan plan(n);
  BatchScratch scratch;
  plan.transform_strided_batch(data.data(), count, n, 1, Direction::kForward, scratch);
  for (std::size_t b = 0; b < count; ++b) {
    std::vector<cfloat> seg(copy.begin() + b * n, copy.begin() + (b + 1) * n);
    plan.transform(seg, Direction::kForward);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(std::abs(data[b * n + i] - seg[i]), 0.0, 1e-5);
    }
  }
}

TEST(Fft, BatchMatchesSingleForRaderLength) {
  const std::size_t n = 17, count = 37;  // more lanes than one SoA block
  auto data = random_signal(n * count, 47);
  const auto copy = data;
  FftPlan plan(n);
  BatchScratch scratch;
  plan.transform_strided_batch(data.data(), count, n, 1, Direction::kForward, scratch);
  for (std::size_t b = 0; b < count; ++b) {
    std::vector<cfloat> seg(copy.begin() + b * n, copy.begin() + (b + 1) * n);
    plan.transform(seg, Direction::kForward);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(std::abs(data[b * n + i] - seg[i]), 0.0, 1e-4)
          << "series " << b << " element " << i;
    }
  }
}

TEST(Fft, BatchInverseUndoesBatchForward) {
  for (const std::size_t n : std::vector<std::size_t>{16, 127}) {
    const std::size_t count = 21;
    auto data = random_signal(n * count, 53);
    const auto original = data;
    FftPlan plan(n);
    BatchScratch scratch;
    plan.transform_strided_batch(data.data(), count, n, 1, Direction::kForward, scratch);
    plan.transform_strided_batch(data.data(), count, n, 1, Direction::kInverse, scratch);
    EXPECT_LT(max_abs_diff(data, original), 1e-4) << "length " << n;
  }
}

TEST(Fft, StridedBatchMatchesGatheredTransforms) {
  // Series l element k at base[l*dist + k*stride]: interleaved layout.
  const std::size_t n = 16, count = 5, stride = count, dist = 1;
  auto base = random_signal(n * count, 59);
  const auto copy = base;
  FftPlan plan(n);
  BatchScratch scratch;
  plan.transform_strided_batch(base.data(), count, dist, stride,
                               Direction::kForward, scratch);
  for (std::size_t l = 0; l < count; ++l) {
    std::vector<cfloat> gathered(n);
    for (std::size_t k = 0; k < n; ++k) gathered[k] = copy[l * dist + k * stride];
    plan.transform(gathered, Direction::kForward);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_NEAR(std::abs(base[l * dist + k * stride] - gathered[k]), 0.0, 1e-5)
          << "series " << l << " element " << k;
    }
  }
}

// convolve_batch against the circular convolution with h = IDFT(spectrum)
// in double, on both branches: the in-order mixed-radix pass (n = 1 with
// no stage, powers of two, composites, and 2 and 7 as one radix stage) and
// the transform_soa pair (the Rader prime 127). 19 series are one full
// lane block and a partial one.
TEST(Fft, ConvolveBatchMatchesTransformMultiplyInverse) {
  const std::size_t count = 19;
  for (const std::size_t n :
       {1u, 2u, 32u, 1024u, 12u, 100u, 384u, 7u, 127u}) {
    const auto spectrum = random_signal(n, 61 + n);
    auto data = random_signal(n * count, 67 + n);
    const auto copy = data;
    const FftPlan plan(n);
    BatchScratch scratch;
    plan.convolve_batch(data, count, spectrum, scratch);
    std::vector<cdouble> h(n);
    for (std::size_t m = 0; m < n; ++m) {
      for (std::size_t k = 0; k < n; ++k) {
        const double ang = 2.0 * std::numbers::pi * double(k * m % n) / double(n);
        h[m] += cdouble(spectrum[k].real(), spectrum[k].imag()) *
                cdouble(std::cos(ang), std::sin(ang));
      }
      h[m] /= double(n);
    }
    for (std::size_t b = 0; b < count; ++b) {
      std::vector<cdouble> want(n);
      double peak = 0.0;
      for (std::size_t t = 0; t < n; ++t) {
        for (std::size_t m = 0; m < n; ++m) {
          const cfloat x = copy[b * n + (t + n - m) % n];
          want[t] += cdouble(x.real(), x.imag()) * h[m];
        }
        peak = std::max(peak, std::abs(want[t]));
      }
      double err = 0.0;
      for (std::size_t t = 0; t < n; ++t) {
        const cfloat y = data[b * n + t];
        err = std::max(err, std::abs(cdouble(y.real(), y.imag()) - want[t]));
      }
      EXPECT_LE(err, 1e-5 * peak) << "n=" << n << " series " << b
                                  << " rel=" << err / peak;
    }
  }
}

// The spectral multiply fused into convolve_batch is elementwise: a
// one-hot spectrum keeps exactly one frequency of the input.
TEST(Fft, MultiplySpectraIsElementwise) {
  const std::size_t n = 16, bin = 3;
  auto x = random_signal(n, 73);
  std::vector<cfloat> spectrum(n, cfloat{});
  spectrum[bin] = {0.0f, 2.0f};
  FftPlan plan(n);
  BatchScratch scratch;
  auto y = x;
  plan.convolve_batch(y, 1, spectrum, scratch);
  plan.transform(x, Direction::kForward);
  plan.transform(y, Direction::kForward);
  for (std::size_t k = 0; k < n; ++k) {
    const cfloat expect = k == bin ? x[k] * spectrum[k] : cfloat{};
    EXPECT_NEAR(std::abs(y[k] - expect), 0.0, 1e-4) << "bin " << k;
  }
}

// ------------------------------------------------------------ error paths --

TEST(Fft, RejectsZeroLengthPlan) {
  EXPECT_THROW(FftPlan(0), PreconditionError);
}

TEST(Fft, RejectsMismatchedBuffer) {
  FftPlan plan(8);
  std::vector<cfloat> wrong(7);
  EXPECT_THROW(plan.transform(wrong, Direction::kForward), PreconditionError);
}

TEST(Fft, RejectsBadBatchSize) {
  FftPlan plan(8);
  BatchScratch scratch;
  std::vector<cfloat> data(20);
  const std::vector<cfloat> spectrum(8);
  EXPECT_THROW(plan.convolve_batch(data, 2, spectrum, scratch), PreconditionError);
}

TEST(Fft, RejectsMismatchedSpectra) {
  FftPlan plan(4);
  BatchScratch scratch;
  std::vector<cfloat> data(8), spectrum(5);
  EXPECT_THROW(plan.convolve_batch(data, 2, spectrum, scratch), PreconditionError);
}

}  // namespace
}  // namespace pstap::fft
