// Backend-equivalence tests for the runtime-dispatched SIMD kernels.
//
// Every vector backend must reproduce the scalar reference: bit-exactly for
// the FMA-free primitives (scale, deinterleave_scale, interleave,
// gather_planes, scatter_planes, norm_interleaved, cgemm_planar_exact), for every SSE2 complex row
// kernel and for AVX2 rows narrower than 8 lanes; within tolerance for the
// FMA-contracted AVX2 rows of 8 lanes or more and the rest of the GEMM
// family. On top of the primitives, the whole STAP chain is checked end to
// end: FFT batch and single-series paths against a naive DFT (including
// mixed-radix and Rader sizes and odd lane counts) and — the contract that
// matters operationally — CFAR detections identical across backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <numbers>
#include <span>
#include <string>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "fft/fft.hpp"
#include "linalg/cgemm.hpp"
#include "linalg/cmatrix.hpp"
#include "linalg_reference.hpp"
#include "obs/metrics.hpp"
#include "stap/cfar.hpp"
#include "stap/doppler.hpp"
#include "stap/pulse_compress.hpp"
#include "stap/scene.hpp"

namespace pstap {
namespace {

using simd::Backend;

std::vector<Backend> supported_backends() {
  std::vector<Backend> out{Backend::kScalar};
  const Backend best = simd::detect_best();
  if (static_cast<int>(best) >= static_cast<int>(Backend::kSse2)) {
    out.push_back(Backend::kSse2);
  }
  if (static_cast<int>(best) >= static_cast<int>(Backend::kAvx2)) {
    out.push_back(Backend::kAvx2);
  }
  return out;
}

// Restores the default backend even if a test fails mid-way.
struct BackendGuard {
  ~BackendGuard() { simd::force_backend(simd::detect_best()); }
};

std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

stap::BeamArray clone(const stap::BeamArray& src) {
  stap::BeamArray out(src.bins(), src.beams(), src.ranges());
  std::copy(src.flat().begin(), src.flat().end(), out.flat().begin());
  return out;
}

// ------------------------------------------------------------ plumbing --

TEST(SimdDispatch, BackendNamesAndDetection) {
  EXPECT_STREQ(simd::backend_name(Backend::kScalar), "scalar");
  EXPECT_STREQ(simd::backend_name(Backend::kSse2), "sse2");
  EXPECT_STREQ(simd::backend_name(Backend::kAvx2), "avx2");
#if defined(__x86_64__)
  // x86-64 baseline guarantees SSE2.
  EXPECT_GE(static_cast<int>(simd::detect_best()),
            static_cast<int>(Backend::kSse2));
#endif
}

TEST(SimdDispatch, ActiveBackendIsRecordedInGauge) {
  const Backend b = simd::active();
  EXPECT_EQ(obs::Registry::global().gauge("simd.backend").value(),
            static_cast<std::int64_t>(b));
}

TEST(SimdDispatch, ForceBackendClampsToSupported) {
  BackendGuard guard;
  const Backend applied = simd::force_backend(Backend::kAvx2);
  EXPECT_LE(static_cast<int>(applied), static_cast<int>(simd::detect_best()));
  EXPECT_EQ(simd::force_backend(Backend::kScalar), Backend::kScalar);
}

TEST(SimdDispatch, OpsByBackendReturnsDistinctTablesWhenSupported) {
  const simd::Ops& scalar = simd::ops(Backend::kScalar);
  for (Backend b : supported_backends()) {
    if (b == Backend::kScalar) continue;
    EXPECT_NE(&simd::ops(b), &scalar) << simd::backend_name(b);
  }
}

// ---------------------------------------------------------- primitives --

// Sizes straddling every vector width and tail combination.
const std::size_t kSizes[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 100};

// Whether backend b's complex row kernels must match the scalar rows
// kernels bit-for-bit at this lane width: SSE2 never contracts, and AVX2
// hands rows narrower than one ymm register to the scalar kernels. Wider
// AVX2 rows use FMA and match within tolerance.
bool rows_bit_exact(Backend b, std::size_t lanes) {
  return b != Backend::kAvx2 || lanes < 8;
}

void expect_rows_match(const std::vector<float>& ref, const std::vector<float>& got,
                       Backend b, std::size_t lanes) {
  if (rows_bit_exact(b, lanes)) {
    EXPECT_EQ(ref, got) << simd::backend_name(b) << " lanes=" << lanes;
    return;
  }
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(ref[i], got[i], 1e-5f) << simd::backend_name(b) << " lanes=" << lanes;
  }
}

TEST(SimdPrimitives, ButterflyMatchesScalar) {
  const simd::Ops& ref = simd::ops(Backend::kScalar);
  for (Backend b : supported_backends()) {
    const simd::Ops& vec = simd::ops(b);
    for (std::size_t lanes : kSizes) {
      const std::size_t rows = 3;
      auto ar0 = random_floats(rows * lanes, 1), ai0 = random_floats(rows * lanes, 2);
      auto br0 = random_floats(rows * lanes, 3), bi0 = random_floats(rows * lanes, 4);
      auto w = random_floats(2 * rows, 5);
      auto ar1 = ar0, ai1 = ai0, br1 = br0, bi1 = bi0;
      ref.butterfly_rows(ar0.data(), ai0.data(), br0.data(), bi0.data(), w.data(),
                         rows, lanes);
      vec.butterfly_rows(ar1.data(), ai1.data(), br1.data(), bi1.data(), w.data(),
                         rows, lanes);
      expect_rows_match(ar0, ar1, b, lanes);
      expect_rows_match(ai0, ai1, b, lanes);
      expect_rows_match(br0, br1, b, lanes);
      expect_rows_match(bi0, bi1, b, lanes);
    }
  }
}

TEST(SimdPrimitives, ButterflyRowsMatchesPerRowButterfly) {
  for (Backend b : supported_backends()) {
    const simd::Ops& vec = simd::ops(b);
    for (std::size_t lanes : {std::size_t{3}, std::size_t{8}, std::size_t{16},
                              std::size_t{21}, std::size_t{64}}) {
      const std::size_t rows = 5;
      auto ar0 = random_floats(rows * lanes, 11);
      auto ai0 = random_floats(rows * lanes, 12);
      auto br0 = random_floats(rows * lanes, 13);
      auto bi0 = random_floats(rows * lanes, 14);
      auto w = random_floats(2 * rows, 15);
      auto ar1 = ar0, ai1 = ai0, br1 = br0, bi1 = bi0;
      for (std::size_t j = 0; j < rows; ++j) {
        vec.butterfly_rows(ar0.data() + j * lanes, ai0.data() + j * lanes,
                           br0.data() + j * lanes, bi0.data() + j * lanes,
                           w.data() + 2 * j, 1, lanes);
      }
      vec.butterfly_rows(ar1.data(), ai1.data(), br1.data(), bi1.data(),
                         w.data(), rows, lanes);
      // Same backend, same expression trees: bit-identical.
      EXPECT_EQ(ar0, ar1) << simd::backend_name(b) << " lanes=" << lanes;
      EXPECT_EQ(ai0, ai1);
      EXPECT_EQ(br0, br1);
      EXPECT_EQ(bi0, bi1);
    }
  }
}

TEST(SimdPrimitives, Butterfly2RowsMatchesTwoStagePasses) {
  for (Backend b : supported_backends()) {
    const simd::Ops& vec = simd::ops(b);
    for (std::size_t lanes : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                              std::size_t{8}, std::size_t{16}, std::size_t{19},
                              std::size_t{64}}) {
      for (std::size_t h : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        const std::size_t rows = 4 * h;
        auto re0 = random_floats(rows * lanes, 21);
        auto im0 = random_floats(rows * lanes, 22);
        auto w1 = random_floats(2 * h, 23);
        auto w2 = random_floats(2 * 2 * h, 24);
        auto re1 = re0, im1 = im0;
        // Reference: stage h then stage 2h as separate butterfly_rows
        // passes over the same block of 4h rows.
        for (std::size_t block = 0; block < rows; block += 2 * h) {
          vec.butterfly_rows(re0.data() + block * lanes,
                             im0.data() + block * lanes,
                             re0.data() + (block + h) * lanes,
                             im0.data() + (block + h) * lanes, w1.data(), h,
                             lanes);
        }
        vec.butterfly_rows(re0.data(), im0.data(), re0.data() + 2 * h * lanes,
                           im0.data() + 2 * h * lanes, w2.data(), 2 * h, lanes);
        vec.butterfly2_rows(re1.data(), im1.data(), w1.data(), w2.data(), h,
                            lanes);
        EXPECT_EQ(re0, re1) << simd::backend_name(b) << " lanes=" << lanes
                            << " h=" << h;
        EXPECT_EQ(im0, im1);
      }
    }
  }
}

TEST(SimdPrimitives, CscaleFamilyMatchesScalar) {
  const simd::Ops& ref = simd::ops(Backend::kScalar);
  for (Backend b : supported_backends()) {
    const simd::Ops& vec = simd::ops(b);
    for (std::size_t lanes : kSizes) {
      const std::size_t rows = 3;
      auto w = random_floats(2 * rows, 5);
      auto re0 = random_floats(rows * lanes, 6), im0 = random_floats(rows * lanes, 7);
      auto re1 = re0, im1 = im0;
      ref.cscale_rows(re0.data(), im0.data(), w.data(), rows, lanes);
      vec.cscale_rows(re1.data(), im1.data(), w.data(), rows, lanes);
      expect_rows_match(re0, re1, b, lanes);
      expect_rows_match(im0, im1, b, lanes);
    }
  }
}

TEST(SimdPrimitives, CscaleRowsMatchesPerRow) {
  for (Backend b : supported_backends()) {
    const simd::Ops& vec = simd::ops(b);
    for (std::size_t lanes : {std::size_t{5}, std::size_t{16}, std::size_t{24}}) {
      const std::size_t rows = 7;
      auto re0 = random_floats(rows * lanes, 31);
      auto im0 = random_floats(rows * lanes, 32);
      auto w = random_floats(2 * rows, 33);
      auto re1 = re0, im1 = im0;
      for (std::size_t j = 0; j < rows; ++j) {
        vec.cscale_rows(re0.data() + j * lanes, im0.data() + j * lanes,
                        w.data() + 2 * j, 1, lanes);
      }
      vec.cscale_rows(re1.data(), im1.data(), w.data(), rows, lanes);
      EXPECT_EQ(re0, re1) << simd::backend_name(b) << " lanes=" << lanes;
      EXPECT_EQ(im0, im1);
    }
  }
}

// radix_rows for every radix and direction: SSE2 (and AVX2 below 8 lanes)
// bit-exact with scalar, AVX2 within tolerance; spans and blocks > 1 so
// the twiddled rows and the block stride are both exercised.
TEST(SimdPrimitives, RadixRowsMatchesScalar) {
  const simd::Ops& ref = simd::ops(Backend::kScalar);
  for (Backend b : supported_backends()) {
    const simd::Ops& vec = simd::ops(b);
    for (std::size_t p : {2u, 3u, 4u, 5u, 7u}) {
      for (bool dif : {false, true}) {
        for (std::size_t lanes : kSizes) {
          const std::size_t span = 3, blocks = 2, rows = blocks * p * span;
          auto tw = random_floats(2 * span * (p - 1), 50 + p);
          auto re0 = random_floats(rows * lanes, 51), im0 = random_floats(rows * lanes, 52);
          auto re1 = re0, im1 = im0;
          ref.radix_rows(re0.data(), im0.data(), tw.data(), p, span, blocks, lanes, dif);
          vec.radix_rows(re1.data(), im1.data(), tw.data(), p, span, blocks, lanes, dif);
          SCOPED_TRACE("p=" + std::to_string(p) + (dif ? " dif" : " dit"));
          expect_rows_match(re0, re1, b, lanes);
          expect_rows_match(im0, im1, b, lanes);
        }
      }
    }
  }
}

// The scalar radix_rows against its definition, in double: each row set
// is a forward p-point DFT, with the twiddles on the inputs (DIT) or on
// the outputs (DIF), and none on the j == 0 set.
TEST(SimdPrimitives, RadixRowsIsTwiddledDft) {
  const simd::Ops& ref = simd::ops(Backend::kScalar);
  const std::size_t span = 2, blocks = 2, lanes = 3;
  for (std::size_t p : {2u, 3u, 4u, 5u, 7u}) {
    for (bool dif : {false, true}) {
      const std::size_t rows = blocks * p * span;
      auto tw = random_floats(2 * span * (p - 1), 60 + p);
      auto re = random_floats(rows * lanes, 61), im = random_floats(rows * lanes, 62);
      const auto re0 = re, im0 = im;
      ref.radix_rows(re.data(), im.data(), tw.data(), p, span, blocks, lanes, dif);
      for (std::size_t blk = 0; blk < blocks; ++blk) {
        for (std::size_t j = 0; j < span; ++j) {
          auto w = [&](std::size_t q) {
            if (j == 0 || q == 0) return cdouble(1.0, 0.0);
            const std::size_t i = 2 * (j * (p - 1) + q - 1);
            return cdouble(tw[i], tw[i + 1]);
          };
          for (std::size_t l = 0; l < lanes; ++l) {
            auto at = [&](std::size_t q) { return (blk * p * span + j + q * span) * lanes + l; };
            for (std::size_t k = 0; k < p; ++k) {
              cdouble acc{};
              for (std::size_t q = 0; q < p; ++q) {
                const cdouble x(re0[at(q)], im0[at(q)]);
                const double ang = -2.0 * std::numbers::pi * double(q * k % p) / double(p);
                acc += (dif ? x : x * w(q)) * cdouble(std::cos(ang), std::sin(ang));
              }
              if (dif) acc *= w(k);
              EXPECT_NEAR(re[at(k)], acc.real(), 1e-5) << "p=" << p << " dif=" << dif;
              EXPECT_NEAR(im[at(k)], acc.imag(), 1e-5) << "p=" << p << " dif=" << dif;
            }
          }
        }
      }
    }
  }
}

TEST(SimdPrimitives, InterleavedOpsMatchScalar) {
  const simd::Ops& ref = simd::ops(Backend::kScalar);
  for (Backend b : supported_backends()) {
    const simd::Ops& vec = simd::ops(b);
    for (std::size_t n : kSizes) {
      // scale / deinterleave_scale / interleave / norm_interleaved are
      // FMA-free: bit-exact across backends.
      auto s0 = random_floats(n, 45);
      auto s1 = s0;
      ref.scale(s0.data(), 1.25f, n);
      vec.scale(s1.data(), 1.25f, n);
      EXPECT_EQ(s0, s1) << simd::backend_name(b) << " n=" << n;

      auto src = random_floats(2 * n, 46);
      std::vector<float> dr0(n), di0(n), dr1(n), di1(n);
      ref.deinterleave_scale(dr0.data(), di0.data(), src.data(), 0.33f, n);
      vec.deinterleave_scale(dr1.data(), di1.data(), src.data(), 0.33f, n);
      EXPECT_EQ(dr0, dr1);
      EXPECT_EQ(di0, di1);

      std::vector<float> il0(2 * n), il1(2 * n);
      ref.interleave(il0.data(), dr0.data(), di0.data(), n, false);
      vec.interleave(il1.data(), dr0.data(), di0.data(), n, false);
      EXPECT_EQ(il0, il1);

      std::vector<double> p0(n), p1(n);
      ref.norm_interleaved(p0.data(), src.data(), n);
      vec.norm_interleaved(p1.data(), src.data(), n);
      EXPECT_EQ(p0, p1);
    }
  }
}

// With `stream` set, interleave streams the aligned interior of its
// destination on the vector backends and plain-stores the rest: at every
// float misalignment of dst (odd ones never align, even ones align after
// 0-3 elements), for n below, at and past one vector, streamed or not, the
// bytes match scalar and nothing outside [dst, dst + 2n) is touched.
TEST(SimdPrimitives, StreamedInterleaveWritesExactlyItsRange) {
  const simd::Ops& ref = simd::ops(Backend::kScalar);
  constexpr std::size_t kGuard = 16;  // floats: 64 bytes, keeps base + kGuard aligned
  constexpr float kSentinel = -7.25f;
  for (Backend b : supported_backends()) {
    const simd::Ops& vec = simd::ops(b);
    for (std::size_t n : {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 100}) {
      const auto re = random_floats(n, 47);
      const auto im = random_floats(n, 48);
      std::vector<float> want(2 * n);
      ref.interleave(want.data(), re.data(), im.data(), n, false);
      for (std::size_t k = 0; k < 16; ++k) {
        const bool stream = k < 8;
        const std::size_t mis = k % 8;
        AlignedVector<float> buf(2 * kGuard + 8 + 2 * n, kSentinel);
        float* dst = buf.data() + kGuard + mis;
        vec.interleave(dst, re.data(), im.data(), n, stream);
        simd::store_fence();
        const std::string where = std::string(simd::backend_name(b)) +
                                  " n=" + std::to_string(n) +
                                  " misalign=" + std::to_string(mis) +
                                  (stream ? " streamed" : " plain");
        if (n > 0) {
          EXPECT_EQ(std::memcmp(dst, want.data(), want.size() * sizeof(float)), 0)
              << where;
        }
        for (std::size_t i = 0; i < buf.size(); ++i) {
          if (buf.data() + i >= dst && buf.data() + i < dst + 2 * n) continue;
          ASSERT_EQ(buf[i], kSentinel) << where << " wrote float " << i;
        }
      }
    }
  }
}

TEST(SimdPrimitives, PlaneTransposesMatchScalar) {
  // gather_planes / scatter_planes are pure data movement: bit-exact on
  // every backend, for unit-stride series (the vector tiles and both tile
  // edges: odd lengths, lane counts off the tile width) and strided ones.
  const simd::Ops& ref = simd::ops(Backend::kScalar);
  struct Shape {
    std::size_t n, dist, stride, lanes;
  };
  const Shape shapes[] = {{127, 127, 1, 16}, {127, 130, 1, 13}, {8, 8, 1, 4},
                          {1, 1, 1, 16},     {17, 17, 1, 3},    {16, 1, 5, 5},
                          {9, 2, 20, 7}};
  for (Backend b : supported_backends()) {
    const simd::Ops& vec = simd::ops(b);
    for (const Shape& sh : shapes) {
      const std::size_t span = (sh.lanes - 1) * sh.dist + (sh.n - 1) * sh.stride + 1;
      const auto src = random_floats(2 * span, 48);
      const std::size_t planes = sh.n * sh.lanes;
      std::vector<float> r0(planes), i0(planes), r1(planes), i1(planes);
      ref.gather_planes(r0.data(), i0.data(), src.data(), sh.n, sh.dist, sh.stride,
                        sh.lanes);
      vec.gather_planes(r1.data(), i1.data(), src.data(), sh.n, sh.dist, sh.stride,
                        sh.lanes);
      const std::string where = std::string(simd::backend_name(b)) + " n=" +
                                std::to_string(sh.n) + " lanes=" +
                                std::to_string(sh.lanes);
      EXPECT_EQ(r0, r1) << where;
      EXPECT_EQ(i0, i1) << where;
      EXPECT_EQ(r0[0], src[0]) << where;

      // Scattering the planes back restores every series element and
      // leaves the bytes between them alone.
      auto back = random_floats(2 * span, 49);
      auto expect = back;
      ref.scatter_planes(expect.data(), r0.data(), i0.data(), sh.n, sh.dist,
                         sh.stride, sh.lanes);
      vec.scatter_planes(back.data(), r0.data(), i0.data(), sh.n, sh.dist, sh.stride,
                         sh.lanes);
      EXPECT_EQ(expect, back) << where;
      for (std::size_t l = 0; l < sh.lanes; ++l) {
        for (std::size_t k = 0; k < sh.n; ++k) {
          const std::size_t idx = 2 * (l * sh.dist + k * sh.stride);
          ASSERT_EQ(back[idx], src[idx]) << where;
          ASSERT_EQ(back[idx + 1], src[idx + 1]) << where;
        }
      }
    }
  }
}

// --------------------------------------------------------- FFT kernels --

// O(n^2) double-precision DFT: the reference no backend computes.
std::vector<cdouble> naive_dft(std::span<const cfloat> x, fft::Direction dir) {
  const std::size_t n = x.size();
  const bool inverse = dir == fft::Direction::kInverse;
  const double sign = inverse ? 1.0 : -1.0;
  std::vector<cdouble> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    cdouble acc{};
    for (std::size_t t = 0; t < n; ++t) {
      const double ang = sign * 2.0 * std::numbers::pi *
                         static_cast<double>(k * t % n) / static_cast<double>(n);
      acc += cdouble(x[t].real(), x[t].imag()) * cdouble(std::cos(ang), std::sin(ang));
    }
    out[k] = inverse ? acc / static_cast<double>(n) : acc;
  }
  return out;
}

// Largest deviation from the reference, relative to the reference's RMS
// magnitude (so forward and 1/N-scaled inverse outputs share one bound).
double rel_error(std::span<const cfloat> got, const std::vector<cdouble>& ref) {
  double err = 0.0, energy = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    err = std::max(err, std::abs(cdouble(got[i].real(), got[i].imag()) - ref[i]));
    energy += std::norm(ref[i]);
  }
  const double rms = std::sqrt(energy / static_cast<double>(ref.size()));
  return rms > 0.0 ? err / rms : err;
}

TEST(SimdKernels, BatchFftMatchesReferenceAcrossBackends) {
  BackendGuard guard;
  // Pow2, Rader (127 prime), mixed radix (96 even composite), and sizes
  // around the lane width; batch counts hitting full and partial lane blocks.
  for (std::size_t n : {std::size_t{8}, std::size_t{64}, std::size_t{127},
                        std::size_t{96}}) {
    for (std::size_t count : {std::size_t{1}, std::size_t{5}, std::size_t{16},
                              std::size_t{33}}) {
      Rng rng(n * 100 + count);
      std::vector<cfloat> input(n * count);
      for (auto& v : input) v = rng.complex_normal();
      const std::span<const cfloat> in(input);

      for (Backend b : supported_backends()) {
        simd::force_backend(b);
        fft::FftPlan plan(n);
        std::vector<cfloat> got = input;
        fft::BatchScratch scratch;
        plan.transform_batch(got, count, fft::Direction::kForward, scratch);
        for (std::size_t c = 0; c < count; ++c) {
          const auto ref = naive_dft(in.subspan(c * n, n), fft::Direction::kForward);
          EXPECT_LT(rel_error(std::span<const cfloat>(got).subspan(c * n, n), ref),
                    1e-4)
              << simd::backend_name(b) << " n=" << n << " count=" << count
              << " series=" << c;
        }
        // Round-trip through the inverse lands back on the input.
        plan.transform_batch(got, count, fft::Direction::kInverse, scratch);
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_NEAR(got[i].real(), input[i].real(), 2e-3f);
          EXPECT_NEAR(got[i].imag(), input[i].imag(), 2e-3f);
        }
      }
    }
  }
}

TEST(SimdKernels, SingleSeriesFftMatchesNaiveDftOnEveryBackend) {
  // FftPlan::transform is a batch of one: every row is one lane wide, so
  // the AVX2 backend runs it on the scalar row kernels and the result is
  // bit-identical to the scalar backend's, as well as close to the DFT.
  BackendGuard guard;
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{64},
                        std::size_t{127}, std::size_t{1000}, std::size_t{1024}}) {
    Rng rng(n + 5);
    std::vector<cfloat> input(n);
    for (auto& v : input) v = rng.complex_normal();
    for (fft::Direction dir : {fft::Direction::kForward, fft::Direction::kInverse}) {
      const auto ref = naive_dft(input, dir);
      std::vector<cfloat> scalar_out;
      for (Backend b : supported_backends()) {
        simd::force_backend(b);
        fft::FftPlan plan(n);
        std::vector<cfloat> got = input;
        plan.transform(got, dir);
        EXPECT_LT(rel_error(got, ref), 1e-4)
            << simd::backend_name(b) << " n=" << n
            << (dir == fft::Direction::kForward ? " forward" : " inverse");
        if (b == Backend::kScalar) {
          scalar_out = got;
        } else {
          EXPECT_EQ(got, scalar_out) << simd::backend_name(b) << " n=" << n;
        }
      }
    }
  }
}

TEST(SimdKernels, ScratchPlanesAreSimdAligned) {
  // The batch paths PSTAP_REQUIRE 64-byte alignment of their SoA planes
  // after every resize — reaching the end of a transform proves the
  // AlignedVector storage held its alignment through reallocation.
  fft::BatchScratch scratch;
  for (std::size_t n : {std::size_t{8}, std::size_t{64}, std::size_t{127}}) {
    fft::FftPlan plan(n);
    std::vector<cfloat> data(n * 3);
    EXPECT_NO_THROW(
        plan.transform_batch(data, 3, fft::Direction::kForward, scratch));
  }
}

// ------------------------------------------------- STAP chain contract --

TEST(SimdKernels, DopplerOutputEquivalentAcrossBackends) {
  BackendGuard guard;
  stap::RadarParams p = stap::RadarParams::test_small();
  stap::SceneGenerator gen(p, stap::SceneConfig{}, 7);
  const stap::DataCube cube = gen.generate(0);
  stap::DopplerFilter filter(p);

  simd::force_backend(Backend::kScalar);
  const stap::DopplerOutput ref = filter.process(cube);

  for (Backend b : supported_backends()) {
    simd::force_backend(b);
    const stap::DopplerOutput got = filter.process(cube);
    ASSERT_EQ(got.easy.flat().size(), ref.easy.flat().size());
    for (std::size_t i = 0; i < ref.easy.flat().size(); ++i) {
      EXPECT_NEAR(got.easy.flat()[i].real(), ref.easy.flat()[i].real(), 1e-3f)
          << simd::backend_name(b);
      EXPECT_NEAR(got.easy.flat()[i].imag(), ref.easy.flat()[i].imag(), 1e-3f);
    }
    for (std::size_t i = 0; i < ref.hard.flat().size(); ++i) {
      EXPECT_NEAR(got.hard.flat()[i].real(), ref.hard.flat()[i].real(), 1e-3f);
      EXPECT_NEAR(got.hard.flat()[i].imag(), ref.hard.flat()[i].imag(), 1e-3f);
    }
  }
}

TEST(SimdKernels, CfarDetectionsIdenticalAcrossBackends) {
  BackendGuard guard;
  stap::RadarParams p = stap::RadarParams::test_small();
  Rng rng(99);
  stap::BeamArray beams(p.doppler_bins(), p.beams, p.ranges);
  for (auto& v : beams.flat()) v = rng.complex_normal();
  // Plant a few strong targets so the detector has work to do.
  beams.range_series(3, 0)[40] = cfloat(30.0f, 0.0f);
  beams.range_series(7, 1)[90] = cfloat(25.0f, -10.0f);
  std::vector<std::size_t> ids(beams.bins());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;

  stap::CfarDetector cfar(p);
  simd::force_backend(Backend::kScalar);
  const auto ref = cfar.detect(beams, ids);
  EXPECT_FALSE(ref.empty());

  for (Backend b : supported_backends()) {
    simd::force_backend(b);
    const auto got = cfar.detect(beams, ids);
    // norm_interleaved is FMA-free on every backend, so the detection sets
    // — indices AND power/threshold values — must be bit-identical.
    ASSERT_EQ(got.size(), ref.size()) << simd::backend_name(b);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].bin, ref[i].bin);
      EXPECT_EQ(got[i].beam, ref[i].beam);
      EXPECT_EQ(got[i].range, ref[i].range);
      EXPECT_EQ(got[i].power, ref[i].power);
      EXPECT_EQ(got[i].threshold, ref[i].threshold);
    }
  }
}

TEST(SimdKernels, PulseCompressionEquivalentAcrossBackends) {
  BackendGuard guard;
  stap::RadarParams p = stap::RadarParams::test_small();
  Rng rng(5);
  stap::BeamArray input(p.doppler_bins(), p.beams, p.ranges);
  for (auto& v : input.flat()) v = rng.complex_normal();
  stap::PulseCompressor pc(p);

  simd::force_backend(Backend::kScalar);
  stap::BeamArray ref = clone(input);
  pc.compress(ref);

  for (Backend b : supported_backends()) {
    simd::force_backend(b);
    stap::BeamArray got = clone(input);
    pc.compress(got);
    for (std::size_t i = 0; i < ref.flat().size(); ++i) {
      EXPECT_NEAR(got.flat()[i].real(), ref.flat()[i].real(), 1e-3f)
          << simd::backend_name(b);
      EXPECT_NEAR(got.flat()[i].imag(), ref.flat()[i].imag(), 1e-3f);
    }
  }
}

// ------------------------------------------------- complex GEMM kernels --

// Shapes straddling the 4-row x 4-complex AVX2 register block in every
// direction: single rows/columns, tails on m, k and n, a k (= DOF) that is
// not a multiple of the tile width, and one block-aligned shape.
struct GemmShape {
  std::size_t m, k, n;
};
const GemmShape kGemmShapes[] = {
    {1, 1, 1},   {1, 7, 5},   {3, 16, 17}, {4, 31, 8},
    {5, 3, 100}, {4, 32, 64}, {2, 5, 33},  {7, 12, 4},
};

std::vector<cfloat> random_cfloats(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cfloat> v(n);
  for (auto& x : v) x = rng.complex_normal();
  return v;
}

// The historical beamform expression trees: per output row, walk the DOFs
// in order and stream the contiguous B row with one complex MAC per
// element. The scalar cgemm backend must reproduce this bit-for-bit.
std::vector<cfloat> cgemm_reference(bool conj_a, const GemmShape& s,
                                    const std::vector<cfloat>& a,
                                    const std::vector<cfloat>& b) {
  std::vector<cfloat> c(s.m * s.n, cfloat{});
  for (std::size_t i = 0; i < s.m; ++i) {
    for (std::size_t p = 0; p < s.k; ++p) {
      const cfloat w = conj_a ? std::conj(a[i * s.k + p]) : a[i * s.k + p];
      for (std::size_t l = 0; l < s.n; ++l) {
        c[i * s.n + l] += w * b[p * s.n + l];
      }
    }
  }
  return c;
}

TEST(GemmEquivalence, ScalarCgemmBitExactAgainstComplexReference) {
  BackendGuard guard;
  simd::force_backend(Backend::kScalar);
  linalg::CgemmScratch scratch;
  for (const GemmShape& s : kGemmShapes) {
    const auto a = random_cfloats(s.m * s.k, 1000 + s.m);
    const auto b = random_cfloats(s.k * s.n, 2000 + s.n);
    for (bool conj_a : {false, true}) {
      const auto ref = cgemm_reference(conj_a, s, a, b);
      std::vector<cfloat> c(s.m * s.n, cfloat{});
      linalg::cgemm(conj_a, s.m, s.k, s.n, a.data(), s.k, b.data(), s.n,
                    c.data(), s.n, scratch);
      for (std::size_t i = 0; i < c.size(); ++i) {
        EXPECT_EQ(c[i].real(), ref[i].real())
            << "m=" << s.m << " k=" << s.k << " n=" << s.n
            << " conj=" << conj_a << " i=" << i;
        EXPECT_EQ(c[i].imag(), ref[i].imag());
      }
    }
  }
}

TEST(GemmEquivalence, CgemmBackendsMatchScalarWithinTolerance) {
  BackendGuard guard;
  linalg::CgemmScratch scratch;
  for (const GemmShape& s : kGemmShapes) {
    const auto a = random_cfloats(s.m * s.k, 3000 + s.m);
    const auto b = random_cfloats(s.k * s.n, 4000 + s.n);
    simd::force_backend(Backend::kScalar);
    std::vector<cfloat> ref(s.m * s.n, cfloat{});
    linalg::cgemm(true, s.m, s.k, s.n, a.data(), s.k, b.data(), s.n,
                  ref.data(), s.n, scratch);
    for (Backend bk : supported_backends()) {
      simd::force_backend(bk);
      std::vector<cfloat> c(s.m * s.n, cfloat{});
      linalg::cgemm(true, s.m, s.k, s.n, a.data(), s.k, b.data(), s.n,
                    c.data(), s.n, scratch);
      const float tol = 1e-4f * static_cast<float>(s.k + 1);
      for (std::size_t i = 0; i < c.size(); ++i) {
        EXPECT_NEAR(c[i].real(), ref[i].real(), tol)
            << simd::backend_name(bk) << " m=" << s.m << " k=" << s.k
            << " n=" << s.n;
        EXPECT_NEAR(c[i].imag(), ref[i].imag(), tol);
      }
    }
  }
}

TEST(GemmEquivalence, CgemmAccumulatesIntoExistingOutput) {
  // C += A*B semantics: a pre-filled C must keep its prior contents as the
  // accumulation base on every backend.
  BackendGuard guard;
  linalg::CgemmScratch scratch;
  const GemmShape s{3, 5, 9};
  const auto a = random_cfloats(s.m * s.k, 71);
  const auto b = random_cfloats(s.k * s.n, 72);
  const auto base = random_cfloats(s.m * s.n, 73);
  for (Backend bk : supported_backends()) {
    simd::force_backend(bk);
    std::vector<cfloat> once(base);
    linalg::cgemm(false, s.m, s.k, s.n, a.data(), s.k, b.data(), s.n,
                  once.data(), s.n, scratch);
    std::vector<cfloat> zero(s.m * s.n, cfloat{});
    linalg::cgemm(false, s.m, s.k, s.n, a.data(), s.k, b.data(), s.n,
                  zero.data(), s.n, scratch);
    for (std::size_t i = 0; i < once.size(); ++i) {
      EXPECT_NEAR(once[i].real(), base[i].real() + zero[i].real(), 1e-4f)
          << simd::backend_name(bk);
      EXPECT_NEAR(once[i].imag(), base[i].imag() + zero[i].imag(), 1e-4f);
    }
  }
}

TEST(GemmEquivalence, ExactCgemmBitExactAcrossBackends) {
  // cgemm_planar_exact is FMA-free, with terms added in ascending p onto
  // the existing C, so every backend must reproduce the
  // plain std::complex<float> MAC loop byte for byte, at every ragged edge
  // of the AVX2 4 x 8 register block, with padded leading dimensions, and
  // without touching the padding.
  for (std::size_t m : {1, 2, 3, 4, 5, 17}) {
    for (std::size_t n : {1, 7, 8, 9, 17, 128}) {
      for (std::size_t k : {1, 3, 64}) {
        const std::size_t ldb = n + 3, ldc = n + 5;
        const auto a = random_cfloats(m * k, 3000 + m * k);
        const auto b = random_cfloats(k * ldb, 4000 + n * k);
        const auto c0 = random_cfloats(m * ldc, 5000 + m * n);
        std::vector<float> ar(m * k), ai(m * k);
        for (std::size_t i = 0; i < m * k; ++i) {
          ar[i] = a[i].real();
          ai[i] = a[i].imag();
        }
        std::vector<cfloat> ref = c0;
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t p = 0; p < k; ++p) {
            for (std::size_t l = 0; l < n; ++l) {
              ref[i * ldc + l] += a[i * k + p] * b[p * ldb + l];
            }
          }
        }
        for (Backend bk : supported_backends()) {
          std::vector<cfloat> got = c0;
          simd::ops(bk).cgemm_planar_exact(
              reinterpret_cast<float*>(got.data()), ldc, ar.data(), ai.data(),
              m, k, reinterpret_cast<const float*>(b.data()), ldb, n);
          EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                                ref.size() * sizeof(cfloat)),
                    0)
              << simd::backend_name(bk) << " m=" << m << " n=" << n
              << " k=" << k;
        }
      }
    }
  }
}

TEST(GemmEquivalence, CgemvRowsIsConjugateGemm) {
  BackendGuard guard;
  linalg::CgemmScratch scratch;
  const GemmShape s{4, 10, 33};
  const auto w = random_cfloats(s.m * s.k, 81);
  const auto x = random_cfloats(s.k * s.n, 82);
  for (Backend bk : supported_backends()) {
    simd::force_backend(bk);
    std::vector<cfloat> y1(s.m * s.n, cfloat{}), y2(s.m * s.n, cfloat{});
    linalg::cgemv_rows(s.m, s.k, s.n, w.data(), s.k, x.data(), s.n, y1.data(),
                       s.n, scratch);
    linalg::cgemm(true, s.m, s.k, s.n, w.data(), s.k, x.data(), s.n, y2.data(),
                  s.n, scratch);
    for (std::size_t i = 0; i < y1.size(); ++i) {
      EXPECT_EQ(y1[i].real(), y2[i].real()) << simd::backend_name(bk);
      EXPECT_EQ(y1[i].imag(), y2[i].imag());
    }
  }
}

TEST(GemmEquivalence, ScalarCherkBitExactAgainstHerUpdateReference) {
  // The scalar rank-k kernel must reproduce the historical covariance path:
  // per-gate snapshot gather into cdouble followed by a rank-1 her_update,
  // accumulated in gate order. lds > t exercises a stride wider than the
  // training window, as in the real BinArray layout.
  BackendGuard guard;
  simd::force_backend(Backend::kScalar);
  for (std::size_t dof : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                          std::size_t{13}}) {
    for (std::size_t t : {std::size_t{1}, std::size_t{5}, std::size_t{32},
                          std::size_t{57}}) {
      const std::size_t lds = t + 3;
      const auto s = random_cfloats(dof * lds, 5000 + dof * 100 + t);
      const double alpha = 1.0 / static_cast<double>(t);

      linalg::CMatrix<double> ref(dof, dof);
      std::vector<cdouble> snap(dof);
      for (std::size_t g = 0; g < t; ++g) {
        for (std::size_t d = 0; d < dof; ++d) {
          const cfloat v = s[d * lds + g];
          snap[d] = {v.real(), v.imag()};
        }
        linalg::ref::her_update(ref, snap, alpha);
      }

      linalg::CMatrix<double> got(dof, dof);
      linalg::cherk_lower(got, s.data(), lds, t, alpha);
      for (std::size_t i = 0; i < dof; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
          EXPECT_EQ(got(i, j).real(), ref(i, j).real())
              << "dof=" << dof << " t=" << t << " (" << i << "," << j << ")";
          EXPECT_EQ(got(i, j).imag(), ref(i, j).imag());
        }
        // Strictly-upper entries are never written.
        for (std::size_t j = i + 1; j < dof; ++j) {
          EXPECT_EQ(got(i, j).real(), 0.0);
          EXPECT_EQ(got(i, j).imag(), 0.0);
        }
      }
    }
  }
}

TEST(GemmEquivalence, CherkBackendsMatchScalarWithinTolerance) {
  BackendGuard guard;
  for (std::size_t dof : {std::size_t{2}, std::size_t{7}, std::size_t{16}}) {
    for (std::size_t t : {std::size_t{9}, std::size_t{64}}) {
      const std::size_t lds = t;
      const auto s = random_cfloats(dof * lds, 6000 + dof * 100 + t);
      const double alpha = 1.0 / static_cast<double>(t);

      simd::force_backend(Backend::kScalar);
      linalg::CMatrix<double> ref(dof, dof);
      linalg::cherk_lower(ref, s.data(), lds, t, alpha);

      for (Backend bk : supported_backends()) {
        simd::force_backend(bk);
        linalg::CMatrix<double> got(dof, dof);
        linalg::cherk_lower(got, s.data(), lds, t, alpha);
        for (std::size_t i = 0; i < dof; ++i) {
          for (std::size_t j = 0; j <= i; ++j) {
            EXPECT_NEAR(got(i, j).real(), ref(i, j).real(), 1e-12 * t)
                << simd::backend_name(bk) << " dof=" << dof << " t=" << t;
            EXPECT_NEAR(got(i, j).imag(), ref(i, j).imag(), 1e-12 * t);
          }
        }
      }
    }
  }
}

TEST(GemmEquivalence, MatvecPathsMatchScalarTemplatesWithinTolerance) {
  // Matrix-vector products run on the GEMM kernel: A x is an n = 1 cgemm,
  // and A^H x is the conjugate of the one-row product x^H A. Cross-check
  // both on every backend against the plain templates on a double-widened
  // copy.
  BackendGuard guard;
  const std::size_t rows = 7, cols = 13;
  const auto a = random_cfloats(rows * cols, 91);
  const auto x = random_cfloats(cols, 92);
  const auto xr = random_cfloats(rows, 93);
  linalg::CMatrix<double> wide(rows, cols);
  std::copy(a.begin(), a.end(), wide.flat().begin());
  std::vector<cdouble> ax(rows), ahx(cols);
  linalg::ref::matvec(wide, std::vector<cdouble>(x.begin(), x.end()), ax);
  linalg::ref::matvec_herm(wide, std::vector<cdouble>(xr.begin(), xr.end()), ahx);

  linalg::CgemmScratch scratch;
  for (Backend b : supported_backends()) {
    simd::force_backend(b);
    std::vector<cfloat> y(rows, cfloat{});
    linalg::cgemm(false, rows, cols, 1, a.data(), cols, x.data(), 1, y.data(), 1,
                  scratch);
    for (std::size_t i = 0; i < rows; ++i) {
      EXPECT_NEAR(y[i].real(), ax[i].real(), 1e-4) << simd::backend_name(b);
      EXPECT_NEAR(y[i].imag(), ax[i].imag(), 1e-4);
    }
    std::vector<cfloat> yh(cols, cfloat{});
    linalg::cgemm(true, 1, rows, cols, xr.data(), rows, a.data(), cols, yh.data(),
                  cols, scratch);
    for (std::size_t j = 0; j < cols; ++j) {
      const cfloat v = std::conj(yh[j]);
      EXPECT_NEAR(v.real(), ahx[j].real(), 1e-4) << simd::backend_name(b);
      EXPECT_NEAR(v.imag(), ahx[j].imag(), 1e-4);
    }
  }
}

// ------------------------------------------------------------ checksum --

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> v(n);
  for (auto& b : v) b = static_cast<unsigned char>(rng.uniform_index(256));
  return v;
}

TEST(Crc32c, KnownAnswersOnEveryBackend) {
  struct Vector {
    const char* name;
    std::vector<unsigned char> bytes;
    std::uint32_t crc;
  };
  std::vector<unsigned char> ascending(32), descending(32);
  for (int i = 0; i < 32; ++i) {
    ascending[static_cast<std::size_t>(i)] = static_cast<unsigned char>(i);
    descending[static_cast<std::size_t>(i)] = static_cast<unsigned char>(31 - i);
  }
  const std::string check = "123456789";
  // "123456789" is the CRC catalogue's check value; the other four are the
  // iSCSI test vectors of RFC 3720, appendix B.4.
  const std::vector<Vector> vectors = {
      {"123456789", {check.begin(), check.end()}, 0xE3069283u},
      {"32 x 0x00", std::vector<unsigned char>(32, 0x00), 0x8A9136AAu},
      {"32 x 0xFF", std::vector<unsigned char>(32, 0xFF), 0x62A8AB43u},
      {"0..31", ascending, 0x46DD794Eu},
      {"31..0", descending, 0x113FDB5Cu},
  };
  for (const Vector& v : vectors) {
    EXPECT_EQ(crc32c(v.bytes.data(), v.bytes.size()), v.crc) << v.name;
    for (Backend b : supported_backends()) {
      EXPECT_EQ(simd::ops(b).crc32c(0, v.bytes.data(), v.bytes.size()), v.crc)
          << v.name << " " << simd::backend_name(b);
    }
  }
  EXPECT_EQ(crc32c(nullptr, 0), 0u);
}

TEST(Crc32c, BackendsAgreeOnEveryLengthAndOffset) {
  // Lengths 0..4099 cover every 8-byte tail and several whole words; start
  // offsets 0..7 cover every misalignment of the 8-byte loads.
  const auto bytes = random_bytes(4099 + 8, 41);
  const simd::Ops& ref = simd::ops(Backend::kScalar);
  for (Backend b : supported_backends()) {
    if (b == Backend::kScalar) continue;
    const simd::Ops& o = simd::ops(b);
    for (std::size_t off = 0; off < 8; ++off) {
      for (std::size_t len = 0; len <= 4099; ++len) {
        const unsigned char* p = bytes.data() + off;
        ASSERT_EQ(o.crc32c(0, p, len), ref.crc32c(0, p, len))
            << simd::backend_name(b) << " offset=" << off << " len=" << len;
      }
    }
  }
}

TEST(Crc32c, UpdateOverEverySplitEqualsOneShot) {
  const auto bytes = random_bytes(257, 43);
  for (Backend b : supported_backends()) {
    BackendGuard guard;
    simd::force_backend(b);
    const std::uint32_t whole = crc32c(bytes.data(), bytes.size());
    for (std::size_t split = 0; split <= bytes.size(); ++split) {
      const std::uint32_t head = crc32c_update(0, bytes.data(), split);
      ASSERT_EQ(crc32c_update(head, bytes.data() + split, bytes.size() - split), whole)
          << simd::backend_name(b) << " split=" << split;
    }
  }
}

// ------------------------------------------------------------- aligned --

TEST(AlignedVector, AllocatesToDefaultAlignment) {
  AlignedVector<float> v(1000);
  EXPECT_TRUE(is_aligned(v.data()));
  v.resize(4096);
  EXPECT_TRUE(is_aligned(v.data()));
  AlignedVector<float> w = v;
  EXPECT_TRUE(is_aligned(w.data()));
}

TEST(AlignedVector, IsAlignedChecksArbitraryBoundaries) {
  alignas(64) float buf[32];
  EXPECT_TRUE(is_aligned(buf));
  EXPECT_TRUE(is_aligned(buf, 32));
  EXPECT_FALSE(is_aligned(buf + 1, 64));
  EXPECT_TRUE(is_aligned(buf + 16, 64));
}

}  // namespace
}  // namespace pstap
