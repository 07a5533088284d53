#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/aligned_buffer.hpp"
#include "common/error.hpp"
#include "common/simd.hpp"

namespace pstap::fft {

namespace {

// Twiddle layout: for each stage with half-block size h (1, 2, 4, ... n/2),
// h twiddles exp(sign * i * pi * j / h), j in [0, h). Total n-1 entries.
std::vector<cfloat> make_twiddles(std::size_t n, double sign) {
  std::vector<cfloat> tw;
  if (n < 2) return tw;
  tw.reserve(n - 1);
  for (std::size_t h = 1; h < n; h <<= 1) {
    for (std::size_t j = 0; j < h; ++j) {
      const double ang = sign * std::numbers::pi * static_cast<double>(j) /
                         static_cast<double>(h);
      tw.emplace_back(static_cast<float>(std::cos(ang)),
                      static_cast<float>(std::sin(ang)));
    }
  }
  return tw;
}

std::vector<std::uint32_t> make_bitrev(std::size_t n) {
  std::vector<std::uint32_t> rev(n, 0);
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < n) ++bits;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < bits; ++b) {
      if ((i >> b) & 1u) r |= std::size_t{1} << (bits - 1 - b);
    }
    rev[i] = static_cast<std::uint32_t>(r);
  }
  return rev;
}

// AoS -> SoA: gather L series (series l's element k at base[l*dist + k*stride])
// into planes re/im[k*L + l]. std::complex<float> is layout-compatible with
// float[2], so the gather reads the raw float pairs.
void gather_soa(const cfloat* base, std::size_t n, std::size_t dist,
                std::size_t stride, std::size_t lanes, float* re, float* im) {
  const float* f = reinterpret_cast<const float*>(base);
  for (std::size_t k = 0; k < n; ++k) {
    float* rk = re + k * lanes;
    float* ik = im + k * lanes;
    const std::size_t row = 2 * k * stride;
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::size_t idx = row + 2 * l * dist;
      rk[l] = f[idx];
      ik[l] = f[idx + 1];
    }
  }
}

// SoA -> AoS scatter, inverse of gather_soa.
void scatter_soa(cfloat* base, std::size_t n, std::size_t dist, std::size_t stride,
                 std::size_t lanes, const float* re, const float* im) {
  float* f = reinterpret_cast<float*>(base);
  for (std::size_t k = 0; k < n; ++k) {
    const float* rk = re + k * lanes;
    const float* ik = im + k * lanes;
    const std::size_t row = 2 * k * stride;
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::size_t idx = row + 2 * l * dist;
      f[idx] = rk[l];
      f[idx + 1] = ik[l];
    }
  }
}

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n), pow2_(is_pow2(n)) {
  PSTAP_REQUIRE(n >= 1, "FFT length must be >= 1");
  if (pow2_) {
    bitrev_ = make_bitrev(n_);
    twiddle_fwd_ = make_twiddles(n_, -1.0);
    twiddle_inv_ = make_twiddles(n_, +1.0);
    return;
  }
  // Bluestein: x_k * a_k convolved with b_k where a_k = exp(-i pi k^2 / n),
  // b_k = conj(a_k) extended symmetrically; convolution done at length m.
  m_ = next_pow2(2 * n_ - 1);
  helper_ = std::make_unique<FftPlan>(m_);
  chirp_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    // k^2 mod 2n keeps the angle argument small for numerical accuracy.
    const std::size_t k2 = (k * k) % (2 * n_);
    const double ang = std::numbers::pi * static_cast<double>(k2) /
                       static_cast<double>(n_);
    chirp_[k] = cfloat(static_cast<float>(std::cos(ang)),
                       static_cast<float>(-std::sin(ang)));
  }
  chirp_conj_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) chirp_conj_[k] = std::conj(chirp_[k]);
  auto build_kernel = [&](bool forward) {
    std::vector<cfloat> b(m_, cfloat{0.0f, 0.0f});
    for (std::size_t k = 0; k < n_; ++k) {
      const cfloat c = forward ? std::conj(chirp_[k]) : chirp_[k];
      b[k] = c;
      if (k != 0) b[m_ - k] = c;
    }
    helper_->transform(b, Direction::kForward);
    return b;
  };
  chirp_fft_fwd_ = build_kernel(true);
  chirp_fft_inv_ = build_kernel(false);
}

void FftPlan::transform(std::span<cfloat> data, Direction dir) const {
  PSTAP_REQUIRE(data.size() == n_, "FFT buffer size does not match plan length");
  BatchScratch scratch;
  transform_strided_batch(data.data(), 1, n_, 1, dir, scratch);
}

// Lane-parallel radix-2 butterflies over SoA planes. The lane index is the
// contiguous innermost dimension, so each butterfly row is one call into
// the runtime-dispatched SIMD backend with the twiddle broadcast (see
// common/simd.hpp; the table is hoisted so dispatch is one indirect call
// per row, not per element).
void FftPlan::soa_pow2(float* re, float* im, std::size_t lanes, Direction dir) const {
  const std::size_t n = n_;
  const std::size_t L = lanes;
  const simd::Ops& vec = simd::ops();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) {
      float* ri = re + i * L;
      float* rj = re + j * L;
      float* ii = im + i * L;
      float* ij = im + j * L;
      for (std::size_t l = 0; l < L; ++l) std::swap(ri[l], rj[l]);
      for (std::size_t l = 0; l < L; ++l) std::swap(ii[l], ij[l]);
    }
  }
  const std::vector<cfloat>& tw =
      dir == Direction::kForward ? twiddle_fwd_ : twiddle_inv_;
  // Stage twiddles for half-block size h start at offset h - 1 (the stages
  // before it hold 1 + 2 + ... + h/2 = h - 1 entries), and cfloat is
  // layout-compatible with float[2] — each stage's twiddle run is already
  // the interleaved (wr, wi) array the row-batched kernels want. Stages are
  // consumed in fused pairs (h, 2h): one butterfly2_rows dispatch per group
  // of 4h rows, loading and storing each row once for both levels. An odd
  // log2(n) leaves one final single stage.
  std::size_t h = 1;
  for (; 2 * h < n; h <<= 2) {
    const float* w1 = reinterpret_cast<const float*>(tw.data() + (h - 1));
    const float* w2 = reinterpret_cast<const float*>(tw.data() + (2 * h - 1));
    for (std::size_t block = 0; block < n; block += 4 * h) {
      vec.butterfly2_rows(re + block * L, im + block * L, w1, w2, h, L);
    }
  }
  if (h < n) {
    const float* w = reinterpret_cast<const float*>(tw.data() + (h - 1));
    for (std::size_t block = 0; block < n; block += 2 * h) {
      vec.butterfly_rows(re + block * L, im + block * L, re + (block + h) * L,
                         im + (block + h) * L, w, h, L);
    }
  }
  if (dir == Direction::kInverse) {
    const float inv = 1.0f / static_cast<float>(n);
    const std::size_t total = n * L;
    vec.scale(re, inv, total);
    vec.scale(im, inv, total);
  }
}

// Bluestein over SoA planes. The per-element chirp/kernel factors are
// row-batched complex scales: cfloat arrays double as the interleaved
// (wr, wi) twiddle runs, with the direction's conjugation precomputed in
// chirp_conj_ so no sign flips appear in the lane loops.
void FftPlan::soa_bluestein(float* re, float* im, std::size_t lanes, Direction dir,
                            BatchScratch& scratch) const {
  const bool fwd = dir == Direction::kForward;
  const std::size_t L = lanes;
  const simd::Ops& vec = simd::ops();
  const float* chirp_w =
      reinterpret_cast<const float*>((fwd ? chirp_ : chirp_conj_).data());
  scratch.re2_.assign(m_ * L, 0.0f);
  scratch.im2_.assign(m_ * L, 0.0f);
  float* ar = scratch.re2_.data();
  float* ai = scratch.im2_.data();
  vec.cscale_rows_to(ar, ai, re, im, chirp_w, n_, L);
  helper_->soa_pow2(ar, ai, L, Direction::kForward);
  const std::vector<cfloat>& kernel = fwd ? chirp_fft_fwd_ : chirp_fft_inv_;
  vec.cscale_rows(ar, ai, reinterpret_cast<const float*>(kernel.data()), m_, L);
  helper_->soa_pow2(ar, ai, L, Direction::kInverse);
  vec.cscale_rows_to(re, im, ar, ai, chirp_w, n_, L);
  if (!fwd) {
    const float inv = 1.0f / static_cast<float>(n_);
    vec.scale(re, inv, n_ * L);
    vec.scale(im, inv, n_ * L);
  }
}

void FftPlan::transform_soa(std::span<float> re, std::span<float> im,
                            std::size_t lanes, Direction dir,
                            BatchScratch& scratch) const {
  PSTAP_REQUIRE(re.size() == n_ * lanes && im.size() == n_ * lanes,
                "SoA plane size does not match plan length * lanes");
  if (n_ == 1 || lanes == 0) return;
  if (pow2_) {
    soa_pow2(re.data(), im.data(), lanes, dir);
  } else {
    soa_bluestein(re.data(), im.data(), lanes, dir, scratch);
  }
}

void FftPlan::transform_batch(std::span<cfloat> data, std::size_t count,
                              Direction dir, BatchScratch& scratch) const {
  PSTAP_REQUIRE(data.size() == count * n_, "batch buffer size mismatch");
  transform_strided_batch(data.data(), count, n_, 1, dir, scratch);
}

void FftPlan::transform_batch(std::span<cfloat> data, std::size_t count,
                              Direction dir) const {
  BatchScratch scratch;
  transform_batch(data, count, dir, scratch);
}

void FftPlan::transform_strided_batch(cfloat* base, std::size_t count,
                                      std::size_t dist, std::size_t stride,
                                      Direction dir, BatchScratch& scratch) const {
  PSTAP_REQUIRE(base != nullptr || count == 0, "null data");
  if (count == 0 || n_ == 1) return;  // length-1 transform is the identity
  const std::size_t lanes = std::min(kBatchLanes, count);
  scratch.re_.resize(n_ * lanes);
  scratch.im_.resize(n_ * lanes);
  PSTAP_REQUIRE(is_aligned(scratch.re_.data()) && is_aligned(scratch.im_.data()),
                "SoA scratch planes lost their SIMD alignment");
  for (std::size_t b0 = 0; b0 < count; b0 += kBatchLanes) {
    const std::size_t L = std::min(kBatchLanes, count - b0);
    cfloat* block = base + b0 * dist;
    gather_soa(block, n_, dist, stride, L, scratch.re_.data(), scratch.im_.data());
    transform_soa(std::span<float>(scratch.re_.data(), n_ * L),
                  std::span<float>(scratch.im_.data(), n_ * L), L, dir, scratch);
    scatter_soa(block, n_, dist, stride, L, scratch.re_.data(), scratch.im_.data());
  }
}

void FftPlan::convolve_batch(std::span<cfloat> data, std::size_t count,
                             std::span<const cfloat> spectrum,
                             BatchScratch& scratch) const {
  PSTAP_REQUIRE(data.size() == count * n_, "batch buffer size mismatch");
  PSTAP_REQUIRE(spectrum.size() == n_, "spectrum size does not match plan length");
  if (count == 0) return;
  const std::size_t lanes = std::min(kBatchLanes, count);
  scratch.re_.resize(n_ * lanes);
  scratch.im_.resize(n_ * lanes);
  PSTAP_REQUIRE(is_aligned(scratch.re_.data()) && is_aligned(scratch.im_.data()),
                "SoA scratch planes lost their SIMD alignment");
  for (std::size_t b0 = 0; b0 < count; b0 += kBatchLanes) {
    const std::size_t L = std::min(kBatchLanes, count - b0);
    cfloat* block = data.data() + b0 * n_;
    float* re = scratch.re_.data();
    float* im = scratch.im_.data();
    gather_soa(block, n_, n_, 1, L, re, im);
    transform_soa(std::span<float>(re, n_ * L), std::span<float>(im, n_ * L), L,
                  Direction::kForward, scratch);
    // Fused matched-filter multiply: one row-batched SIMD complex scale over
    // the whole spectrum (cfloat doubles as the interleaved w array).
    simd::ops().cscale_rows(re, im,
                            reinterpret_cast<const float*>(spectrum.data()),
                            n_, L);
    transform_soa(std::span<float>(re, n_ * L), std::span<float>(im, n_ * L), L,
                  Direction::kInverse, scratch);
    scatter_soa(block, n_, n_, 1, L, re, im);
  }
}

}  // namespace pstap::fft
