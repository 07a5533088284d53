#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
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

constexpr std::size_t kMaxRadix = 7;  // largest radix with a radix_rows body

std::vector<std::size_t> prime_factors(std::size_t n) {
  std::vector<std::size_t> f;
  for (std::size_t p = 2; p * p <= n; ++p) {
    while (n % p == 0) {
      f.push_back(p);
      n /= p;
    }
  }
  if (n > 1) f.push_back(n);
  return f;
}

// Stage radices of a composite length, in decimation-in-time order: pairs
// of 2s become radix 4, and the radices run largest first, because the
// first stage (span 1) takes no twiddles and a radix-p stage twiddles
// (p - 1)/p of its rows.
std::vector<std::size_t> stage_radices(std::size_t n) {
  std::vector<std::size_t> r;
  std::size_t twos = 0;
  for (std::size_t p : prime_factors(n)) {
    if (p == 2) {
      ++twos;
    } else {
      r.push_back(p);
    }
  }
  for (; twos >= 2; twos -= 2) r.push_back(4);
  if (twos == 1) r.push_back(2);
  std::sort(r.begin(), r.end(), std::greater<>());
  return r;
}

std::uint64_t pow_mod(std::uint64_t b, std::uint64_t e, std::uint64_t m) {
  std::uint64_t r = 1;
  for (b %= m; e > 0; e >>= 1) {
    if (e & 1u) r = r * b % m;
    b = b * b % m;
  }
  return r;
}

// Smallest generator of the multiplicative group mod prime p.
std::uint64_t primitive_root(std::uint64_t p) {
  std::vector<std::size_t> f = prime_factors(p - 1);
  f.erase(std::unique(f.begin(), f.end()), f.end());
  for (std::uint64_t g = 2;; ++g) {
    if (std::all_of(f.begin(), f.end(),
                    [&](std::size_t q) { return pow_mod(g, (p - 1) / q, p) != 1; })) {
      return g;
    }
  }
}

// exp(-2 pi i k / n) in double, with k reduced mod n.
cdouble root(std::size_t k, std::size_t n) {
  const double ang = -2.0 * std::numbers::pi * static_cast<double>(k % n) /
                     static_cast<double>(n);
  return {std::cos(ang), std::sin(ang)};
}

void copy_row(float* dr, float* di, const float* sr, const float* si,
              std::size_t lanes) {
  std::memcpy(dr, sr, lanes * sizeof(float));
  std::memcpy(di, si, lanes * sizeof(float));
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
  const std::vector<std::size_t> radices = stage_radices(n_);
  if (radices.size() == 1 && n_ > kMaxRadix) {
    // Rader: for a generator g, X[g^-p] = x[0] + sum_q x[g^q] w^(g^(q-p)),
    // a cyclic convolution of length N = n - 1 of a_q = x[g^q] with
    // b_m = w^(g^-m). The convolution plan's forward DIT takes its input in
    // order_, and its DIF (the unscaled inverse, on swapped planes) leaves
    // its output in order_, so both permutations fold into the gather and
    // the scatter.
    const std::size_t N = n_ - 1;
    conv_ = std::make_unique<FftPlan>(N);
    const std::uint64_t g = primitive_root(n_);
    const std::uint64_t g_inv = pow_mod(g, n_ - 2, n_);
    rader_in_.resize(N);
    rader_out_.resize(N);
    for (std::size_t i = 0; i < N; ++i) {
      const std::size_t p = conv_->order_.empty() ? i : conv_->order_[i];
      rader_in_[i] = static_cast<std::uint32_t>(pow_mod(g, p, n_));
      rader_out_[i] = static_cast<std::uint32_t>(pow_mod(g_inv, p, n_));
    }
    std::vector<cdouble> b(N), w(N);
    for (std::size_t m = 0; m < N; ++m) {
      b[m] = root(pow_mod(g_inv, m, n_), n_);
      w[m] = root(m, N);
    }
    rader_kernel_.resize(N);
    for (std::size_t k = 0; k < N; ++k) {
      cdouble acc{};
      for (std::size_t m = 0; m < N; ++m) acc += b[m] * w[m * k % N];
      acc /= static_cast<double>(N);
      rader_kernel_[k] = cfloat(static_cast<float>(acc.real()),
                                static_cast<float>(acc.imag()));
    }
    work_rows_ = N + conv_->work_rows_;
    return;
  }
  // Mixed radix. DIT stage s has span = product of the radices before it;
  // its twiddle for row j, input q >= 1 is w_{radix*span}^(j q).
  // order_ is built from the innermost stage out: the outermost stage
  // (radix p, span m) reads sub-transform q from rows [q m, (q+1) m), which
  // holds x[q + p t] for t in the inner order.
  std::size_t span = 1;
  std::size_t big_rows = 0;
  order_.assign(1, 0);
  for (const std::size_t p : radices) {
    Stage st{p, span, stage_tw_.size(), nullptr};
    for (std::size_t j = 0; j < span; ++j) {
      for (std::size_t q = 1; q < p; ++q) {
        const cdouble w = root(j * q, p * span);
        stage_tw_.emplace_back(static_cast<float>(w.real()),
                               static_cast<float>(w.imag()));
      }
    }
    if (p > kMaxRadix) {
      st.sub = std::make_unique<FftPlan>(p);
      big_rows = std::max(big_rows, p + st.sub->work_rows_);
    }
    std::vector<std::uint32_t> next(order_.size() * p);
    for (std::size_t q = 0; q < p; ++q) {
      for (std::size_t i = 0; i < order_.size(); ++i) {
        next[q * order_.size() + i] = static_cast<std::uint32_t>(q + p * order_[i]);
      }
    }
    order_ = std::move(next);
    stages_.push_back(std::move(st));
    span *= p;
  }
  work_rows_ = n_ + big_rows;
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

// A small radix is one radix_rows dispatch for the whole stage. A prime
// radix above 7 runs its own plan on each row set: gathered into the work
// rows, twiddled there, transformed and scattered back.
void FftPlan::run_stage(const Stage& s, float* re, float* im, std::size_t lanes,
                        float* wr, float* wi, bool dif) const {
  const std::size_t L = lanes;
  const std::size_t p = s.radix;
  const std::size_t blocks = n_ / (p * s.span);
  const float* tw = reinterpret_cast<const float*>(stage_tw_.data() + s.tw);
  const simd::Ops& vec = simd::ops();
  if (!s.sub) {
    vec.radix_rows(re, im, tw, p, s.span, blocks, L, dif);
    return;
  }
  float* sub_wr = wr + p * L;
  float* sub_wi = wi + p * L;
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t j = 0; j < s.span; ++j) {
      const std::size_t row0 = b * p * s.span + j;
      for (std::size_t q = 0; q < p; ++q) {
        const std::size_t r = (row0 + q * s.span) * L;
        copy_row(wr + q * L, wi + q * L, re + r, im + r, L);
      }
      const float* w = tw + 2 * (p - 1) * j;
      if (!dif && j > 0) vec.cscale_rows(wr + L, wi + L, w, p - 1, L);
      s.sub->dft(wr, wi, L, sub_wr, sub_wi);
      if (dif && j > 0) vec.cscale_rows(wr + L, wi + L, w, p - 1, L);
      for (std::size_t q = 0; q < p; ++q) {
        const std::size_t r = (row0 + q * s.span) * L;
        copy_row(re + r, im + r, wr + q * L, wi + q * L, L);
      }
    }
  }
}

void FftPlan::dit(float* re, float* im, std::size_t lanes, float* wr,
                  float* wi) const {
  if (pow2_) {
    soa_pow2(re, im, lanes, Direction::kForward);
    return;
  }
  for (const Stage& s : stages_) run_stage(s, re, im, lanes, wr, wi, false);
}

void FftPlan::dif(float* re, float* im, std::size_t lanes, float* wr,
                  float* wi) const {
  if (pow2_) {
    soa_pow2(re, im, lanes, Direction::kForward);
    return;
  }
  for (auto s = stages_.rbegin(); s != stages_.rend(); ++s) {
    run_stage(*s, re, im, lanes, wr, wi, true);
  }
}

void FftPlan::rader(float* re, float* im, std::size_t lanes, float* wr,
                    float* wi) const {
  const std::size_t L = lanes;
  const std::size_t N = n_ - 1;
  float* sub_wr = wr + N * L;
  float* sub_wi = wi + N * L;
  for (std::size_t i = 0; i < N; ++i) {
    const std::size_t r = rader_in_[i] * L;
    copy_row(wr + i * L, wi + i * L, re + r, im + r, L);
  }
  conv_->dit(wr, wi, L, sub_wr, sub_wi);
  // The convolution's DC row is sum_q x[g^q]: it completes X[0]. Adding
  // x[0] to the product's DC row adds it to every convolution output, which
  // completes the other X[k] with no extra pass.
  const float kr = rader_kernel_[0].real();
  const float ki = rader_kernel_[0].imag();
  for (std::size_t l = 0; l < L; ++l) {
    const float ar = wr[l], ai = wi[l], xr = re[l], xi = im[l];
    wr[l] = (ar * kr - ai * ki) + xr;
    wi[l] = (ar * ki + ai * kr) + xi;
    re[l] = xr + ar;
    im[l] = xi + ai;
  }
  simd::ops().cscale_rows(wr + L, wi + L,
                          reinterpret_cast<const float*>(rader_kernel_.data() + 1),
                          N - 1, L);
  conv_->dif(wi, wr, L, sub_wi, sub_wr);  // unscaled inverse: swapped planes
  for (std::size_t i = 0; i < N; ++i) {
    const std::size_t r = rader_out_[i] * L;
    copy_row(re + r, im + r, wr + i * L, wi + i * L, L);
  }
}

void FftPlan::dft(float* re, float* im, std::size_t lanes, float* wr,
                  float* wi) const {
  if (pow2_) {
    soa_pow2(re, im, lanes, Direction::kForward);
  } else if (conv_) {
    rader(re, im, lanes, wr, wi);
  } else {
    // Rows into DIT input order through the work rows, then the stages.
    const std::size_t L = lanes;
    std::memcpy(wr, re, n_ * L * sizeof(float));
    std::memcpy(wi, im, n_ * L * sizeof(float));
    for (std::size_t i = 0; i < n_; ++i) {
      copy_row(re + i * L, im + i * L, wr + order_[i] * L, wi + order_[i] * L, L);
    }
    dit(re, im, L, wr + n_ * L, wi + n_ * L);
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
    return;
  }
  // The inverse is the forward engine on swapped planes, scaled by 1/n.
  const bool fwd = dir == Direction::kForward;
  float* r = fwd ? re.data() : im.data();
  float* i = fwd ? im.data() : re.data();
  scratch.work_re_.resize(work_rows_ * lanes);
  scratch.work_im_.resize(work_rows_ * lanes);
  dft(r, i, lanes, scratch.work_re_.data(), scratch.work_im_.data());
  if (!fwd) {
    const float inv = 1.0f / static_cast<float>(n_);
    simd::ops().scale(re.data(), inv, n_ * lanes);
    simd::ops().scale(im.data(), inv, n_ * lanes);
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
  const simd::Ops& ops = simd::ops();
  for (std::size_t b0 = 0; b0 < count; b0 += kBatchLanes) {
    const std::size_t L = std::min(kBatchLanes, count - b0);
    float* f = reinterpret_cast<float*>(base + b0 * dist);
    ops.gather_planes(scratch.re_.data(), scratch.im_.data(), f, n_, dist, stride, L);
    transform_soa(std::span<float>(scratch.re_.data(), n_ * L),
                  std::span<float>(scratch.im_.data(), n_ * L), L, dir, scratch);
    ops.scatter_planes(f, scratch.re_.data(), scratch.im_.data(), n_, dist, stride, L);
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
  const simd::Ops& ops = simd::ops();
  for (std::size_t b0 = 0; b0 < count; b0 += kBatchLanes) {
    const std::size_t L = std::min(kBatchLanes, count - b0);
    float* f = reinterpret_cast<float*>(data.data() + b0 * n_);
    float* re = scratch.re_.data();
    float* im = scratch.im_.data();
    ops.gather_planes(re, im, f, n_, n_, 1, L);
    transform_soa(std::span<float>(re, n_ * L), std::span<float>(im, n_ * L), L,
                  Direction::kForward, scratch);
    // Fused matched-filter multiply: one row-batched SIMD complex scale over
    // the whole spectrum (cfloat doubles as the interleaved w array).
    ops.cscale_rows(re, im, reinterpret_cast<const float*>(spectrum.data()), n_, L);
    transform_soa(std::span<float>(re, n_ * L), std::span<float>(im, n_ * L), L,
                  Direction::kInverse, scratch);
    ops.scatter_planes(f, re, im, n_, n_, 1, L);
  }
}

}  // namespace pstap::fft
