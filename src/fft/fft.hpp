// Complex FFT library built from scratch for the STAP kernels.
//
// Provides a planned, reusable transform:
//   * power-of-two lengths: iterative radix-2 Cooley–Tukey with precomputed
//     twiddle tables and bit-reversal permutation;
//   * arbitrary lengths: Bluestein's chirp-z algorithm layered on a
//     power-of-two plan.
//
// Batched entry points process many independent series per call by
// transposing lane blocks into structure-of-arrays (SoA) planes: element k
// of lane l lives at plane[k * lanes + l], so every butterfly's inner loop
// runs contiguously across lanes with a scalar twiddle broadcast — the
// shape the compiler auto-vectorizes. This replaces per-series dispatch
// (and per-element strided gathers) with one transpose per block.
//
// The single-series transform() is a batch of one through the same SoA
// engine, so every length and direction runs on one set of kernels.
//
// Thread safety: plans are immutable after construction. Every entry point
// is const and safe to call concurrently on a shared plan — give each
// thread its own BatchScratch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/types.hpp"

namespace pstap::fft {

/// Transform direction.
enum class Direction { kForward, kInverse };

class FftPlan;

/// Reusable workspace for the batched/SoA transforms. One instance per
/// thread; it grows to fit the largest (plan length × lanes) it has seen
/// and is reused allocation-free after that. Usable with any plan.
class BatchScratch {
 public:
  BatchScratch() = default;

 private:
  friend class FftPlan;
  // 64-byte-aligned planes: the SIMD butterflies and twiddle kernels run
  // straight over these, so rows never straddle cache lines gratuitously.
  AlignedVector<float> re_, im_;    // primary SoA planes (n × lanes)
  AlignedVector<float> re2_, im2_;  // Bluestein convolution planes (m × lanes)
};

/// A planned complex-to-complex FFT of fixed length.
class FftPlan {
 public:
  /// Lane-block width of the batched transforms: series are processed in
  /// groups of up to this many, wide enough to fill SIMD registers.
  static constexpr std::size_t kBatchLanes = 16;

  /// Build a plan for length n (n >= 1). Arbitrary n supported.
  explicit FftPlan(std::size_t n);

  std::size_t size() const noexcept { return n_; }

  /// In-place transform of `data` (size() elements): a batch of one through
  /// transform_strided_batch, with a transient scratch.
  /// Inverse transforms are scaled by 1/N so that inverse(forward(x)) == x.
  /// Thread-safe on a shared plan.
  void transform(std::span<cfloat> data, Direction dir) const;

  /// Transform `count` series laid out back to back in `data`
  /// (count * size() elements), lane-blocked through SoA planes.
  /// Thread-safe on a shared plan with per-caller scratch.
  void transform_batch(std::span<cfloat> data, std::size_t count, Direction dir,
                       BatchScratch& scratch) const;

  /// Convenience overload using a transient scratch (one allocation set per
  /// call, amortized over the batch). Thread-safe.
  void transform_batch(std::span<cfloat> data, std::size_t count, Direction dir) const;

  /// Batched strided transform: series b's element k lives at
  /// base[b * dist + k * stride]. Gathers lane blocks into SoA planes
  /// (one pass), transforms, scatters back. `dist` is the series-to-series
  /// distance in elements. Thread-safe with per-caller scratch.
  void transform_strided_batch(cfloat* base, std::size_t count, std::size_t dist,
                               std::size_t stride, Direction dir,
                               BatchScratch& scratch) const;

  /// Fused matched-filter convolution of `count` back-to-back series:
  /// data_b = IFFT(FFT(data_b) * spectrum), with the spectral multiply done
  /// in SoA form between the two transforms (no extra pass over memory).
  /// `spectrum` must hold size() elements. Thread-safe with per-caller
  /// scratch.
  void convolve_batch(std::span<cfloat> data, std::size_t count,
                      std::span<const cfloat> spectrum, BatchScratch& scratch) const;

  /// SoA-plane transform of `lanes` independent series: element k of lane l
  /// at re/im[k * lanes + l]; planes hold size() * lanes floats. This is
  /// the batched kernel itself — callers that already gather into SoA form
  /// (e.g. the Doppler filter) use it directly and skip the AoS transpose.
  /// Thread-safe with per-caller scratch (used only for non-pow2 lengths).
  void transform_soa(std::span<float> re, std::span<float> im, std::size_t lanes,
                     Direction dir, BatchScratch& scratch) const;

 private:
  void soa_pow2(float* re, float* im, std::size_t lanes, Direction dir) const;
  void soa_bluestein(float* re, float* im, std::size_t lanes, Direction dir,
                     BatchScratch& scratch) const;

  std::size_t n_;
  bool pow2_;

  // Radix-2 machinery (for pow2_ == true, and inside Bluestein's helper plan).
  std::vector<std::uint32_t> bitrev_;
  std::vector<cfloat> twiddle_fwd_;  // per-stage packed twiddles
  std::vector<cfloat> twiddle_inv_;

  // Bluestein machinery (for pow2_ == false).
  std::size_t m_ = 0;                    // convolution length (power of two >= 2n-1)
  std::vector<cfloat> chirp_;            // a_k = exp(-i pi k^2 / n)
  std::vector<cfloat> chirp_conj_;       // conj(a_k): inverse-direction chirp
  std::vector<cfloat> chirp_fft_fwd_;    // FFT of zero-padded conjugate chirp
  std::vector<cfloat> chirp_fft_inv_;
  std::unique_ptr<FftPlan> helper_;      // pow2 plan of length m_
};

}  // namespace pstap::fft
