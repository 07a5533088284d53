// Complex FFT library built from scratch for the STAP kernels.
//
// Provides a planned, reusable transform with one engine per kind of
// length:
//   * powers of two: iterative radix-2 Cooley–Tukey with precomputed
//     twiddle tables and bit-reversal permutation;
//   * other composite lengths: an in-place mixed-radix pass over radices
//     2, 3, 4, 5 and 7 (one simd::Ops::radix_rows dispatch per stage), in
//     decimation-in-time order behind a digit-reversal row permutation;
//     a prime factor above 7 is one stage run through that prime's plan;
//   * primes above 7: Rader's algorithm, a cyclic convolution of length
//     n - 1 through a mixed-radix (or radix-2) sub-plan. Its kernel
//     spectrum is computed in double at plan time with 1/(n-1) folded in;
//     the input and output permutations are fused with the sub-plan's
//     digit reversal (forward in DIT order, inverse in DIF order).
// Inverse transforms of non-power-of-two lengths run the forward engine on
// swapped re/im planes (IDFT(x) = swap(DFT(swap(x))) / n).
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
  AlignedVector<float> re_, im_;            // primary SoA planes (n × lanes)
  AlignedVector<float> work_re_, work_im_;  // non-pow2 work rows (× lanes)
};

/// A planned complex-to-complex FFT of fixed length.
class FftPlan {
 public:
  /// Lane-block width of the batched transforms: series are processed in
  /// groups of up to this many, wide enough to fill SIMD registers.
  static constexpr std::size_t kBatchLanes = 16;

  /// Build a plan for length n (n >= 1). Arbitrary n supported; for a
  /// prime n above 7 construction costs O(n^2) double operations (the
  /// Rader kernel spectrum).
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
  /// Thread-safe with per-caller scratch (work rows for non-pow2 lengths,
  /// grown once and then reused allocation-free).
  void transform_soa(std::span<float> re, std::span<float> im, std::size_t lanes,
                     Direction dir, BatchScratch& scratch) const;

  /// Grow `scratch` so that transform_soa at up to `lanes` lanes allocates
  /// nothing: a caller can size a worker thread's scratch before the fork.
  void reserve_soa(BatchScratch& scratch, std::size_t lanes) const;

 private:
  // One stage of the mixed-radix pass: blocks of radix * span rows. A radix
  // above 7 (a prime factor) runs through `sub`, its own plan.
  struct Stage {
    std::size_t radix;
    std::size_t span;
    std::size_t tw;                // first twiddle of this stage in stage_tw_
    std::unique_ptr<FftPlan> sub;  // prime radix above 7 only
  };

  void soa_pow2(float* re, float* im, std::size_t lanes, Direction dir) const;

  // Forward, unscaled transforms in place on `lanes`-wide rows. `wr`/`wi`
  // point at work_rows_ * lanes floats of scratch per plane.
  // dft: natural order in and out.
  void dft(float* re, float* im, std::size_t lanes, float* wr, float* wi) const;
  // dit: rows in order_ in, natural order out. dif: natural order in, rows
  // in order_ out. (A power-of-two plan runs soa_pow2 for both, in natural
  // order.)
  void dit(float* re, float* im, std::size_t lanes, float* wr, float* wi) const;
  void dif(float* re, float* im, std::size_t lanes, float* wr, float* wi) const;
  void run_stage(const Stage& s, float* re, float* im, std::size_t lanes,
                 float* wr, float* wi, bool dif) const;
  void rader(float* re, float* im, std::size_t lanes, float* wr, float* wi) const;

  std::size_t n_;
  bool pow2_;

  // Radix-2 machinery (pow2_ == true).
  std::vector<std::uint32_t> bitrev_;
  std::vector<cfloat> twiddle_fwd_;  // per-stage packed twiddles
  std::vector<cfloat> twiddle_inv_;

  // Mixed-radix machinery (composite n, not a power of two).
  std::vector<Stage> stages_;        // decimation-in-time order
  std::vector<cfloat> stage_tw_;     // per stage: span x (radix - 1) twiddles
  std::vector<std::uint32_t> order_; // DIT input row order = DIF output order

  // Rader machinery (prime n above 7).
  std::unique_ptr<FftPlan> conv_;          // cyclic convolution plan, n - 1
  std::vector<std::uint32_t> rader_in_;    // conv input row i <- x[rader_in_[i]]
  std::vector<std::uint32_t> rader_out_;   // X[rader_out_[i]] <- conv output row i
  std::vector<cfloat> rader_kernel_;       // DFT of the root sequence / (n - 1)

  std::size_t work_rows_ = 0;  // scratch rows per plane (× lanes floats)
};

}  // namespace pstap::fft
