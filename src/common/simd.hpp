// Runtime-dispatched SIMD backend for the STAP hot loops.
//
// The compute kernels (FFT radix stages, window/stagger gathers, matched
// filtering, beamform inner products, CFAR power) all reduce to a small set
// of float-array primitives; the pfs integrity check adds one byte-stream
// primitive, CRC32C. This header exposes those primitives behind a table of
// function pointers (`Ops`) resolved ONCE at startup from CPUID:
//
//   * kScalar — plain C++ loops (the reference semantics; still subject to
//     the compiler's baseline auto-vectorization, e.g. 4-wide SSE2 on
//     x86-64);
//   * kSse2   — explicit 4-wide __m128 kernels;
//   * kAvx2   — explicit 8-wide __m256 kernels with FMA, plus the SSE4.2
//     `crc32` instruction (detect_best() requires avx2, fma and sse4.2).
//
// Selection: best supported backend by default, overridable with the
// PSTAP_SIMD environment variable (scalar|sse2|avx2|auto). An unsupported
// request degrades to the best available backend with a one-time warning.
// The applied backend is recorded in the obs registry as gauge
// "simd.backend" (0 = scalar, 1 = sse2, 2 = avx2) so benches and CI can
// assert the dispatch actually engaged.
//
// Every field has a production caller: the FFT (`radix_rows` for every
// stage, `cscale_rows` for the twiddles of a prime sub-plan stage, the
// Rader kernel spectrum and the matched-filter multiply, `scale` for the
// inverse's 1/n, `gather_planes` and `scatter_planes` around every batched
// transform), the Doppler filter (`deinterleave_scale`, `interleave`),
// CFAR (`norm_interleaved`), the weight and beamform GEMMs
// (`cgemm_planar`, `zherk_cf_lower`), the scene generator's clutter
// synthesis (`cgemm_planar_exact`) and the pfs checksum (`crc32c`, through
// common/crc32c.hpp).
//
// Numerical contract: every backend computes the same per-element
// expression trees as the scalar reference. The AVX2 tier contracts
// mul+add pairs into FMAs inside `cscale_rows`, `radix_rows`,
// `cgemm_planar` and `zherk_cf_lower`, so those results may differ from
// scalar in the last bits (tests compare within tolerance). AVX2 hands rows
// narrower than 8 lanes to the scalar row kernels, which keeps those rows
// (every row of a single-series FFT) bit-exact with scalar; SSE2 never
// contracts, so its two complex row kernels are bit-exact with scalar at
// every width. `norm_interleaved`, `scale`, `deinterleave_scale`,
// `interleave`, `gather_planes`, `scatter_planes` and `cgemm_planar_exact`
// are FMA-free and bit-exact with the scalar path on every backend — CFAR
// threshold comparisons see identical powers and synthesized scenes have
// identical bytes no matter which backend ran. `interleave` stays bit-exact
// when its vector backends stream their stores (non-temporal, past the
// cache): how a byte is stored does not change its value, only when another
// core sees it, so its caller issues one store_fence() before the hand-off.
// `crc32c` is integer arithmetic and returns the same value on every
// backend.
//
// Hot callers hoist `const simd::Ops& o = simd::ops();` outside their loops
// so dispatch costs one indirect call per row, not per element.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pstap::simd {

enum class Backend : int {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
};

/// Human-readable backend name ("scalar", "sse2", "avx2").
const char* backend_name(Backend b) noexcept;

/// Best backend this CPU supports (ignores PSTAP_SIMD).
Backend detect_best() noexcept;

/// The backend in effect: detect_best() clamped by PSTAP_SIMD, resolved on
/// first call and cached. Records the obs gauge "simd.backend" and applies
/// init_thread() on the resolving thread.
Backend active() noexcept;

/// Apply the per-thread FP environment for DSP kernels to the CALLING
/// thread: flush-to-zero + denormals-are-zero (x86 MXCSR). Gradual
/// underflow traps into microcode and costs 10-100x inside the hot loops,
/// while the signal chain treats subnormal magnitudes (< 1.2e-38) as
/// silence — flushing them to zero is the standard real-time DSP trade.
/// Returns true when the mode was applied; a no-op returning false on
/// non-x86 builds or when PSTAP_FTZ=0. Every mp::World rank thread calls
/// this at startup; standalone compute threads should do the same. Sets the
/// obs gauge "simd.ftz" to 1 when applied.
bool init_thread() noexcept;

/// Primitive kernel table. All sizes are element counts; `n` complex
/// elements means 2n floats for interleaved arrays. Pointers may be
/// unaligned (the kernels use unaligned loads); 64-byte-aligned inputs —
/// see AlignedVector in common/aligned_buffer.hpp — avoid split-line loads.
struct Ops {
  /// Row-batched in-place complex scale of split planes: row j (lanes wide,
  /// at offset j*lanes) scaled by the interleaved pair w[2j] + i*w[2j+1].
  /// Used for the fused matched-filter spectral multiply, the Rader kernel
  /// spectrum and the twiddles of the FFT's prime sub-plan stages.
  void (*cscale_rows)(float* re, float* im, const float* w, std::size_t rows,
                      std::size_t lanes);
  /// One radix-p stage of the mixed-radix FFT, p in {2, 3, 4, 5, 7}, in
  /// place over split planes of `lanes`-wide rows. The planes hold `blocks`
  /// blocks of p*span rows; in block b, for each j in [0, span), the p rows
  /// b*p*span + j + q*span (q in [0, p)) go through a forward p-point DFT.
  /// Decimation in time (dif == false) first scales input row q >= 1 by the
  /// twiddle w(j, q) = tw[2i] + i*tw[2i+1], i = j*(p-1) + q-1; decimation in
  /// frequency scales output row q >= 1 by it after the DFT. Rows with
  /// j == 0 take no twiddle. Odd radices use the symmetric-pair form:
  /// outputs k and p-k share the sums and differences x_j +- x_{p-j}.
  void (*radix_rows)(float* re, float* im, const float* tw, std::size_t p,
                     std::size_t span, std::size_t blocks, std::size_t lanes,
                     bool dif);
  /// x[i] *= s.
  void (*scale)(float* x, float s, std::size_t n);
  /// Windowed deinterleave: re[i] = w * src[2i], im[i] = w * src[2i+1].
  void (*deinterleave_scale)(float* re, float* im, const float* src, float w,
                             std::size_t n);
  /// Interleave split planes: dst[2i] = re[i], dst[2i+1] = im[i]. With
  /// `stream` set, SSE2 and AVX2 write the 16/32-byte-aligned interior of
  /// dst with streaming (non-temporal) stores, which skip reading the lines
  /// for ownership and bypass the cache: for write-once output too large to
  /// stay cached for its reader. An unaligned head, the tail, a dst that is
  /// not 8-byte aligned, `stream == false` and the scalar backend take
  /// plain stores. The stored bytes are those of the scalar loop either
  /// way. Streaming stores are weakly ordered: call store_fence() before
  /// another thread may read dst.
  void (*interleave)(float* dst, const float* re, const float* im,
                     std::size_t n, bool stream);
  /// AoS -> SoA transpose of `lanes` complex series of n elements, series
  /// l's element k at src[2 * (l * dist + k * stride)], into the planes
  /// re/im[k * lanes + l]: the gather in front of every batched FFT.
  void (*gather_planes)(float* re, float* im, const float* src, std::size_t n,
                        std::size_t dist, std::size_t stride, std::size_t lanes);
  /// SoA -> AoS, the inverse of gather_planes.
  void (*scatter_planes)(float* dst, const float* re, const float* im,
                         std::size_t n, std::size_t dist, std::size_t stride,
                         std::size_t lanes);
  /// CFAR power: power[i] = re_i^2 + im_i^2 of interleaved complex input,
  /// widened to double. FMA-free: bit-exact across backends.
  void (*norm_interleaved)(double* power, const float* x, std::size_t n);

  // ---------------------------------------------- complex GEMM kernels --
  // The adaptive-weights / beamform micro-kernel family (linalg/cgemm.hpp
  // is the packing + shape-checking front end; these are the raw loops).

  /// Blocked complex GEMM over a packed split-re/im A tile:
  /// C(m x n) += A(m x k) * B(k x n), where C row i is interleaved complex
  /// at c + 2*i*ldc, A element (i, p) is ar/ai[i*k + p] (planar, packed by
  /// the caller — conjugation of A is applied at pack time by negating the
  /// imag plane, which is exact), and B row p is interleaved complex at
  /// b + 2*p*ldb. The scalar backend accumulates i-outer / p-middle /
  /// n-inner with the historical beamform MAC expression trees; AVX2
  /// register-blocks 4 C rows x 4 complex columns with FMA (tolerance).
  void (*cgemm_planar)(float* c, std::size_t ldc, const float* ar,
                       const float* ai, std::size_t m, std::size_t k,
                       const float* b, std::size_t ldb, std::size_t n);
  /// cgemm_planar without FMA contraction: every C element accumulates its
  /// k terms in ascending p onto its existing value, so the result is
  /// bit-exact with the scalar cgemm_planar on every backend. The scene
  /// generator's clutter synthesis (a rank-patches update of the cube) runs
  /// on it, which keeps the synthesized bytes host-independent. Scalar and
  /// SSE2 point at their cgemm_planar; AVX2 register-blocks 4 C rows x 8
  /// complex columns without FMA.
  void (*cgemm_planar_exact)(float* c, std::size_t ldc, const float* ar,
                             const float* ai, std::size_t m, std::size_t k,
                             const float* b, std::size_t ldb, std::size_t n);
  /// Hermitian rank-k update of a double-precision lower triangle from
  /// cfloat snapshot rows (STAP covariance formation): for 0 <= j <= i <
  /// dof,
  ///   r(i, j) += alpha * sum_t s_i(t) * conj(s_j(t))
  /// where s_d is the interleaved cfloat row at s + 2*d*lds and r is
  /// row-major interleaved complex double with leading dimension ldr
  /// (complex elements). Only the lower triangle (incl. diagonal) is
  /// written. The scalar backend applies alpha per term and accumulates in
  /// gate order — the exact fl-sequence of the historical per-snapshot
  /// her_update loop; vector backends convert four complex floats per step
  /// and reduce with FMA lane partials (tolerance).
  void (*zherk_cf_lower)(double* r, std::size_t ldr, const float* s,
                         std::size_t lds, std::size_t dof, std::size_t t,
                         double alpha);

  // ------------------------------------------------------------ checksum --

  /// CRC32C (Castagnoli, reflected polynomial 0x82F63B78) of `len` bytes,
  /// continuing from `crc`, with the pre/post inversion applied inside, so
  /// crc32c(crc32c(0, a), b) == crc32c(0, a ++ b). Scalar and SSE2 walk a
  /// 256-entry byte table (~0.3 GB/s); AVX2 runs the SSE4.2 `crc32`
  /// instruction 8 bytes per step, then a byte tail (~6 GB/s).
  std::uint32_t (*crc32c)(std::uint32_t crc, const void* data, std::size_t len);
};

/// Orders every streaming store the calling thread issued before it ahead
/// of its later stores (x86 `sfence`; a no-op elsewhere). Call it once after
/// a batch of `interleave` calls and before handing their output to another
/// thread: the hand-off's release does not order streaming stores.
void store_fence() noexcept;

/// Kernel table for the active backend (cheap: one relaxed atomic load).
const Ops& ops() noexcept;

/// Kernel table for a specific backend — the scalar table doubles as the
/// reference implementation in equivalence tests. Requesting a backend the
/// CPU lacks returns the best supported table instead.
const Ops& ops(Backend b) noexcept;

/// Test hook: swap the active backend (clamped to what the CPU supports)
/// and return what was actually applied. Updates the "simd.backend" gauge.
/// Not safe to call while kernels are running on other threads — intended
/// for test setup and benchmark harnesses only.
Backend force_backend(Backend b) noexcept;

}  // namespace pstap::simd
