#include "common/simd.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/aligned_buffer.hpp"
#include "obs/metrics.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define PSTAP_SIMD_X86 1
#include <immintrin.h>
#else
#define PSTAP_SIMD_X86 0
#endif

// Pins fp-contract off for one function: wherever the target has FMA, GCC
// would otherwise fuse mul+add pairs and break a bit-exactness contract.
#if defined(__GNUC__) && !defined(__clang__)
#define PSTAP_NO_CONTRACT __attribute__((optimize("fp-contract=off")))
#else
#define PSTAP_NO_CONTRACT
#endif

namespace pstap::simd {

// ------------------------------------------------------- radix stages ----
// The mixed-radix FFT stage is written once, over a lane type V: float for
// the scalar backend, a 4-float vector for SSE2 and an 8-float vector for
// AVX2 (GCC vector extensions, so each backend's entry point compiles the
// same expression trees for its own target). The avx2,fma entry lets the
// compiler contract mul+add pairs into FMAs; the scalar and SSE2 entries pin
// contraction off, which keeps those two bit-exact with each other.
namespace radix {

typedef float f32x4 __attribute__((vector_size(16)));
typedef float f32x8 __attribute__((vector_size(32)));

// A V at any float address: plane rows are only float-aligned.
template <class V>
struct [[gnu::packed, gnu::may_alias]] Unaligned {
  V v;
};

// cos and sin of 2 pi m / P, m in [0, P), for the odd radices.
template <std::size_t P>
struct Trig;
template <>
struct Trig<3> {
  static constexpr float c[] = {1.0f, -0.5f, -0.5f};
  static constexpr float s[] = {0.0f, 0.866025404f, -0.866025404f};
};
template <>
struct Trig<5> {
  static constexpr float c[] = {1.0f, 0.309016994f, -0.809016994f, -0.809016994f,
                                0.309016994f};
  static constexpr float s[] = {0.0f, 0.951056516f, 0.587785252f, -0.587785252f,
                                -0.951056516f};
};
template <>
struct Trig<7> {
  static constexpr float c[] = {1.0f,         0.623489802f,  -0.222520934f,
                                -0.900968868f, -0.900968868f, -0.222520934f,
                                0.623489802f};
  static constexpr float s[] = {0.0f,         0.781831482f,  0.974927912f,
                                0.433883739f,  -0.433883739f, -0.974927912f,
                                -0.781831482f};
};

// Forward P-point DFT of one lane chunk, in registers.
template <class V, std::size_t P>
[[gnu::always_inline]] inline void dft(V (&xr)[P], V (&xi)[P]) {
  if constexpr (P == 2) {
    const V ar = xr[0], ai = xi[0];
    xr[0] = ar + xr[1];
    xi[0] = ai + xi[1];
    xr[1] = ar - xr[1];
    xi[1] = ai - xi[1];
  } else if constexpr (P == 4) {
    const V t0r = xr[0] + xr[2], t0i = xi[0] + xi[2];
    const V t1r = xr[0] - xr[2], t1i = xi[0] - xi[2];
    const V t2r = xr[1] + xr[3], t2i = xi[1] + xi[3];
    const V t3r = xr[1] - xr[3], t3i = xi[1] - xi[3];
    xr[0] = t0r + t2r;
    xi[0] = t0i + t2i;
    xr[2] = t0r - t2r;
    xi[2] = t0i - t2i;
    xr[1] = t1r + t3i;  // t1 - i t3
    xi[1] = t1i - t3r;
    xr[3] = t1r - t3i;  // t1 + i t3
    xi[3] = t1i + t3r;
  } else {
    // Symmetric pairs: with s_j = x_j + x_{P-j} and d_j = x_j - x_{P-j},
    // y_k = a_k - i b_k and y_{P-k} = a_k + i b_k, where
    // a_k = x_0 + sum_j cos(2 pi jk/P) s_j and b_k = sum_j sin(2 pi jk/P) d_j.
    constexpr std::size_t H = (P - 1) / 2;
    V sr[H], si[H], dr[H], di[H];
    for (std::size_t j = 0; j < H; ++j) {
      sr[j] = xr[j + 1] + xr[P - 1 - j];
      si[j] = xi[j + 1] + xi[P - 1 - j];
      dr[j] = xr[j + 1] - xr[P - 1 - j];
      di[j] = xi[j + 1] - xi[P - 1 - j];
    }
    const V x0r = xr[0], x0i = xi[0];
    for (std::size_t k = 1; k <= H; ++k) {
      V ar = x0r + Trig<P>::c[k] * sr[0];
      V ai = x0i + Trig<P>::c[k] * si[0];
      V br = Trig<P>::s[k] * dr[0];
      V bi = Trig<P>::s[k] * di[0];
      for (std::size_t j = 2; j <= H; ++j) {
        const std::size_t m = j * k % P;
        ar += Trig<P>::c[m] * sr[j - 1];
        ai += Trig<P>::c[m] * si[j - 1];
        br += Trig<P>::s[m] * dr[j - 1];
        bi += Trig<P>::s[m] * di[j - 1];
      }
      xr[k] = ar + bi;
      xi[k] = ai - br;
      xr[P - k] = ar - bi;
      xi[P - k] = ai + br;
    }
    V y0r = x0r + sr[0], y0i = x0i + si[0];
    for (std::size_t j = 1; j < H; ++j) {
      y0r += sr[j];
      y0i += si[j];
    }
    xr[0] = y0r;
    xi[0] = y0i;
  }
}

// Rows q >= 1 times the twiddles w[2(q-1)] + i w[2(q-1)+1] (cscale's tree).
template <class V, std::size_t P>
[[gnu::always_inline]] inline void twiddle(V (&xr)[P], V (&xi)[P], const float* w) {
  for (std::size_t q = 1; q < P; ++q) {
    const float wr = w[2 * (q - 1)], wi = w[2 * (q - 1) + 1];
    const V tr = xr[q] * wr - xi[q] * wi;
    xi[q] = xr[q] * wi + xi[q] * wr;
    xr[q] = tr;
  }
}

// Lanes [l, lanes) of one row set, in chunks of V; returns the first lane
// left over (fewer than one V remain). kTw: the set takes twiddles w.
template <class V, std::size_t P, bool kDif, bool kTw>
[[gnu::always_inline]] inline std::size_t run_lanes(float* re, float* im,
                                                    std::size_t stride,
                                                    const float* w, std::size_t l,
                                                    std::size_t lanes) {
  constexpr std::size_t kWidth = sizeof(V) / sizeof(float);
  // The p rows are disjoint lane ranges of the planes, so no iteration
  // reads what another writes: with V = float the compiler may vectorize
  // across lanes without alias checks.
#pragma GCC ivdep
  for (; l + kWidth <= lanes; l += kWidth) {
    V xr[P], xi[P];
    for (std::size_t q = 0; q < P; ++q) {
      xr[q] = reinterpret_cast<const Unaligned<V>*>(re + q * stride + l)->v;
      xi[q] = reinterpret_cast<const Unaligned<V>*>(im + q * stride + l)->v;
    }
    if (!kDif && kTw) twiddle<V, P>(xr, xi, w);
    dft<V, P>(xr, xi);
    if (kDif && kTw) twiddle<V, P>(xr, xi, w);
    for (std::size_t q = 0; q < P; ++q) {
      reinterpret_cast<Unaligned<V>*>(re + q * stride + l)->v = xr[q];
      reinterpret_cast<Unaligned<V>*>(im + q * stride + l)->v = xi[q];
    }
  }
  return l;
}

// One row set; the lane types Vs run widest first, each taking what the
// previous one left.
template <std::size_t P, bool kDif, bool kTw, class... Vs>
[[gnu::always_inline]] inline void row_set(float* re, float* im,
                                           std::size_t stride, const float* w,
                                           std::size_t lanes) {
  std::size_t l = 0;
  ((l = run_lanes<Vs, P, kDif, kTw>(re, im, stride, w, l, lanes)), ...);
}

template <std::size_t P, bool kDif, class... Vs>
[[gnu::always_inline]] inline void stage(float* re, float* im, const float* tw,
                                         std::size_t span, std::size_t blocks,
                                         std::size_t lanes) {
  const std::size_t stride = span * lanes;
  for (std::size_t b = 0; b < blocks; ++b) {
    float* r = re + b * P * span * lanes;
    float* i = im + b * P * span * lanes;
    row_set<P, kDif, false, Vs...>(r, i, stride, nullptr, lanes);
    for (std::size_t j = 1; j < span; ++j) {
      row_set<P, kDif, true, Vs...>(r + j * lanes, i + j * lanes, stride,
                                    tw + 2 * (P - 1) * j, lanes);
    }
  }
}

template <std::size_t P, class... Vs>
[[gnu::always_inline]] inline void stage_dir(float* re, float* im,
                                             const float* tw, std::size_t span,
                                             std::size_t blocks,
                                             std::size_t lanes, bool dif) {
  if (dif) {
    stage<P, true, Vs...>(re, im, tw, span, blocks, lanes);
  } else {
    stage<P, false, Vs...>(re, im, tw, span, blocks, lanes);
  }
}

template <class... Vs>
[[gnu::always_inline]] inline void rows(float* re, float* im, const float* tw,
                                        std::size_t p, std::size_t span,
                                        std::size_t blocks, std::size_t lanes,
                                        bool dif) {
  switch (p) {
    case 2: return stage_dir<2, Vs...>(re, im, tw, span, blocks, lanes, dif);
    case 3: return stage_dir<3, Vs...>(re, im, tw, span, blocks, lanes, dif);
    case 4: return stage_dir<4, Vs...>(re, im, tw, span, blocks, lanes, dif);
    case 5: return stage_dir<5, Vs...>(re, im, tw, span, blocks, lanes, dif);
    case 7: return stage_dir<7, Vs...>(re, im, tw, span, blocks, lanes, dif);
    default: return;  // the FFT plan emits no other radix
  }
}

}  // namespace radix

// ------------------------------------------------------------- scalar ----
// Reference semantics. Every vector backend mirrors these expression trees
// exactly (modulo FMA contraction and reduction order where documented).
// The complex row kernels are FMA-free and never inlined: the AVX2 backend
// hands rows narrower than one ymm register to them, and must get the
// scalar bits back rather than a copy re-compiled (and fused) for its
// avx2,fma target.
namespace scalar_impl {

PSTAP_NO_CONTRACT
void butterfly(float* ar, float* ai, float* br, float* bi, float wr, float wi,
               std::size_t n) {
  for (std::size_t l = 0; l < n; ++l) {
    const float tr = wr * br[l] - wi * bi[l];
    const float ti = wr * bi[l] + wi * br[l];
    br[l] = ar[l] - tr;
    bi[l] = ai[l] - ti;
    ar[l] += tr;
    ai[l] += ti;
  }
}

PSTAP_NO_CONTRACT
void cscale(float* re, float* im, float wr, float wi, std::size_t n) {
  for (std::size_t l = 0; l < n; ++l) {
    const float tr = re[l] * wr - im[l] * wi;
    im[l] = re[l] * wi + im[l] * wr;
    re[l] = tr;
  }
}

__attribute__((noinline)) PSTAP_NO_CONTRACT
void butterfly_rows(float* ar, float* ai, float* br, float* bi, const float* w,
                    std::size_t rows, std::size_t lanes) {
  for (std::size_t j = 0; j < rows; ++j) {
    butterfly(ar + j * lanes, ai + j * lanes, br + j * lanes, bi + j * lanes,
              w[2 * j], w[2 * j + 1], lanes);
  }
}

__attribute__((noinline)) PSTAP_NO_CONTRACT
void butterfly2_rows(float* re, float* im, const float* w1, const float* w2,
                     std::size_t h, std::size_t lanes) {
  for (std::size_t j = 0; j < h; ++j) {
    float* r0 = re + j * lanes;
    float* i0 = im + j * lanes;
    float* r1 = r0 + h * lanes;
    float* i1 = i0 + h * lanes;
    float* r2 = r1 + h * lanes;
    float* i2 = i1 + h * lanes;
    float* r3 = r2 + h * lanes;
    float* i3 = i2 + h * lanes;
    butterfly(r0, i0, r1, i1, w1[2 * j], w1[2 * j + 1], lanes);
    butterfly(r2, i2, r3, i3, w1[2 * j], w1[2 * j + 1], lanes);
    butterfly(r0, i0, r2, i2, w2[2 * j], w2[2 * j + 1], lanes);
    butterfly(r1, i1, r3, i3, w2[2 * (j + h)], w2[2 * (j + h) + 1], lanes);
  }
}

__attribute__((noinline)) PSTAP_NO_CONTRACT
void cscale_rows(float* re, float* im, const float* w, std::size_t rows,
                 std::size_t lanes) {
  for (std::size_t j = 0; j < rows; ++j) {
    cscale(re + j * lanes, im + j * lanes, w[2 * j], w[2 * j + 1], lanes);
  }
}

__attribute__((noinline)) PSTAP_NO_CONTRACT
void radix_rows(float* re, float* im, const float* tw, std::size_t p,
                std::size_t span, std::size_t blocks, std::size_t lanes,
                bool dif) {
  radix::rows<float>(re, im, tw, p, span, blocks, lanes, dif);
}

void scale(float* x, float s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= s;
}

void deinterleave_scale(float* re, float* im, const float* src, float w,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    re[i] = w * src[2 * i];
    im[i] = w * src[2 * i + 1];
  }
}

void interleave(float* dst, const float* re, const float* im, std::size_t n,
                bool /*stream*/) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[2 * i] = re[i];
    dst[2 * i + 1] = im[i];
  }
}

// AoS <-> SoA transposes over lanes [l0, l1) and elements [k0, k1): series
// l's element k sits at src/dst[2 * (l * dist + k * stride)], plane row k holds
// `lanes` floats. The vector backends run these on their tile edges.
void gather_tile(float* re, float* im, const float* src, std::size_t k0,
                 std::size_t k1, std::size_t l0, std::size_t l1, std::size_t dist,
                 std::size_t stride, std::size_t lanes) {
  for (std::size_t k = k0; k < k1; ++k) {
    for (std::size_t l = l0; l < l1; ++l) {
      const std::size_t idx = 2 * (l * dist + k * stride);
      re[k * lanes + l] = src[idx];
      im[k * lanes + l] = src[idx + 1];
    }
  }
}

void scatter_tile(float* dst, const float* re, const float* im, std::size_t k0,
                  std::size_t k1, std::size_t l0, std::size_t l1, std::size_t dist,
                  std::size_t stride, std::size_t lanes) {
  for (std::size_t k = k0; k < k1; ++k) {
    for (std::size_t l = l0; l < l1; ++l) {
      const std::size_t idx = 2 * (l * dist + k * stride);
      dst[idx] = re[k * lanes + l];
      dst[idx + 1] = im[k * lanes + l];
    }
  }
}

void gather_planes(float* re, float* im, const float* src, std::size_t n,
                   std::size_t dist, std::size_t stride, std::size_t lanes) {
  gather_tile(re, im, src, 0, n, 0, lanes, dist, stride, lanes);
}

void scatter_planes(float* dst, const float* re, const float* im, std::size_t n,
                    std::size_t dist, std::size_t stride, std::size_t lanes) {
  scatter_tile(dst, re, im, 0, n, 0, lanes, dist, stride, lanes);
}

// fp-contract is pinned off: at -O3 GCC would otherwise fuse re*re + im*im
// into an FMA here, silently breaking the bit-exactness contract between
// this reference and the vector backends (which use separate mul and add).
PSTAP_NO_CONTRACT
void norm_interleaved(double* power, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float re = x[2 * i], im = x[2 * i + 1];
    power[i] = static_cast<double>(re * re + im * im);
  }
}

// fp-contract pinned off: this is also the reference (and the ragged-edge
// path) of the FMA-free cgemm_planar_exact entry.
PSTAP_NO_CONTRACT
void cgemm_planar(float* c, std::size_t ldc, const float* ar, const float* ai,
                  std::size_t m, std::size_t k, const float* b, std::size_t ldb,
                  std::size_t n) {
  // i-outer / p-middle / l-inner: with conj applied at pack time this is the
  // exact fl-sequence of the historical per-(beam, dof) conjugate-MAC
  // beamform loop (a - (-b) == a + b in IEEE arithmetic, so the
  // packed-negation trees match the conjugating trees bit-for-bit).
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c + 2 * i * ldc;
    for (std::size_t p = 0; p < k; ++p) {
      const float wr = ar[i * k + p];
      const float wi = ai[i * k + p];
      const float* brow = b + 2 * p * ldb;
      for (std::size_t l = 0; l < n; ++l) {
        const float xr = brow[2 * l], xi = brow[2 * l + 1];
        crow[2 * l] += wr * xr - wi * xi;
        crow[2 * l + 1] += wr * xi + wi * xr;
      }
    }
  }
}

void zherk_cf_lower(double* r, std::size_t ldr, const float* s, std::size_t lds,
                    std::size_t dof, std::size_t t, double alpha) {
  // alpha folded per term and gate-order accumulation: the exact fl-sequence
  // of the historical snapshot-gather + her_update covariance loop (each
  // (i, j) cell accumulated independently over t, starting from zero).
  for (std::size_t i = 0; i < dof; ++i) {
    const float* si = s + 2 * i * lds;
    for (std::size_t j = 0; j <= i; ++j) {
      const float* sj = s + 2 * j * lds;
      double acc_re = 0.0, acc_im = 0.0;
      for (std::size_t g = 0; g < t; ++g) {
        const double pr = alpha * static_cast<double>(si[2 * g]);
        const double pi = alpha * static_cast<double>(si[2 * g + 1]);
        const double xr = static_cast<double>(sj[2 * g]);
        const double xi = static_cast<double>(sj[2 * g + 1]);
        acc_re += pr * xr + pi * xi;
        acc_im += pi * xr - pr * xi;
      }
      r[2 * (i * ldr + j)] += acc_re;
      r[2 * (i * ldr + j) + 1] += acc_im;
    }
  }
}

// Byte-at-a-time CRC32C over the reflected Castagnoli polynomial.
constexpr std::array<std::uint32_t, 256> kCrc32cTable = [] {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    t[i] = crc;
  }
  return t;
}();

std::uint32_t crc32c(std::uint32_t crc, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ kCrc32cTable[(crc ^ p[i]) & 0xFFu];
  }
  return ~crc;
}

constexpr Ops kOps = {
    .butterfly_rows = butterfly_rows,
    .butterfly2_rows = butterfly2_rows,
    .cscale_rows = cscale_rows,
    .radix_rows = radix_rows,
    .scale = scale,
    .deinterleave_scale = deinterleave_scale,
    .interleave = interleave,
    .gather_planes = gather_planes,
    .scatter_planes = scatter_planes,
    .norm_interleaved = norm_interleaved,
    .cgemm_planar = cgemm_planar,
    .cgemm_planar_exact = cgemm_planar,
    .zherk_cf_lower = zherk_cf_lower,
    .crc32c = crc32c,
};

}  // namespace scalar_impl

#if PSTAP_SIMD_X86

// --------------------------------------------------------------- sse2 ----
// 4-wide __m128 kernels; x86-64 baseline ISA, no target attribute needed.
namespace sse2_impl {

void butterfly(float* ar, float* ai, float* br, float* bi, float wr, float wi,
               std::size_t n) {
  const __m128 vwr = _mm_set1_ps(wr);
  const __m128 vwi = _mm_set1_ps(wi);
  std::size_t l = 0;
  for (; l + 4 <= n; l += 4) {
    const __m128 vbr = _mm_loadu_ps(br + l);
    const __m128 vbi = _mm_loadu_ps(bi + l);
    const __m128 var = _mm_loadu_ps(ar + l);
    const __m128 vai = _mm_loadu_ps(ai + l);
    const __m128 tr = _mm_sub_ps(_mm_mul_ps(vwr, vbr), _mm_mul_ps(vwi, vbi));
    const __m128 ti = _mm_add_ps(_mm_mul_ps(vwr, vbi), _mm_mul_ps(vwi, vbr));
    _mm_storeu_ps(br + l, _mm_sub_ps(var, tr));
    _mm_storeu_ps(bi + l, _mm_sub_ps(vai, ti));
    _mm_storeu_ps(ar + l, _mm_add_ps(var, tr));
    _mm_storeu_ps(ai + l, _mm_add_ps(vai, ti));
  }
  if (l < n) scalar_impl::butterfly(ar + l, ai + l, br + l, bi + l, wr, wi, n - l);
}

void butterfly_rows(float* ar, float* ai, float* br, float* bi, const float* w,
                    std::size_t rows, std::size_t lanes) {
  for (std::size_t j = 0; j < rows; ++j) {
    butterfly(ar + j * lanes, ai + j * lanes, br + j * lanes, bi + j * lanes,
              w[2 * j], w[2 * j + 1], lanes);
  }
}

void butterfly2_rows(float* re, float* im, const float* w1, const float* w2,
                     std::size_t h, std::size_t lanes) {
  for (std::size_t j = 0; j < h; ++j) {
    float* r0 = re + j * lanes;
    float* i0 = im + j * lanes;
    float* r1 = r0 + h * lanes;
    float* i1 = i0 + h * lanes;
    float* r2 = r1 + h * lanes;
    float* i2 = i1 + h * lanes;
    float* r3 = r2 + h * lanes;
    float* i3 = i2 + h * lanes;
    butterfly(r0, i0, r1, i1, w1[2 * j], w1[2 * j + 1], lanes);
    butterfly(r2, i2, r3, i3, w1[2 * j], w1[2 * j + 1], lanes);
    butterfly(r0, i0, r2, i2, w2[2 * j], w2[2 * j + 1], lanes);
    butterfly(r1, i1, r3, i3, w2[2 * (j + h)], w2[2 * (j + h) + 1], lanes);
  }
}

void cscale(float* re, float* im, float wr, float wi, std::size_t n) {
  const __m128 vwr = _mm_set1_ps(wr);
  const __m128 vwi = _mm_set1_ps(wi);
  std::size_t l = 0;
  for (; l + 4 <= n; l += 4) {
    const __m128 vr = _mm_loadu_ps(re + l);
    const __m128 vi = _mm_loadu_ps(im + l);
    _mm_storeu_ps(re + l, _mm_sub_ps(_mm_mul_ps(vr, vwr), _mm_mul_ps(vi, vwi)));
    _mm_storeu_ps(im + l, _mm_add_ps(_mm_mul_ps(vr, vwi), _mm_mul_ps(vi, vwr)));
  }
  if (l < n) scalar_impl::cscale(re + l, im + l, wr, wi, n - l);
}

void cscale_rows(float* re, float* im, const float* w, std::size_t rows,
                 std::size_t lanes) {
  for (std::size_t j = 0; j < rows; ++j) {
    cscale(re + j * lanes, im + j * lanes, w[2 * j], w[2 * j + 1], lanes);
  }
}

// Contraction pinned off like the scalar reference: SSE2 has no FMA, but a
// build for an FMA-capable -march would otherwise fuse the vector
// extension's mul+add pairs.
PSTAP_NO_CONTRACT
void radix_rows(float* re, float* im, const float* tw, std::size_t p,
                std::size_t span, std::size_t blocks, std::size_t lanes,
                bool dif) {
  radix::rows<radix::f32x4, float>(re, im, tw, p, span, blocks, lanes, dif);
}

void scale(float* x, float s, std::size_t n) {
  const __m128 vs = _mm_set1_ps(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(x + i, _mm_mul_ps(_mm_loadu_ps(x + i), vs));
  }
  if (i < n) scalar_impl::scale(x + i, s, n - i);
}

void deinterleave_scale(float* re, float* im, const float* src, float w,
                        std::size_t n) {
  const __m128 vw = _mm_set1_ps(w);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 v0 = _mm_loadu_ps(src + 2 * i);      // r0 i0 r1 i1
    const __m128 v1 = _mm_loadu_ps(src + 2 * i + 4);  // r2 i2 r3 i3
    const __m128 vr = _mm_shuffle_ps(v0, v1, _MM_SHUFFLE(2, 0, 2, 0));
    const __m128 vi = _mm_shuffle_ps(v0, v1, _MM_SHUFFLE(3, 1, 3, 1));
    _mm_storeu_ps(re + i, _mm_mul_ps(vw, vr));
    _mm_storeu_ps(im + i, _mm_mul_ps(vw, vi));
  }
  if (i < n) scalar_impl::deinterleave_scale(re + i, im + i, src + 2 * i, w, n - i);
}

// Complex elements in front of the first `align`-byte boundary of dst,
// capped at n; n when dst is not 8-byte aligned, since no element of such a
// row ever starts on the boundary.
std::size_t stream_head(const float* dst, std::size_t align, std::size_t n) {
  const auto a = reinterpret_cast<std::uintptr_t>(dst);
  if (a % 8 != 0) return n;
  return std::min(n, (align - a % align) % align / 8);
}

void interleave(float* dst, const float* re, const float* im, std::size_t n,
                bool stream) {
  std::size_t i = stream ? stream_head(dst, 16, n) : 0;
  scalar_impl::interleave(dst, re, im, i, false);
  for (; i + 4 <= n; i += 4) {
    const __m128 vr = _mm_loadu_ps(re + i);
    const __m128 vi = _mm_loadu_ps(im + i);
    if (stream) {
      _mm_stream_ps(dst + 2 * i, _mm_unpacklo_ps(vr, vi));
      _mm_stream_ps(dst + 2 * i + 4, _mm_unpackhi_ps(vr, vi));
    } else {
      _mm_storeu_ps(dst + 2 * i, _mm_unpacklo_ps(vr, vi));
      _mm_storeu_ps(dst + 2 * i + 4, _mm_unpackhi_ps(vr, vi));
    }
  }
  if (i < n) scalar_impl::interleave(dst + 2 * i, re + i, im + i, n - i, false);
}

// Unit-stride series transpose in tiles of 4 series x 2 elements: one load
// per series takes two complex elements, and two rounds of unpacks turn
// the four loads into the two elements' re and im plane vectors — one
// shuffle per element, every load and store a whole vector. Tile edges and
// strided series take the scalar path.
void gather_planes(float* re, float* im, const float* src, std::size_t n,
                   std::size_t dist, std::size_t stride, std::size_t lanes) {
  if (stride != 1) {
    scalar_impl::gather_planes(re, im, src, n, dist, stride, lanes);
    return;
  }
  const std::size_t n2 = n & ~std::size_t{1};
  const std::size_t lanes4 = lanes & ~std::size_t{3};
  for (std::size_t l = 0; l < lanes4; l += 4) {
    const float* s0 = src + 2 * l * dist;
    const float* s1 = s0 + 2 * dist;
    const float* s2 = s1 + 2 * dist;
    const float* s3 = s2 + 2 * dist;
    for (std::size_t k = 0; k < n2; k += 2) {
      const __m128 a0 = _mm_loadu_ps(s0 + 2 * k);  // r0k i0k r0k' i0k'
      const __m128 a1 = _mm_loadu_ps(s1 + 2 * k);
      const __m128 a2 = _mm_loadu_ps(s2 + 2 * k);
      const __m128 a3 = _mm_loadu_ps(s3 + 2 * k);
      const __m128 lo01 = _mm_unpacklo_ps(a0, a1);  // r0k r1k i0k i1k
      const __m128 lo23 = _mm_unpacklo_ps(a2, a3);  // r2k r3k i2k i3k
      const __m128 hi01 = _mm_unpackhi_ps(a0, a1);  // r0k' r1k' i0k' i1k'
      const __m128 hi23 = _mm_unpackhi_ps(a2, a3);
      _mm_storeu_ps(re + k * lanes + l, _mm_movelh_ps(lo01, lo23));
      _mm_storeu_ps(im + k * lanes + l, _mm_movehl_ps(lo23, lo01));
      _mm_storeu_ps(re + (k + 1) * lanes + l, _mm_movelh_ps(hi01, hi23));
      _mm_storeu_ps(im + (k + 1) * lanes + l, _mm_movehl_ps(hi23, hi01));
    }
  }
  scalar_impl::gather_tile(re, im, src, n2, n, 0, lanes4, dist, 1, lanes);
  scalar_impl::gather_tile(re, im, src, 0, n, lanes4, lanes, dist, 1, lanes);
}

// Inverse of gather_planes, tile by tile: the two elements' plane vectors
// unpack back into one interleaved pair per series.
void scatter_planes(float* dst, const float* re, const float* im, std::size_t n,
                    std::size_t dist, std::size_t stride, std::size_t lanes) {
  if (stride != 1) {
    scalar_impl::scatter_planes(dst, re, im, n, dist, stride, lanes);
    return;
  }
  const std::size_t n2 = n & ~std::size_t{1};
  const std::size_t lanes4 = lanes & ~std::size_t{3};
  for (std::size_t l = 0; l < lanes4; l += 4) {
    float* d0 = dst + 2 * l * dist;
    float* d1 = d0 + 2 * dist;
    float* d2 = d1 + 2 * dist;
    float* d3 = d2 + 2 * dist;
    for (std::size_t k = 0; k < n2; k += 2) {
      const __m128 rk = _mm_loadu_ps(re + k * lanes + l);
      const __m128 ik = _mm_loadu_ps(im + k * lanes + l);
      const __m128 rk1 = _mm_loadu_ps(re + (k + 1) * lanes + l);
      const __m128 ik1 = _mm_loadu_ps(im + (k + 1) * lanes + l);
      const __m128 lo = _mm_unpacklo_ps(rk, ik);     // r0k i0k r1k i1k
      const __m128 hi = _mm_unpackhi_ps(rk, ik);     // r2k i2k r3k i3k
      const __m128 lo1 = _mm_unpacklo_ps(rk1, ik1);  // r0k' i0k' r1k' i1k'
      const __m128 hi1 = _mm_unpackhi_ps(rk1, ik1);
      _mm_storeu_ps(d0 + 2 * k, _mm_movelh_ps(lo, lo1));
      _mm_storeu_ps(d1 + 2 * k, _mm_movehl_ps(lo1, lo));
      _mm_storeu_ps(d2 + 2 * k, _mm_movelh_ps(hi, hi1));
      _mm_storeu_ps(d3 + 2 * k, _mm_movehl_ps(hi1, hi));
    }
  }
  scalar_impl::scatter_tile(dst, re, im, n2, n, 0, lanes4, dist, 1, lanes);
  scalar_impl::scatter_tile(dst, re, im, 0, n, lanes4, lanes, dist, 1, lanes);
}

void norm_interleaved(double* power, const float* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128 v = _mm_loadu_ps(x + 2 * i);
    const __m128 sq = _mm_mul_ps(v, v);
    const __m128 sw = _mm_shuffle_ps(sq, sq, _MM_SHUFFLE(2, 3, 0, 1));
    const __m128 sum = _mm_add_ps(sq, sw);  // norms in lanes 0 and 2
    const __m128 packed = _mm_shuffle_ps(sum, sum, _MM_SHUFFLE(3, 1, 2, 0));
    _mm_storeu_pd(power + i, _mm_cvtps_pd(packed));
  }
  if (i < n) scalar_impl::norm_interleaved(power + i, x + 2 * i, n - i);
}

void cgemm_planar(float* c, std::size_t ldc, const float* ar, const float* ai,
                  std::size_t m, std::size_t k, const float* b, std::size_t ldb,
                  std::size_t n) {
  // y += wr * x + swap(x) * [-wi, +wi, ...]: a plain (non-conjugating)
  // complex MAC; conj is the caller's pack-time negation.
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c + 2 * i * ldc;
    for (std::size_t p = 0; p < k; ++p) {
      const float wr = ar[i * k + p];
      const float wi = ai[i * k + p];
      const float* brow = b + 2 * p * ldb;
      const __m128 vwr = _mm_set1_ps(wr);
      const __m128 vwp = _mm_set_ps(wi, -wi, wi, -wi);
      std::size_t l = 0;
      for (; l + 2 <= n; l += 2) {
        const __m128 vx = _mm_loadu_ps(brow + 2 * l);
        const __m128 vy = _mm_loadu_ps(crow + 2 * l);
        const __m128 xsw = _mm_shuffle_ps(vx, vx, _MM_SHUFFLE(2, 3, 0, 1));
        const __m128 t = _mm_add_ps(_mm_mul_ps(vwr, vx), _mm_mul_ps(vwp, xsw));
        _mm_storeu_ps(crow + 2 * l, _mm_add_ps(vy, t));
      }
      for (; l < n; ++l) {
        const float xr = brow[2 * l], xi = brow[2 * l + 1];
        crow[2 * l] += wr * xr - wi * xi;
        crow[2 * l + 1] += wr * xi + wi * xr;
      }
    }
  }
}

void zherk_cf_lower(double* r, std::size_t ldr, const float* s, std::size_t lds,
                    std::size_t dof, std::size_t t, double alpha) {
  // One complex per __m128d: accumulate conj(s_i) . s_j in [re, im] lanes,
  // conjugate and scale by alpha at the end (conj(sum conj(a) b) ==
  // sum a conj(b)). Reduction order differs from scalar — tolerance kernel.
  const __m128d neg_im = _mm_castsi128_pd(
      _mm_set_epi64x(static_cast<long long>(0x8000000000000000ull), 0));
  for (std::size_t i = 0; i < dof; ++i) {
    const float* si = s + 2 * i * lds;
    for (std::size_t j = 0; j <= i; ++j) {
      const float* sj = s + 2 * j * lds;
      __m128d acc = _mm_setzero_pd();
      std::size_t g = 0;
      for (; g + 1 <= t; ++g) {
        const __m128d va = _mm_cvtps_pd(_mm_castsi128_ps(
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(si + 2 * g))));
        const __m128d vb = _mm_cvtps_pd(_mm_castsi128_ps(
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(sj + 2 * g))));
        const __m128d are = _mm_unpacklo_pd(va, va);
        const __m128d aim = _mm_unpackhi_pd(va, va);
        const __m128d bsw = _mm_shuffle_pd(vb, vb, 0x1);
        // t1 = [ar*br, ar*bi]; t2 = [ai*bi, ai*br];
        // conj-dot term = [ar*br + ai*bi, ar*bi - ai*br] = -t2_odd + ...
        const __m128d t1 = _mm_mul_pd(are, vb);
        const __m128d t2 = _mm_xor_pd(_mm_mul_pd(aim, bsw), neg_im);
        acc = _mm_add_pd(acc, _mm_add_pd(t1, t2));
      }
      alignas(16) double lanes[2];
      _mm_store_pd(lanes, acc);
      r[2 * (i * ldr + j)] += alpha * lanes[0];
      r[2 * (i * ldr + j) + 1] += alpha * (-lanes[1]);
    }
  }
}

constexpr Ops kOps = {
    .butterfly_rows = butterfly_rows,
    .butterfly2_rows = butterfly2_rows,
    .cscale_rows = cscale_rows,
    .radix_rows = radix_rows,
    .scale = scale,
    .deinterleave_scale = deinterleave_scale,
    .interleave = interleave,
    .gather_planes = gather_planes,
    .scatter_planes = scatter_planes,
    .norm_interleaved = norm_interleaved,
    .cgemm_planar = cgemm_planar,
    .cgemm_planar_exact = cgemm_planar,
    .zherk_cf_lower = zherk_cf_lower,
    .crc32c = scalar_impl::crc32c,
};

}  // namespace sse2_impl

#undef PSTAP_NO_CONTRACT

// --------------------------------------------------------------- avx2 ----
// 8-wide __m256 kernels with FMA. Compiled via per-function target
// attributes so the rest of the build stays at the baseline ISA; only ever
// called after a CPUID check.
namespace avx2_impl {

#define PSTAP_AVX2 __attribute__((target("avx2,fma")))

PSTAP_AVX2 void butterfly(float* ar, float* ai, float* br, float* bi, float wr,
                          float wi, std::size_t n) {
  const __m256 vwr = _mm256_set1_ps(wr);
  const __m256 vwi = _mm256_set1_ps(wi);
  std::size_t l = 0;
  for (; l + 8 <= n; l += 8) {
    const __m256 vbr = _mm256_loadu_ps(br + l);
    const __m256 vbi = _mm256_loadu_ps(bi + l);
    const __m256 var = _mm256_loadu_ps(ar + l);
    const __m256 vai = _mm256_loadu_ps(ai + l);
    const __m256 tr = _mm256_fmsub_ps(vwr, vbr, _mm256_mul_ps(vwi, vbi));
    const __m256 ti = _mm256_fmadd_ps(vwr, vbi, _mm256_mul_ps(vwi, vbr));
    _mm256_storeu_ps(br + l, _mm256_sub_ps(var, tr));
    _mm256_storeu_ps(bi + l, _mm256_sub_ps(vai, ti));
    _mm256_storeu_ps(ar + l, _mm256_add_ps(var, tr));
    _mm256_storeu_ps(ai + l, _mm256_add_ps(vai, ti));
  }
  if (l < n) sse2_impl::butterfly(ar + l, ai + l, br + l, bi + l, wr, wi, n - l);
}

// The four row kernels below hand rows narrower than one ymm register to
// the scalar rows kernel at entry, before any __m256 state exists. Going
// through the per-row SSE2 tails instead would pay an AVX-to-SSE transition
// on every row (a batch-of-one FFT is all such rows), and the scalar
// kernels are FMA-free and out of line, so those rows keep the scalar bits.

// Row-batched butterflies with the steady-state lane width (kBatchLanes ==
// 16 → two 8-wide chunks per plane) fully unrolled: one dispatch per stage
// block, registers live across the whole row.
PSTAP_AVX2 void butterfly_rows(float* ar, float* ai, float* br, float* bi,
                               const float* w, std::size_t rows,
                               std::size_t lanes) {
  if (lanes < 8) {
    scalar_impl::butterfly_rows(ar, ai, br, bi, w, rows, lanes);
    return;
  }
  if (lanes == 16) {
    for (std::size_t j = 0; j < rows; ++j) {
      const __m256 vwr = _mm256_set1_ps(w[2 * j]);
      const __m256 vwi = _mm256_set1_ps(w[2 * j + 1]);
      float* arj = ar + j * 16;
      float* aij = ai + j * 16;
      float* brj = br + j * 16;
      float* bij = bi + j * 16;
      for (int half = 0; half < 2; ++half) {
        const std::size_t o = static_cast<std::size_t>(half) * 8;
        const __m256 vbr = _mm256_loadu_ps(brj + o);
        const __m256 vbi = _mm256_loadu_ps(bij + o);
        const __m256 var = _mm256_loadu_ps(arj + o);
        const __m256 vai = _mm256_loadu_ps(aij + o);
        const __m256 tr = _mm256_fmsub_ps(vwr, vbr, _mm256_mul_ps(vwi, vbi));
        const __m256 ti = _mm256_fmadd_ps(vwr, vbi, _mm256_mul_ps(vwi, vbr));
        _mm256_storeu_ps(brj + o, _mm256_sub_ps(var, tr));
        _mm256_storeu_ps(bij + o, _mm256_sub_ps(vai, ti));
        _mm256_storeu_ps(arj + o, _mm256_add_ps(var, tr));
        _mm256_storeu_ps(aij + o, _mm256_add_ps(vai, ti));
      }
    }
    return;
  }
  for (std::size_t j = 0; j < rows; ++j) {
    butterfly(ar + j * lanes, ai + j * lanes, br + j * lanes, bi + j * lanes,
              w[2 * j], w[2 * j + 1], lanes);
  }
}

// Fused stage pair: the four rows of each group live in registers across
// both butterfly levels, so plane traffic is half of two butterfly_rows
// passes. Expression trees match butterfly exactly — results are
// bit-identical to running the two stages separately on this backend.
PSTAP_AVX2 void butterfly2_rows(float* re, float* im, const float* w1,
                                const float* w2, std::size_t h,
                                std::size_t lanes) {
  if (lanes < 8) {
    scalar_impl::butterfly2_rows(re, im, w1, w2, h, lanes);
    return;
  }
  for (std::size_t j = 0; j < h; ++j) {
    const __m256 w1r = _mm256_set1_ps(w1[2 * j]);
    const __m256 w1i = _mm256_set1_ps(w1[2 * j + 1]);
    const __m256 w2r = _mm256_set1_ps(w2[2 * j]);
    const __m256 w2i = _mm256_set1_ps(w2[2 * j + 1]);
    const __m256 w3r = _mm256_set1_ps(w2[2 * (j + h)]);
    const __m256 w3i = _mm256_set1_ps(w2[2 * (j + h) + 1]);
    float* r0 = re + j * lanes;
    float* i0 = im + j * lanes;
    float* r1 = r0 + h * lanes;
    float* i1 = i0 + h * lanes;
    float* r2 = r1 + h * lanes;
    float* i2 = i1 + h * lanes;
    float* r3 = r2 + h * lanes;
    float* i3 = i2 + h * lanes;
    std::size_t l = 0;
    for (; l + 8 <= lanes; l += 8) {
      const __m256 ar = _mm256_loadu_ps(r0 + l);
      const __m256 ai = _mm256_loadu_ps(i0 + l);
      const __m256 br = _mm256_loadu_ps(r1 + l);
      const __m256 bi = _mm256_loadu_ps(i1 + l);
      const __m256 cr = _mm256_loadu_ps(r2 + l);
      const __m256 ci = _mm256_loadu_ps(i2 + l);
      const __m256 dr = _mm256_loadu_ps(r3 + l);
      const __m256 di = _mm256_loadu_ps(i3 + l);
      // Stage h: (a, b) and (c, d) with w1.
      const __m256 t0r = _mm256_fmsub_ps(w1r, br, _mm256_mul_ps(w1i, bi));
      const __m256 t0i = _mm256_fmadd_ps(w1r, bi, _mm256_mul_ps(w1i, br));
      const __m256 nar = _mm256_add_ps(ar, t0r);
      const __m256 nai = _mm256_add_ps(ai, t0i);
      const __m256 nbr = _mm256_sub_ps(ar, t0r);
      const __m256 nbi = _mm256_sub_ps(ai, t0i);
      const __m256 t1r = _mm256_fmsub_ps(w1r, dr, _mm256_mul_ps(w1i, di));
      const __m256 t1i = _mm256_fmadd_ps(w1r, di, _mm256_mul_ps(w1i, dr));
      const __m256 ncr = _mm256_add_ps(cr, t1r);
      const __m256 nci = _mm256_add_ps(ci, t1i);
      const __m256 ndr = _mm256_sub_ps(cr, t1r);
      const __m256 ndi = _mm256_sub_ps(ci, t1i);
      // Stage 2h: (a, c) with w2, (b, d) with w3 = w2 row j + h.
      const __m256 u0r = _mm256_fmsub_ps(w2r, ncr, _mm256_mul_ps(w2i, nci));
      const __m256 u0i = _mm256_fmadd_ps(w2r, nci, _mm256_mul_ps(w2i, ncr));
      _mm256_storeu_ps(r0 + l, _mm256_add_ps(nar, u0r));
      _mm256_storeu_ps(i0 + l, _mm256_add_ps(nai, u0i));
      _mm256_storeu_ps(r2 + l, _mm256_sub_ps(nar, u0r));
      _mm256_storeu_ps(i2 + l, _mm256_sub_ps(nai, u0i));
      const __m256 u1r = _mm256_fmsub_ps(w3r, ndr, _mm256_mul_ps(w3i, ndi));
      const __m256 u1i = _mm256_fmadd_ps(w3r, ndi, _mm256_mul_ps(w3i, ndr));
      _mm256_storeu_ps(r1 + l, _mm256_add_ps(nbr, u1r));
      _mm256_storeu_ps(i1 + l, _mm256_add_ps(nbi, u1i));
      _mm256_storeu_ps(r3 + l, _mm256_sub_ps(nbr, u1r));
      _mm256_storeu_ps(i3 + l, _mm256_sub_ps(nbi, u1i));
    }
    if (l < lanes) {
      const std::size_t rem = lanes - l;
      sse2_impl::butterfly(r0 + l, i0 + l, r1 + l, i1 + l, w1[2 * j],
                           w1[2 * j + 1], rem);
      sse2_impl::butterfly(r2 + l, i2 + l, r3 + l, i3 + l, w1[2 * j],
                           w1[2 * j + 1], rem);
      sse2_impl::butterfly(r0 + l, i0 + l, r2 + l, i2 + l, w2[2 * j],
                           w2[2 * j + 1], rem);
      sse2_impl::butterfly(r1 + l, i1 + l, r3 + l, i3 + l, w2[2 * (j + h)],
                           w2[2 * (j + h) + 1], rem);
    }
  }
}

PSTAP_AVX2 void cscale(float* re, float* im, float wr, float wi, std::size_t n) {
  const __m256 vwr = _mm256_set1_ps(wr);
  const __m256 vwi = _mm256_set1_ps(wi);
  std::size_t l = 0;
  for (; l + 8 <= n; l += 8) {
    const __m256 vr = _mm256_loadu_ps(re + l);
    const __m256 vi = _mm256_loadu_ps(im + l);
    _mm256_storeu_ps(re + l, _mm256_fmsub_ps(vr, vwr, _mm256_mul_ps(vi, vwi)));
    _mm256_storeu_ps(im + l, _mm256_fmadd_ps(vr, vwi, _mm256_mul_ps(vi, vwr)));
  }
  if (l < n) sse2_impl::cscale(re + l, im + l, wr, wi, n - l);
}

PSTAP_AVX2 void cscale_rows(float* re, float* im, const float* w,
                            std::size_t rows, std::size_t lanes) {
  if (lanes < 8) {
    scalar_impl::cscale_rows(re, im, w, rows, lanes);
    return;
  }
  if (lanes == 16) {
    for (std::size_t j = 0; j < rows; ++j) {
      const __m256 vwr = _mm256_set1_ps(w[2 * j]);
      const __m256 vwi = _mm256_set1_ps(w[2 * j + 1]);
      float* rj = re + j * 16;
      float* ij = im + j * 16;
      for (int half = 0; half < 2; ++half) {
        const std::size_t o = static_cast<std::size_t>(half) * 8;
        const __m256 vr = _mm256_loadu_ps(rj + o);
        const __m256 vi = _mm256_loadu_ps(ij + o);
        _mm256_storeu_ps(rj + o,
                         _mm256_fmsub_ps(vr, vwr, _mm256_mul_ps(vi, vwi)));
        _mm256_storeu_ps(ij + o,
                         _mm256_fmadd_ps(vr, vwi, _mm256_mul_ps(vi, vwr)));
      }
    }
    return;
  }
  for (std::size_t j = 0; j < rows; ++j) {
    cscale(re + j * lanes, im + j * lanes, w[2 * j], w[2 * j + 1], lanes);
  }
}

PSTAP_AVX2 void radix_rows(float* re, float* im, const float* tw,
                           std::size_t p, std::size_t span, std::size_t blocks,
                           std::size_t lanes, bool dif) {
  if (lanes < 8) {
    scalar_impl::radix_rows(re, im, tw, p, span, blocks, lanes, dif);
    return;
  }
  radix::rows<radix::f32x8, radix::f32x4, float>(re, im, tw, p, span, blocks,
                                                 lanes, dif);
}

PSTAP_AVX2 void scale(float* x, float s, std::size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), vs));
  }
  if (i < n) sse2_impl::scale(x + i, s, n - i);
}

PSTAP_AVX2 void deinterleave_scale(float* re, float* im, const float* src,
                                   float w, std::size_t n) {
  const __m256 vw = _mm256_set1_ps(w);
  const __m256i idx = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // e*: low 128 = 4 reals, high 128 = 4 imags of each 4-complex block.
    const __m256 e0 = _mm256_permutevar8x32_ps(_mm256_loadu_ps(src + 2 * i), idx);
    const __m256 e1 =
        _mm256_permutevar8x32_ps(_mm256_loadu_ps(src + 2 * i + 8), idx);
    const __m256 vr = _mm256_permute2f128_ps(e0, e1, 0x20);
    const __m256 vi = _mm256_permute2f128_ps(e0, e1, 0x31);
    _mm256_storeu_ps(re + i, _mm256_mul_ps(vw, vr));
    _mm256_storeu_ps(im + i, _mm256_mul_ps(vw, vi));
  }
  if (i < n) sse2_impl::deinterleave_scale(re + i, im + i, src + 2 * i, w, n - i);
}

PSTAP_AVX2 void interleave(float* dst, const float* re, const float* im,
                           std::size_t n, bool stream) {
  std::size_t i = stream ? sse2_impl::stream_head(dst, 32, n) : 0;
  scalar_impl::interleave(dst, re, im, i, false);
  for (; i + 8 <= n; i += 8) {
    const __m256 vr = _mm256_loadu_ps(re + i);
    const __m256 vi = _mm256_loadu_ps(im + i);
    const __m256 lo = _mm256_unpacklo_ps(vr, vi);
    const __m256 hi = _mm256_unpackhi_ps(vr, vi);
    const __m256 v0 = _mm256_permute2f128_ps(lo, hi, 0x20);
    const __m256 v1 = _mm256_permute2f128_ps(lo, hi, 0x31);
    if (stream) {
      _mm256_stream_ps(dst + 2 * i, v0);
      _mm256_stream_ps(dst + 2 * i + 8, v1);
    } else {
      _mm256_storeu_ps(dst + 2 * i, v0);
      _mm256_storeu_ps(dst + 2 * i + 8, v1);
    }
  }
  if (i < n) scalar_impl::interleave(dst + 2 * i, re + i, im + i, n - i, false);
}

PSTAP_AVX2 void norm_interleaved(double* power, const float* x, std::size_t n) {
  // FMA-free on purpose: must stay bit-exact with the scalar reference.
  const __m256i idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256 v = _mm256_loadu_ps(x + 2 * i);
    const __m256 sq = _mm256_mul_ps(v, v);
    const __m256 sum = _mm256_add_ps(sq, _mm256_permute_ps(sq, 0xB1));
    const __m256 packed = _mm256_permutevar8x32_ps(sum, idx);
    _mm256_storeu_pd(power + i, _mm256_cvtps_pd(_mm256_castps256_ps128(packed)));
  }
  if (i < n) sse2_impl::norm_interleaved(power + i, x + 2 * i, n - i);
}

namespace {

// Single C row of the planar GEMM: crow += sum_p a(p) * brow_p, four
// complex columns per step. Shared by the m-remainder of cgemm_planar.
// The wr and wp products accumulate into separate registers (summed once at
// the end) so each chain retires one FMA per k-step — a fused chain would
// serialize two dependent FMAs per step and halve the retire rate.
PSTAP_AVX2 inline void cgemm_planar_row(float* crow, const float* arow_re,
                                        const float* arow_im, std::size_t k,
                                        const float* b, std::size_t ldb,
                                        std::size_t n, __m256 signs) {
  std::size_t l = 0;
  for (; l + 4 <= n; l += 4) {
    __m256 acc_a = _mm256_loadu_ps(crow + 2 * l);
    __m256 acc_b = _mm256_setzero_ps();
    for (std::size_t p = 0; p < k; ++p) {
      const __m256 vx = _mm256_loadu_ps(b + 2 * p * ldb + 2 * l);
      const __m256 xsw = _mm256_permute_ps(vx, 0xB1);
      const __m256 wr = _mm256_broadcast_ss(arow_re + p);
      const __m256 wp = _mm256_xor_ps(_mm256_broadcast_ss(arow_im + p), signs);
      acc_a = _mm256_fmadd_ps(wr, vx, acc_a);
      acc_b = _mm256_fmadd_ps(wp, xsw, acc_b);
    }
    _mm256_storeu_ps(crow + 2 * l, _mm256_add_ps(acc_a, acc_b));
  }
  for (; l < n; ++l) {
    float acc_r = crow[2 * l], acc_i = crow[2 * l + 1];
    for (std::size_t p = 0; p < k; ++p) {
      const float wr = arow_re[p], wi = arow_im[p];
      const float xr = b[2 * p * ldb + 2 * l], xi = b[2 * p * ldb + 2 * l + 1];
      acc_r += wr * xr - wi * xi;
      acc_i += wr * xi + wi * xr;
    }
    crow[2 * l] = acc_r;
    crow[2 * l + 1] = acc_i;
  }
}

}  // namespace

PSTAP_AVX2 void cgemm_planar(float* c, std::size_t ldc, const float* ar,
                             const float* ai, std::size_t m, std::size_t k,
                             const float* b, std::size_t ldb, std::size_t n) {
  // Register blocking: 4 C rows x 4 complex columns held in ymm accumulators
  // across the whole k loop, so each B row chunk is loaded once per 4 output
  // rows. A is planar (packed by the caller), so the per-row scalars are
  // plain broadcasts; the sign mask folds the interleaved-lane negation of
  // the imag part into the xor. Each row keeps separate wr/wp partial
  // accumulators (one FMA chain each, joined after the k loop): a single
  // accumulator would serialize two dependent FMAs per k-step and the
  // 4-cycle FMA latency, not the FMA ports, would bound the loop.
  const __m256 signs = _mm256_setr_ps(-0.0f, 0.0f, -0.0f, 0.0f,  //
                                      -0.0f, 0.0f, -0.0f, 0.0f);
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    float* c0 = c + 2 * i * ldc;
    float* c1 = c0 + 2 * ldc;
    float* c2 = c1 + 2 * ldc;
    float* c3 = c2 + 2 * ldc;
    const float* ar0 = ar + i * k;
    const float* ai0 = ai + i * k;
    std::size_t l = 0;
    for (; l + 4 <= n; l += 4) {
      __m256 acc0a = _mm256_loadu_ps(c0 + 2 * l);
      __m256 acc1a = _mm256_loadu_ps(c1 + 2 * l);
      __m256 acc2a = _mm256_loadu_ps(c2 + 2 * l);
      __m256 acc3a = _mm256_loadu_ps(c3 + 2 * l);
      __m256 acc0b = _mm256_setzero_ps();
      __m256 acc1b = _mm256_setzero_ps();
      __m256 acc2b = _mm256_setzero_ps();
      __m256 acc3b = _mm256_setzero_ps();
      for (std::size_t p = 0; p < k; ++p) {
        const __m256 vx = _mm256_loadu_ps(b + 2 * p * ldb + 2 * l);
        const __m256 xsw = _mm256_permute_ps(vx, 0xB1);
        __m256 wr = _mm256_broadcast_ss(ar0 + p);
        __m256 wp = _mm256_xor_ps(_mm256_broadcast_ss(ai0 + p), signs);
        acc0a = _mm256_fmadd_ps(wr, vx, acc0a);
        acc0b = _mm256_fmadd_ps(wp, xsw, acc0b);
        wr = _mm256_broadcast_ss(ar0 + k + p);
        wp = _mm256_xor_ps(_mm256_broadcast_ss(ai0 + k + p), signs);
        acc1a = _mm256_fmadd_ps(wr, vx, acc1a);
        acc1b = _mm256_fmadd_ps(wp, xsw, acc1b);
        wr = _mm256_broadcast_ss(ar0 + 2 * k + p);
        wp = _mm256_xor_ps(_mm256_broadcast_ss(ai0 + 2 * k + p), signs);
        acc2a = _mm256_fmadd_ps(wr, vx, acc2a);
        acc2b = _mm256_fmadd_ps(wp, xsw, acc2b);
        wr = _mm256_broadcast_ss(ar0 + 3 * k + p);
        wp = _mm256_xor_ps(_mm256_broadcast_ss(ai0 + 3 * k + p), signs);
        acc3a = _mm256_fmadd_ps(wr, vx, acc3a);
        acc3b = _mm256_fmadd_ps(wp, xsw, acc3b);
      }
      _mm256_storeu_ps(c0 + 2 * l, _mm256_add_ps(acc0a, acc0b));
      _mm256_storeu_ps(c1 + 2 * l, _mm256_add_ps(acc1a, acc1b));
      _mm256_storeu_ps(c2 + 2 * l, _mm256_add_ps(acc2a, acc2b));
      _mm256_storeu_ps(c3 + 2 * l, _mm256_add_ps(acc3a, acc3b));
    }
    if (l < n) {
      for (std::size_t rr = 0; rr < 4; ++rr) {
        cgemm_planar_row(c + 2 * (i + rr) * ldc + 2 * l, ar + (i + rr) * k,
                         ai + (i + rr) * k, k, b + 2 * l, ldb, n - l, signs);
      }
    }
  }
  // 2-row remainder block (the test_small beam count): still shares each B
  // chunk load + swap between the rows instead of falling back to
  // row-at-a-time.
  if (i + 2 <= m) {
    float* c0 = c + 2 * i * ldc;
    float* c1 = c0 + 2 * ldc;
    const float* ar0 = ar + i * k;
    const float* ai0 = ai + i * k;
    std::size_t l = 0;
    for (; l + 4 <= n; l += 4) {
      __m256 acc0a = _mm256_loadu_ps(c0 + 2 * l);
      __m256 acc1a = _mm256_loadu_ps(c1 + 2 * l);
      __m256 acc0b = _mm256_setzero_ps();
      __m256 acc1b = _mm256_setzero_ps();
      for (std::size_t p = 0; p < k; ++p) {
        const __m256 vx = _mm256_loadu_ps(b + 2 * p * ldb + 2 * l);
        const __m256 xsw = _mm256_permute_ps(vx, 0xB1);
        __m256 wr = _mm256_broadcast_ss(ar0 + p);
        __m256 wp = _mm256_xor_ps(_mm256_broadcast_ss(ai0 + p), signs);
        acc0a = _mm256_fmadd_ps(wr, vx, acc0a);
        acc0b = _mm256_fmadd_ps(wp, xsw, acc0b);
        wr = _mm256_broadcast_ss(ar0 + k + p);
        wp = _mm256_xor_ps(_mm256_broadcast_ss(ai0 + k + p), signs);
        acc1a = _mm256_fmadd_ps(wr, vx, acc1a);
        acc1b = _mm256_fmadd_ps(wp, xsw, acc1b);
      }
      _mm256_storeu_ps(c0 + 2 * l, _mm256_add_ps(acc0a, acc0b));
      _mm256_storeu_ps(c1 + 2 * l, _mm256_add_ps(acc1a, acc1b));
    }
    if (l < n) {
      cgemm_planar_row(c0 + 2 * l, ar0, ai0, k, b + 2 * l, ldb, n - l, signs);
      cgemm_planar_row(c1 + 2 * l, ar0 + k, ai0 + k, k, b + 2 * l, ldb, n - l,
                       signs);
    }
    i += 2;
  }
  for (; i < m; ++i) {
    cgemm_planar_row(c + 2 * i * ldc, ar + i * k, ai + i * k, k, b, ldb, n,
                     signs);
  }
}

PSTAP_AVX2 void zherk_cf_lower(double* r, std::size_t ldr, const float* s,
                               std::size_t lds, std::size_t dof, std::size_t t,
                               double alpha) {
  // Accumulates conj(s_i) . s_j pairwise and conjugates the result at the
  // end (conj(sum conj(a) b) == sum a conj(b)); alpha applied once.
  // Reduction order and FMA differ from scalar — tolerance kernel.
  //
  // The snapshot rows are widened float->double ONCE into a reused buffer
  // (the widening is exact, so this changes nothing numerically): the
  // O(dof^2) dot loops would otherwise re-convert every row dof times and
  // the cvtps_pd traffic, not the FMA ports, would dominate.
  static thread_local AlignedVector<double> wide;
  wide.resize(dof * 2 * t);
  for (std::size_t d = 0; d < dof; ++d) {
    const float* src = s + 2 * d * lds;
    double* dst = wide.data() + d * 2 * t;
    std::size_t g = 0;
    for (; g + 2 <= t; g += 2) {
      _mm256_storeu_pd(dst + 2 * g, _mm256_cvtps_pd(_mm_loadu_ps(src + 2 * g)));
    }
    for (; g < t; ++g) {
      dst[2 * g] = static_cast<double>(src[2 * g]);
      dst[2 * g + 1] = static_cast<double>(src[2 * g + 1]);
    }
  }

  // Per pair: two independent fmadd chains per unrolled half (are*b and
  // aim*bswap run in separate accumulators, combined once at the end via
  // addsub) so the loop retires at FMA throughput instead of serializing
  // on the 4-cycle add latency of a single accumulator.
  const __m256d negzero = _mm256_set1_pd(-0.0);
  for (std::size_t i = 0; i < dof; ++i) {
    const double* wi_row = wide.data() + i * 2 * t;
    for (std::size_t j = 0; j <= i; ++j) {
      const double* wj_row = wide.data() + j * 2 * t;
      __m256d acc_re0 = _mm256_setzero_pd();
      __m256d acc_im0 = _mm256_setzero_pd();
      __m256d acc_re1 = _mm256_setzero_pd();
      __m256d acc_im1 = _mm256_setzero_pd();
      std::size_t g = 0;
      for (; g + 4 <= t; g += 4) {
        const __m256d va0 = _mm256_loadu_pd(wi_row + 2 * g);
        const __m256d vb0 = _mm256_loadu_pd(wj_row + 2 * g);
        const __m256d va1 = _mm256_loadu_pd(wi_row + 2 * g + 4);
        const __m256d vb1 = _mm256_loadu_pd(wj_row + 2 * g + 4);
        // acc_re lanes: (ar*br | ar*bi); acc_im lanes: (ai*bi | ai*br).
        acc_re0 = _mm256_fmadd_pd(_mm256_movedup_pd(va0), vb0, acc_re0);
        acc_im0 = _mm256_fmadd_pd(_mm256_permute_pd(va0, 0xF),
                                  _mm256_permute_pd(vb0, 0x5), acc_im0);
        acc_re1 = _mm256_fmadd_pd(_mm256_movedup_pd(va1), vb1, acc_re1);
        acc_im1 = _mm256_fmadd_pd(_mm256_permute_pd(va1, 0xF),
                                  _mm256_permute_pd(vb1, 0x5), acc_im1);
      }
      // even lanes want re0+im0 (ar*br + ai*bi), odd lanes re0-im0
      // (ar*bi - ai*br): addsub(a, b) = (a-b | a+b), so negate b first.
      const __m256d acc = _mm256_addsub_pd(
          _mm256_add_pd(acc_re0, acc_re1),
          _mm256_xor_pd(_mm256_add_pd(acc_im0, acc_im1), negzero));
      alignas(32) double lanes[4];
      _mm256_store_pd(lanes, acc);
      double sum_re = lanes[0] + lanes[2];
      double sum_im = lanes[1] + lanes[3];
      for (; g < t; ++g) {
        const double ar = wi_row[2 * g], ai = wi_row[2 * g + 1];
        const double br = wj_row[2 * g], bi = wj_row[2 * g + 1];
        sum_re += ar * br + ai * bi;
        sum_im += ar * bi - ai * br;
      }
      r[2 * (i * ldr + j)] += alpha * sum_re;
      r[2 * (i * ldr + j) + 1] += alpha * (-sum_im);
    }
  }
}

#undef PSTAP_AVX2

// avx2 WITHOUT fma in the target set: cgemm_planar_exact must stay FMA-free
// so results are bit-exact with the scalar reference on every backend, and
// a target that lacks FMA makes it impossible for fp-contract to fuse the
// mul+add intrinsic pairs below.
#define PSTAP_AVX2_NOFMA __attribute__((target("avx2")))

// FMA-free blocked GEMM (scene clutter synthesis): 4 C rows x 8 complex
// columns stay in ymm registers across the k loop, so each B chunk is
// loaded once per 4 rows and C once per call. Per element it computes
// exactly the scalar cgemm_planar tree, y + (wr*x + wp*swap(x)) with
// wp = (-wi, +wi), terms added in ascending p. Covers the whole 4 x 8
// blocks only; cgemm_planar_exact runs the ragged edges.
PSTAP_AVX2_NOFMA void cgemm_exact_blocks(float* c, std::size_t ldc,
                                         const float* ar, const float* ai,
                                         std::size_t m4, std::size_t k,
                                         const float* b, std::size_t ldb,
                                         std::size_t n8) {
  const __m256 signs = _mm256_setr_ps(-0.0f, 0.0f, -0.0f, 0.0f,  //
                                      -0.0f, 0.0f, -0.0f, 0.0f);
  for (std::size_t i = 0; i < m4; i += 4) {
    float* c0 = c + 2 * i * ldc;
    const float* ar0 = ar + i * k;
    const float* ai0 = ai + i * k;
    for (std::size_t l = 0; l < n8; l += 8) {
      __m256 acc[4][2];
      for (std::size_t r = 0; r < 4; ++r) {
        acc[r][0] = _mm256_loadu_ps(c0 + 2 * (r * ldc + l));
        acc[r][1] = _mm256_loadu_ps(c0 + 2 * (r * ldc + l) + 8);
      }
      for (std::size_t p = 0; p < k; ++p) {
        const float* brow = b + 2 * (p * ldb + l);
        const __m256 x0 = _mm256_loadu_ps(brow);
        const __m256 x1 = _mm256_loadu_ps(brow + 8);
        const __m256 s0 = _mm256_permute_ps(x0, 0xB1);
        const __m256 s1 = _mm256_permute_ps(x1, 0xB1);
        for (std::size_t r = 0; r < 4; ++r) {
          const __m256 wr = _mm256_broadcast_ss(ar0 + r * k + p);
          const __m256 wp =
              _mm256_xor_ps(_mm256_broadcast_ss(ai0 + r * k + p), signs);
          acc[r][0] = _mm256_add_ps(
              acc[r][0],
              _mm256_add_ps(_mm256_mul_ps(wr, x0), _mm256_mul_ps(wp, s0)));
          acc[r][1] = _mm256_add_ps(
              acc[r][1],
              _mm256_add_ps(_mm256_mul_ps(wr, x1), _mm256_mul_ps(wp, s1)));
        }
      }
      for (std::size_t r = 0; r < 4; ++r) {
        _mm256_storeu_ps(c0 + 2 * (r * ldc + l), acc[r][0]);
        _mm256_storeu_ps(c0 + 2 * (r * ldc + l) + 8, acc[r][1]);
      }
    }
  }
}

// Baseline-ISA wrapper, so no SSE code runs with dirty ymm upper halves.
// With the edge calls inside the AVX body, GCC 12 emitted no vzeroupper
// before them (the fp-contract-off scalar kernel is not inlined), and the
// edges plus every later libm call paid the AVX-SSE transition penalty: a
// test_small scene took 5x longer than with the patch-outer loop.
void cgemm_planar_exact(float* c, std::size_t ldc, const float* ar,
                        const float* ai, std::size_t m, std::size_t k,
                        const float* b, std::size_t ldb, std::size_t n) {
  const std::size_t m4 = m - m % 4, n8 = n - n % 8;
  cgemm_exact_blocks(c, ldc, ar, ai, m4, k, b, ldb, n8);
  if (n8 < n) {
    scalar_impl::cgemm_planar(c + 2 * n8, ldc, ar, ai, m4, k, b + 2 * n8, ldb,
                              n - n8);
  }
  if (m4 < m) {
    scalar_impl::cgemm_planar(c + 2 * m4 * ldc, ldc, ar + m4 * k, ai + m4 * k,
                              m - m4, k, b, ldb, n);
  }
}

#undef PSTAP_AVX2_NOFMA

// SSE4.2 `crc32` computes the same reflected CRC32C step in hardware: one
// stream, 8 bytes per instruction, then a byte tail. Loads go through
// memcpy, so any alignment is fine.
__attribute__((target("sse4.2"))) std::uint32_t crc32c(std::uint32_t crc,
                                                       const void* data,
                                                       std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t c = ~crc;
  for (; len >= 8; p += 8, len -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; len > 0; ++p, --len) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}

constexpr Ops kOps = {
    .butterfly_rows = butterfly_rows,
    .butterfly2_rows = butterfly2_rows,
    .cscale_rows = cscale_rows,
    .radix_rows = radix_rows,
    .scale = scale,
    .deinterleave_scale = deinterleave_scale,
    .interleave = interleave,
    .gather_planes = sse2_impl::gather_planes,
    .scatter_planes = sse2_impl::scatter_planes,
    .norm_interleaved = norm_interleaved,
    .cgemm_planar = cgemm_planar,
    .cgemm_planar_exact = cgemm_planar_exact,
    .zherk_cf_lower = zherk_cf_lower,
    .crc32c = crc32c,
};

}  // namespace avx2_impl

#endif  // PSTAP_SIMD_X86

// ----------------------------------------------------------- dispatch ----

namespace {

const Ops* table_for(Backend b) noexcept {
#if PSTAP_SIMD_X86
  switch (b) {
    case Backend::kAvx2:
      return &avx2_impl::kOps;
    case Backend::kSse2:
      return &sse2_impl::kOps;
    case Backend::kScalar:
      return &scalar_impl::kOps;
  }
#else
  (void)b;
#endif
  return &scalar_impl::kOps;
}

Backend clamp_supported(Backend b) noexcept {
  const Backend best = detect_best();
  return static_cast<int>(b) <= static_cast<int>(best) ? b : best;
}

void record_backend(Backend b) noexcept {
  obs::Registry::global().gauge("simd.backend").set(static_cast<int>(b));
}

std::atomic<const Ops*> g_active_ops{nullptr};
std::atomic<int> g_active_backend{-1};

Backend resolve_from_env() noexcept {
  Backend chosen = detect_best();
  const char* env = std::getenv("PSTAP_SIMD");
  if (env != nullptr && *env != '\0' && std::strcmp(env, "auto") != 0) {
    Backend requested = chosen;
    bool known = true;
    if (std::strcmp(env, "scalar") == 0) {
      requested = Backend::kScalar;
    } else if (std::strcmp(env, "sse2") == 0) {
      requested = Backend::kSse2;
    } else if (std::strcmp(env, "avx2") == 0) {
      requested = Backend::kAvx2;
    } else {
      known = false;
      std::fprintf(stderr,
                   "pstap: PSTAP_SIMD='%s' not recognized "
                   "(scalar|sse2|avx2|auto); using %s\n",
                   env, backend_name(chosen));
    }
    if (known) {
      const Backend applied = clamp_supported(requested);
      if (applied != requested) {
        std::fprintf(stderr,
                     "pstap: PSTAP_SIMD=%s unsupported on this CPU; "
                     "falling back to %s\n",
                     backend_name(requested), backend_name(applied));
        obs::Registry::global().counter("simd.requested_unsupported").add();
      }
      chosen = applied;
    }
  }
  return chosen;
}

bool ftz_wanted() noexcept {
  const char* env = std::getenv("PSTAP_FTZ");
  return env == nullptr || std::strcmp(env, "0") != 0;
}

}  // namespace

bool init_thread() noexcept {
#if PSTAP_SIMD_X86
  if (ftz_wanted()) {
    // MXCSR bits 15 (FTZ) and 6 (DAZ); per-thread state.
    _mm_setcsr(_mm_getcsr() | 0x8040u);
    obs::Registry::global().gauge("simd.ftz").set(1);
    return true;
  }
#endif
  return false;
}

void store_fence() noexcept {
#if PSTAP_SIMD_X86
  _mm_sfence();
#endif
}

const char* backend_name(Backend b) noexcept {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kSse2:
      return "sse2";
    case Backend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Backend detect_best() noexcept {
#if PSTAP_SIMD_X86
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
      __builtin_cpu_supports("sse4.2")) {
    return Backend::kAvx2;
  }
  if (__builtin_cpu_supports("sse2")) return Backend::kSse2;
#endif
  return Backend::kScalar;
}

Backend active() noexcept {
  int b = g_active_backend.load(std::memory_order_acquire);
  if (b < 0) {
    const Backend resolved = resolve_from_env();
    // Several threads may race the first resolution; they all compute the
    // same value, so last-write-wins is fine.
    g_active_ops.store(table_for(resolved), std::memory_order_release);
    g_active_backend.store(static_cast<int>(resolved), std::memory_order_release);
    record_backend(resolved);
    init_thread();
    return resolved;
  }
  return static_cast<Backend>(b);
}

const Ops& ops() noexcept {
  const Ops* t = g_active_ops.load(std::memory_order_acquire);
  if (t == nullptr) {
    active();
    t = g_active_ops.load(std::memory_order_acquire);
  }
  return *t;
}

const Ops& ops(Backend b) noexcept { return *table_for(clamp_supported(b)); }

Backend force_backend(Backend b) noexcept {
  const Backend applied = clamp_supported(b);
  g_active_ops.store(table_for(applied), std::memory_order_release);
  g_active_backend.store(static_cast<int>(applied), std::memory_order_release);
  record_backend(applied);
  return applied;
}

}  // namespace pstap::simd
