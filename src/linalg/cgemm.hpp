// Blocked complex-GEMM micro-kernel front end for the adaptive-weights /
// beamform path.
//
// The raw loops live on the runtime-dispatched simd::Ops table
// (common/simd.hpp: cgemm_planar / zherk_cf_lower); this layer owns the
// packing, shape checking and the 64-byte-aligned split-re/im tile buffers:
//
//   * cgemm       — C(m x n) += op(A)(m x k) * B(k x n), op = identity or
//                   elementwise conjugate. A is packed once into planar
//                   re/im tiles (conjugation = negating the imag plane,
//                   which is exact), then the backend kernel streams B.
//   * cgemv_rows  — the beamform shape: many weight vectors (rows of W)
//                   applied to many range bins at once,
//                   Y(beams x ranges) += conj(W)(beams x dof) * X(dof x
//                   ranges). A named alias of cgemm(conj_a = true).
//   * cherk_lower — Hermitian rank-k update for covariance formation:
//                   R += alpha * S * S^H over the training gates, writing
//                   only the lower triangle (all downstream consumers —
//                   Cholesky factor/solve, trace, diagonal loading — read
//                   only the lower triangle and diagonal).
//
// Numerical contract: under the scalar backend every routine reproduces the
// historical std::complex triple loops bit-for-bit (see the per-kernel notes
// in common/simd.cpp); vector backends differ at FMA/reduction-order
// tolerance. The serial dot helpers at the bottom are deliberately NOT on
// the dispatch table: Cholesky's dependent prefix dots are order-pinned so
// the factorization stays identical on every backend.
#pragma once

#include <complex>
#include <cstddef>

#include "common/aligned_buffer.hpp"
#include "common/error.hpp"
#include "common/types.hpp"
#include "linalg/cmatrix.hpp"

namespace pstap::linalg {

/// Reusable packed split-re/im A tile (64-byte aligned). Hoist one of these
/// outside per-bin loops so steady-state cgemm calls never allocate.
struct CgemmScratch {
  AlignedVector<float> re;
  AlignedVector<float> im;
};

/// C(m x n) += op(A)(m x k) * B(k x n) with op = conj if conj_a, over
/// interleaved std::complex<float> arrays. Leading dimensions are in
/// complex elements; rows of A/B/C must not alias.
void cgemm(bool conj_a, std::size_t m, std::size_t k, std::size_t n,
           const cfloat* a, std::size_t lda, const cfloat* b, std::size_t ldb,
           cfloat* c, std::size_t ldc, CgemmScratch& scratch);

/// Batched weight application (the beamform shape): for each of m weight
/// rows w_i (ldw apart), y_i(n) += sum_d conj(w_i[d]) * x_d(n). Equivalent
/// to cgemm(conj_a = true, ...) and implemented as exactly that.
void cgemv_rows(std::size_t m, std::size_t k, std::size_t n, const cfloat* w,
                std::size_t ldw, const cfloat* x, std::size_t ldx, cfloat* y,
                std::size_t ldy, CgemmScratch& scratch);

/// Covariance-forming Hermitian rank-k update: for 0 <= j <= i < r.rows(),
/// r(i, j) += alpha * sum_t s_i(t) * conj(s_j(t)), where s_d is the
/// interleaved cfloat row at s + d * lds (t gates each). Writes the lower
/// triangle + diagonal only; r must be square.
void cherk_lower(CMatrix<double>& r, const cfloat* s, std::size_t lds,
                 std::size_t t, double alpha);

/// Order-pinned serial dot-subtract: s - sum_k a[k] * conj(b[k]). Used by
/// the Cholesky factor/forward-solve prefix dots, whose loop-carried
/// dependences make lane-parallel reductions a backend-divergence hazard —
/// the expression tree here is the historical one, on every backend.
template <typename T>
inline std::complex<T> dotc_sub(std::complex<T> s, const std::complex<T>* a,
                                const std::complex<T>* b, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) s -= a[k] * std::conj(b[k]);
  return s;
}

/// Order-pinned serial unconjugated dot-subtract: s - sum_k a[k] * b[k].
template <typename T>
inline std::complex<T> dotu_sub(std::complex<T> s, const std::complex<T>* a,
                                const std::complex<T>* b, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) s -= a[k] * b[k];
  return s;
}

}  // namespace pstap::linalg
