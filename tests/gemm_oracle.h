// Bitwise oracle for linalg::Gemm: the former packed implementation —
// op(A) and op(B) panels packed into row-major buffers (kBlockM x kBlockK,
// kBlockK x kBlockN), a separate zero-fill / scale pass over C, then the
// two-row / one-row microkernels with k unrolled by four, reading and
// writing C once per k group. Gemm's register-tiled kernel must reproduce
// it bit for bit in both kernel tables.
//
// The AVX2 row kernels carry a function-level target attribute, so this
// header builds without -mavx2; the test that includes it must be compiled
// with -ffp-contract=off so their plain scalar tails stay unfused (see
// tests/CMakeLists.txt).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "linalg/gemm.h"
#include "linalg/matrix.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define CERL_GEMM_ORACLE_AVX2 1
#endif

namespace cerl::linalg::gemm_oracle {

using RowKernel2 = void (*)(double alpha, const double* arow0,
                            const double* arow1, const double* bpanel, int kw,
                            int nw, double* crow0, double* crow1);
using RowKernel1 = void (*)(double alpha, const double* arow,
                            const double* bpanel, int kw, int nw,
                            double* crow);

struct RowKernels {
  RowKernel2 row2;
  RowKernel1 row1;
};

inline void GemmRow2Scalar(double alpha, const double* arow0,
                           const double* arow1, const double* bpanel, int kw,
                           int nw, double* crow0, double* crow1) {
  int k = 0;
  for (; k + 4 <= kw; k += 4) {
    const double a00 = alpha * arow0[k];
    const double a01 = alpha * arow0[k + 1];
    const double a02 = alpha * arow0[k + 2];
    const double a03 = alpha * arow0[k + 3];
    const double a10 = alpha * arow1[k];
    const double a11 = alpha * arow1[k + 1];
    const double a12 = alpha * arow1[k + 2];
    const double a13 = alpha * arow1[k + 3];
    const double* b0 = bpanel + static_cast<size_t>(k) * nw;
    const double* b1 = b0 + nw;
    const double* b2 = b1 + nw;
    const double* b3 = b2 + nw;
    for (int n = 0; n < nw; ++n) {
      crow0[n] += a00 * b0[n] + a01 * b1[n] + a02 * b2[n] + a03 * b3[n];
      crow1[n] += a10 * b0[n] + a11 * b1[n] + a12 * b2[n] + a13 * b3[n];
    }
  }
  for (; k < kw; ++k) {
    const double a0k = alpha * arow0[k];
    const double a1k = alpha * arow1[k];
    const double* brow = bpanel + static_cast<size_t>(k) * nw;
    for (int n = 0; n < nw; ++n) {
      crow0[n] += a0k * brow[n];
      crow1[n] += a1k * brow[n];
    }
  }
}

inline void GemmRow1Scalar(double alpha, const double* arow,
                           const double* bpanel, int kw, int nw,
                           double* crow) {
  int k = 0;
  for (; k + 4 <= kw; k += 4) {
    const double a0 = alpha * arow[k];
    const double a1 = alpha * arow[k + 1];
    const double a2 = alpha * arow[k + 2];
    const double a3 = alpha * arow[k + 3];
    const double* b0 = bpanel + static_cast<size_t>(k) * nw;
    const double* b1 = b0 + nw;
    const double* b2 = b1 + nw;
    const double* b3 = b2 + nw;
    for (int n = 0; n < nw; ++n) {
      crow[n] += a0 * b0[n] + a1 * b1[n] + a2 * b2[n] + a3 * b3[n];
    }
  }
  for (; k < kw; ++k) {
    const double ak = alpha * arow[k];
    const double* brow = bpanel + static_cast<size_t>(k) * nw;
    for (int n = 0; n < nw; ++n) crow[n] += ak * brow[n];
  }
}

inline constexpr RowKernels kScalarRowKernels = {GemmRow2Scalar,
                                                 GemmRow1Scalar};

#if defined(CERL_GEMM_ORACLE_AVX2)

__attribute__((target("avx2,fma"))) inline void GemmRow2Avx2(
    double alpha, const double* arow0, const double* arow1,
    const double* bpanel, int kw, int nw, double* crow0, double* crow1) {
  int k = 0;
  for (; k + 4 <= kw; k += 4) {
    const double a00 = alpha * arow0[k];
    const double a01 = alpha * arow0[k + 1];
    const double a02 = alpha * arow0[k + 2];
    const double a03 = alpha * arow0[k + 3];
    const double a10 = alpha * arow1[k];
    const double a11 = alpha * arow1[k + 1];
    const double a12 = alpha * arow1[k + 2];
    const double a13 = alpha * arow1[k + 3];
    const __m256d a00v = _mm256_set1_pd(a00);
    const __m256d a01v = _mm256_set1_pd(a01);
    const __m256d a02v = _mm256_set1_pd(a02);
    const __m256d a03v = _mm256_set1_pd(a03);
    const __m256d a10v = _mm256_set1_pd(a10);
    const __m256d a11v = _mm256_set1_pd(a11);
    const __m256d a12v = _mm256_set1_pd(a12);
    const __m256d a13v = _mm256_set1_pd(a13);
    const double* b0 = bpanel + static_cast<size_t>(k) * nw;
    const double* b1 = b0 + nw;
    const double* b2 = b1 + nw;
    const double* b3 = b2 + nw;
    int n = 0;
    for (; n + 4 <= nw; n += 4) {
      const __m256d b0v = _mm256_loadu_pd(b0 + n);
      const __m256d b1v = _mm256_loadu_pd(b1 + n);
      const __m256d b2v = _mm256_loadu_pd(b2 + n);
      const __m256d b3v = _mm256_loadu_pd(b3 + n);
      __m256d t0 = _mm256_mul_pd(a00v, b0v);
      t0 = _mm256_fmadd_pd(a01v, b1v, t0);
      t0 = _mm256_fmadd_pd(a02v, b2v, t0);
      t0 = _mm256_fmadd_pd(a03v, b3v, t0);
      _mm256_storeu_pd(crow0 + n,
                       _mm256_add_pd(_mm256_loadu_pd(crow0 + n), t0));
      __m256d t1 = _mm256_mul_pd(a10v, b0v);
      t1 = _mm256_fmadd_pd(a11v, b1v, t1);
      t1 = _mm256_fmadd_pd(a12v, b2v, t1);
      t1 = _mm256_fmadd_pd(a13v, b3v, t1);
      _mm256_storeu_pd(crow1 + n,
                       _mm256_add_pd(_mm256_loadu_pd(crow1 + n), t1));
    }
    for (; n < nw; ++n) {
      crow0[n] += a00 * b0[n] + a01 * b1[n] + a02 * b2[n] + a03 * b3[n];
      crow1[n] += a10 * b0[n] + a11 * b1[n] + a12 * b2[n] + a13 * b3[n];
    }
  }
  for (; k < kw; ++k) {
    const double a0k = alpha * arow0[k];
    const double a1k = alpha * arow1[k];
    const __m256d a0v = _mm256_set1_pd(a0k);
    const __m256d a1v = _mm256_set1_pd(a1k);
    const double* brow = bpanel + static_cast<size_t>(k) * nw;
    int n = 0;
    for (; n + 4 <= nw; n += 4) {
      const __m256d bv = _mm256_loadu_pd(brow + n);
      _mm256_storeu_pd(
          crow0 + n, _mm256_fmadd_pd(a0v, bv, _mm256_loadu_pd(crow0 + n)));
      _mm256_storeu_pd(
          crow1 + n, _mm256_fmadd_pd(a1v, bv, _mm256_loadu_pd(crow1 + n)));
    }
    for (; n < nw; ++n) {
      crow0[n] += a0k * brow[n];
      crow1[n] += a1k * brow[n];
    }
  }
}

__attribute__((target("avx2,fma"))) inline void GemmRow1Avx2(
    double alpha, const double* arow, const double* bpanel, int kw, int nw,
    double* crow) {
  int k = 0;
  for (; k + 4 <= kw; k += 4) {
    const double a0 = alpha * arow[k];
    const double a1 = alpha * arow[k + 1];
    const double a2 = alpha * arow[k + 2];
    const double a3 = alpha * arow[k + 3];
    const __m256d a0v = _mm256_set1_pd(a0);
    const __m256d a1v = _mm256_set1_pd(a1);
    const __m256d a2v = _mm256_set1_pd(a2);
    const __m256d a3v = _mm256_set1_pd(a3);
    const double* b0 = bpanel + static_cast<size_t>(k) * nw;
    const double* b1 = b0 + nw;
    const double* b2 = b1 + nw;
    const double* b3 = b2 + nw;
    int n = 0;
    for (; n + 4 <= nw; n += 4) {
      __m256d t = _mm256_mul_pd(a0v, _mm256_loadu_pd(b0 + n));
      t = _mm256_fmadd_pd(a1v, _mm256_loadu_pd(b1 + n), t);
      t = _mm256_fmadd_pd(a2v, _mm256_loadu_pd(b2 + n), t);
      t = _mm256_fmadd_pd(a3v, _mm256_loadu_pd(b3 + n), t);
      _mm256_storeu_pd(crow + n, _mm256_add_pd(_mm256_loadu_pd(crow + n), t));
    }
    for (; n < nw; ++n) {
      crow[n] += a0 * b0[n] + a1 * b1[n] + a2 * b2[n] + a3 * b3[n];
    }
  }
  for (; k < kw; ++k) {
    const double ak = alpha * arow[k];
    const __m256d av = _mm256_set1_pd(ak);
    const double* brow = bpanel + static_cast<size_t>(k) * nw;
    int n = 0;
    for (; n + 4 <= nw; n += 4) {
      _mm256_storeu_pd(crow + n,
                       _mm256_fmadd_pd(av, _mm256_loadu_pd(brow + n),
                                       _mm256_loadu_pd(crow + n)));
    }
    for (; n < nw; ++n) crow[n] += ak * brow[n];
  }
}

inline constexpr RowKernels kAvx2RowKernels = {GemmRow2Avx2, GemmRow1Avx2};

#endif  // CERL_GEMM_ORACLE_AVX2

// Panel sizes of the packed implementation.
constexpr int kBlockM = 64;
constexpr int kBlockN = 128;
constexpr int kBlockK = 256;

// Packs op(A)'s [m0, m1) x [k0, k1) panel into row-major `buf`.
inline void PackA(Trans trans_a, const Matrix& a, int m0, int m1, int k0,
                  int k1, double* buf) {
  const int kw = k1 - k0;
  if (trans_a == Trans::kNo) {
    for (int i = m0; i < m1; ++i) {
      const double* src = a.row(i) + k0;
      std::copy(src, src + kw, buf + static_cast<size_t>(i - m0) * kw);
    }
  } else {
    for (int i = m0; i < m1; ++i) {
      double* dst = buf + static_cast<size_t>(i - m0) * kw;
      for (int k = k0; k < k1; ++k) dst[k - k0] = a(k, i);
    }
  }
}

// Packs op(B)'s [k0, k1) x [n0, n1) panel into row-major `buf`.
inline void PackB(Trans trans_b, const Matrix& b, int k0, int k1, int n0,
                  int n1, double* buf) {
  const int nw = n1 - n0;
  if (trans_b == Trans::kNo) {
    for (int k = k0; k < k1; ++k) {
      const double* src = b.row(k) + n0;
      std::copy(src, src + nw, buf + static_cast<size_t>(k - k0) * nw);
    }
  } else {
    for (int k = k0; k < k1; ++k) {
      double* dst = buf + static_cast<size_t>(k - k0) * nw;
      for (int n = n0; n < n1; ++n) dst[n - n0] = b(n, k);
    }
  }
}

// C += alpha * op(A) * op(B) with beta already applied.
inline void GemmRows(const RowKernels& ks, Trans trans_a, Trans trans_b,
                     double alpha, const Matrix& a, const Matrix& b,
                     Matrix* c, int m_dim, int n_dim, int k_dim) {
  std::vector<double> pack_a(static_cast<size_t>(kBlockM) * kBlockK);
  std::vector<double> pack_b(static_cast<size_t>(kBlockK) * kBlockN);
  for (int k0 = 0; k0 < k_dim; k0 += kBlockK) {
    const int k1 = std::min(k_dim, k0 + kBlockK);
    const int kw = k1 - k0;
    for (int n0 = 0; n0 < n_dim; n0 += kBlockN) {
      const int n1 = std::min(n_dim, n0 + kBlockN);
      const int nw = n1 - n0;
      PackB(trans_b, b, k0, k1, n0, n1, pack_b.data());
      for (int m0 = 0; m0 < m_dim; m0 += kBlockM) {
        const int m1 = std::min(m_dim, m0 + kBlockM);
        PackA(trans_a, a, m0, m1, k0, k1, pack_a.data());
        int i = m0;
        for (; i + 2 <= m1; i += 2) {
          const double* arow0 =
              pack_a.data() + static_cast<size_t>(i - m0) * kw;
          ks.row2(alpha, arow0, arow0 + kw, pack_b.data(), kw, nw,
                  c->row(i) + n0, c->row(i + 1) + n0);
        }
        for (; i < m1; ++i) {
          ks.row1(alpha, pack_a.data() + static_cast<size_t>(i - m0) * kw,
                  pack_b.data(), kw, nw, c->row(i) + n0);
        }
      }
    }
  }
}

/// The former Gemm: zero-fill (beta == 0) or scale (beta != 1) C, then
/// accumulate the packed panels with the given row kernels.
inline void Gemm(const RowKernels& ks, Trans trans_a, Trans trans_b,
                 double alpha, const Matrix& a, const Matrix& b, double beta,
                 Matrix* c) {
  const int m = trans_a == Trans::kNo ? a.rows() : a.cols();
  const int k = trans_a == Trans::kNo ? a.cols() : a.rows();
  const int n = trans_b == Trans::kNo ? b.cols() : b.rows();
  if (beta == 0.0) {
    c->Fill(0.0);
  } else if (beta != 1.0) {
    for (int64_t i = 0; i < c->size(); ++i) c->data()[i] = beta * c->data()[i];
  }
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) return;
  GemmRows(ks, trans_a, trans_b, alpha, a, b, c, m, n, k);
}

}  // namespace cerl::linalg::gemm_oracle
