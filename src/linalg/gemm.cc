#include "linalg/gemm.h"

#include <algorithm>

#include "linalg/simd.h"

namespace cerl::linalg {
namespace {

// Panel sizes tuned for L1/L2 residency with doubles.
constexpr int kBlockM = 64;
constexpr int kBlockN = 128;
constexpr int kBlockK = 256;

// Packs op(A)'s [m0, m1) x [k0, k1) panel into row-major `buf`.
void PackA(Trans trans_a, const Matrix& a, int m0, int m1, int k0, int k1,
           double* buf) {
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
void PackB(Trans trans_b, const Matrix& b, int k0, int k1, int n0, int n1,
           double* buf) {
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

// C[m0:m1, :] += alpha * op(A)[m0:m1, :] * op(B); beta already applied.
void GemmRows(Trans trans_a, Trans trans_b, double alpha, const Matrix& a,
              const Matrix& b, Matrix* c, int m_begin, int m_end, int n_dim,
              int k_dim) {
  // The pack panels are reused across calls (thread-local, so concurrent
  // stream workers keep disjoint buffers). Allocating-and-zeroing them
  // per call cost more than the arithmetic for the skinny GEMMs that
  // dominate training steps.
  static thread_local std::vector<double> pack_a(
      static_cast<size_t>(kBlockM) * kBlockK);
  static thread_local std::vector<double> pack_b(
      static_cast<size_t>(kBlockK) * kBlockN);
  for (int k0 = 0; k0 < k_dim; k0 += kBlockK) {
    const int k1 = std::min(k_dim, k0 + kBlockK);
    const int kw = k1 - k0;
    for (int n0 = 0; n0 < n_dim; n0 += kBlockN) {
      const int n1 = std::min(n_dim, n0 + kBlockN);
      const int nw = n1 - n0;
      // When an operand is untransposed and the panel spans its full row
      // width, "packing" would be a verbatim copy — read it in place
      // instead. The skinny GEMMs of a training step (k, n well under one
      // block) all take this path, where the copy cost rivals the math.
      const bool direct_b = trans_b == Trans::kNo && nw == b.cols();
      const double* bpanel;
      if (direct_b) {
        bpanel = b.row(k0);
      } else {
        PackB(trans_b, b, k0, k1, n0, n1, pack_b.data());
        bpanel = pack_b.data();
      }
      const bool direct_a = trans_a == Trans::kNo && kw == a.cols();
      for (int m0 = m_begin; m0 < m_end; m0 += kBlockM) {
        const int m1 = std::min(m_end, m0 + kBlockM);
        const double* apanel;
        if (direct_a) {
          apanel = a.row(m0);
        } else {
          PackA(trans_a, a, m0, m1, k0, k1, pack_a.data());
          apanel = pack_a.data();
        }
        // Register-blocked microkernel (dispatched, see linalg/simd.h):
        // two C rows share each pack_b load and k is unrolled by 4, so the
        // inner loop performs 16 flops per 8 memory operations (vs 8 per 6
        // for a single-row kernel) — the kernel was load-bound, not
        // flop-bound. Everything stays contiguous in pack_b and crow.
        const auto& ks = simd::Kernels();
        int i = m0;
        for (; i + 2 <= m1; i += 2) {
          const double* arow0 =
              apanel + static_cast<size_t>(i - m0) * kw;
          ks.gemm_row2(alpha, arow0, arow0 + kw, bpanel, kw, nw,
                       c->row(i) + n0, c->row(i + 1) + n0);
        }
        for (; i < m1; ++i) {
          ks.gemm_row1(alpha, apanel + static_cast<size_t>(i - m0) * kw,
                       bpanel, kw, nw, c->row(i) + n0);
        }
      }
    }
  }
}

}  // namespace

void Gemm(Trans trans_a, Trans trans_b, double alpha, const Matrix& a,
          const Matrix& b, double beta, Matrix* c) {
  const int m = trans_a == Trans::kNo ? a.rows() : a.cols();
  const int k = trans_a == Trans::kNo ? a.cols() : a.rows();
  const int kb = trans_b == Trans::kNo ? b.rows() : b.cols();
  const int n = trans_b == Trans::kNo ? b.cols() : b.rows();
  CERL_CHECK_EQ(k, kb);
  CERL_CHECK_EQ(c->rows(), m);
  CERL_CHECK_EQ(c->cols(), n);

  if (beta == 0.0) {
    c->Fill(0.0);
  } else if (beta != 1.0) {
    c->Scale(beta);
  }
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) return;

  GemmRows(trans_a, trans_b, alpha, a, b, c, 0, m, n, k);
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  return MatMulT(Trans::kNo, Trans::kNo, a, b);
}

Matrix MatMulT(Trans trans_a, Trans trans_b, const Matrix& a,
               const Matrix& b) {
  const int m = trans_a == Trans::kNo ? a.rows() : a.cols();
  const int n = trans_b == Trans::kNo ? b.cols() : b.rows();
  Matrix c(m, n);
  Gemm(trans_a, trans_b, 1.0, a, b, 0.0, &c);
  return c;
}

Vector MatVec(const Matrix& a, const Vector& x) {
  Vector y;
  MatVecInto(a, x, &y);
  return y;
}

void MatVecInto(const Matrix& a, const Vector& x, Vector* y) {
  CERL_CHECK_EQ(a.cols(), static_cast<int>(x.size()));
  y->resize(a.rows());
  simd::Kernels().mat_vec(a.data(), a.cols(), x.data(), a.rows(), a.cols(),
                          y->data());
}

}  // namespace cerl::linalg
