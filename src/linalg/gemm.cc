#include "linalg/gemm.h"

#include <vector>

#include "linalg/simd.h"

namespace cerl::linalg {

void Gemm(Trans trans_a, Trans trans_b, double alpha, const Matrix& a,
          const Matrix& b, double beta, Matrix* c,
          const GemmEpilogue& epilogue) {
  const int m = trans_a == Trans::kNo ? a.rows() : a.cols();
  int k = trans_a == Trans::kNo ? a.cols() : a.rows();
  const int kb = trans_b == Trans::kNo ? b.rows() : b.cols();
  const int n = trans_b == Trans::kNo ? b.cols() : b.rows();
  CERL_CHECK_EQ(k, kb);
  CERL_CHECK_EQ(c->rows(), m);
  CERL_CHECK_EQ(c->cols(), n);
  CERL_CHECK(epilogue.act == simd::EwFwd::kNone ||
             epilogue.act == simd::EwFwd::kElu ||
             epilogue.act == simd::EwFwd::kTanh);
  if (m == 0 || n == 0) return;
  // With alpha == 0 only the beta step is left: an empty k range.
  if (alpha == 0.0) k = 0;
  if (k == 0 && beta == 1.0 && epilogue.bias == nullptr &&
      epilogue.act == simd::EwFwd::kNone) {
    return;
  }

  // The kernel reads op(B) row-major. An untransposed B already is; a
  // transposed one is packed once into a buffer reused across calls
  // (thread-local, so concurrent stream workers keep disjoint buffers).
  const double* b_rows = b.data();
  int64_t ldb = b.cols();
  if (trans_b == Trans::kYes && k > 0) {
    static thread_local std::vector<double> pack_b;
    const size_t need = static_cast<size_t>(k) * n;
    if (pack_b.size() < need) pack_b.resize(need);
    for (int j = 0; j < n; ++j) {
      const double* src = b.row(j);
      double* dst = pack_b.data() + j;
      for (int p = 0; p < k; ++p) dst[static_cast<size_t>(p) * n] = src[p];
    }
    b_rows = pack_b.data();
    ldb = n;
  }
  const int64_t a_rs = trans_a == Trans::kNo ? a.cols() : 1;
  const int64_t a_cs = trans_a == Trans::kNo ? 1 : a.cols();
  const simd::KernelSet& ks = simd::Kernels();
  ks.gemm(m, n, k, alpha, a.data(), a_rs, a_cs, b_rows, ldb, beta, c->data(),
          n, epilogue.bias);
  if (epilogue.act != simd::EwFwd::kNone) {
    ks.ew_forward(static_cast<int>(epilogue.act), c->data(), c->data(),
                  c->size());
  }
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  return MatMulT(Trans::kNo, Trans::kNo, a, b);
}

Matrix MatMulT(Trans trans_a, Trans trans_b, const Matrix& a,
               const Matrix& b) {
  const int m = trans_a == Trans::kNo ? a.rows() : a.cols();
  const int n = trans_b == Trans::kNo ? b.cols() : b.rows();
  Matrix c;
  c.Resize(m, n);  // beta == 0: Gemm writes every element without reading
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
