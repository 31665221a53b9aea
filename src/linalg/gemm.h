// General matrix multiply with optional operand transposes:
//   C = alpha * op(A) * op(B) + beta * C
// One register-tiled kernel (simd::KernelSet::gemm) that runs on the calling
// thread: each C tile stays in registers across the whole k range and is
// stored once, op(A) is read in place through its strides (no pack, also
// when transposed), and only a transposed B is packed, into a retained
// per-thread buffer. There is no separate zero-fill or scale pass over C:
// beta == 0 starts the tile at +0.0 without reading C. An optional
// epilogue adds a bias row to the tile before that store and then applies
// an ELU or tanh over the finished C, so a dense layer act(x W + b) is one
// call. This is the performance-critical primitive behind all
// neural-network training in the repository; simd.h fixes its per-element
// arithmetic.
#pragma once

#include "linalg/matrix.h"
#include "linalg/simd.h"

namespace cerl::linalg {

/// Transpose selector for Gemm operands.
enum class Trans { kNo, kYes };

/// What Gemm does to each element of C after the product: c = c + bias[j]
/// in the kernel, before the store (the simd.h gemm contract), then
/// c = act(c), one ew_forward over C. Bitwise the separate
/// add_row_broadcast and ew_forward passes by construction.
struct GemmEpilogue {
  const double* bias = nullptr;  ///< n values, one per column of C; or none
  simd::EwFwd act = simd::EwFwd::kNone;  ///< kNone, kElu or kTanh
};

/// C = alpha * op(A) * op(B) + beta * C, then the epilogue. Shapes are
/// checked; C must already have the result shape. With beta == 0, C's
/// previous contents are never read (NaN or stale values are simply
/// overwritten).
void Gemm(Trans trans_a, Trans trans_b, double alpha, const Matrix& a,
          const Matrix& b, double beta, Matrix* c,
          const GemmEpilogue& epilogue = {});

/// Returns A * B.
Matrix MatMul(const Matrix& a, const Matrix& b);

/// Returns op(A) * op(B) with explicit transpose flags.
Matrix MatMulT(Trans trans_a, Trans trans_b, const Matrix& a, const Matrix& b);

/// y = A * x (matrix-vector product).
Vector MatVec(const Matrix& a, const Vector& x);

/// y = A * x written into caller-owned storage (resized to a.rows(); no
/// allocation once capacity is established).
void MatVecInto(const Matrix& a, const Vector& x, Vector* y);

}  // namespace cerl::linalg
