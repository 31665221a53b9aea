// Primitive differentiable operations on tape Vars. Every op appends one
// node to the Var's tape. Gradient correctness for each primitive is
// verified against central differences in tests/autodiff_grad_test.cc.
#pragma once

#include <vector>

#include "autodiff/tape.h"
#include "linalg/simd.h"

namespace cerl::autodiff {

/// C = A * B.
Var MatMul(Var a, Var b);

/// y = act(x * w + b), the dense layer as one node: b is 1 x cols broadcast
/// over rows, act is EwFwd::kNone, kElu or kTanh. y and the gradients of
/// x, w and b are bitwise those of MatMul -> AddRowBroadcast -> Elu/Tanh;
/// the node keeps only y (the forward is one Gemm with its epilogue).
Var LinearAct(Var x, Var w, Var b, linalg::simd::EwFwd act);

/// C = A * B^T.
Var MatMulBt(Var a, Var b);

/// Elementwise; shapes must match.
Var Add(Var a, Var b);
Var Sub(Var a, Var b);
Var Mul(Var a, Var b);

/// out = a + bias, bias is 1 x cols broadcast over rows (bias add).
Var AddRowBroadcast(Var a, Var bias);

/// out(i, j) = a(i, j) * s(i, 0); s is rows x 1 broadcast across columns.
Var MulColBroadcast(Var a, Var s);

/// Scalar ops.
Var ScalarMul(Var a, double k);
Var ScalarAdd(Var a, double k);

/// Elementwise unary ops.
Var Reciprocal(Var a);  ///< 1/a (a must be nonzero)
Var Relu(Var a);
Var Elu(Var a);         ///< alpha = 1
Var Tanh(Var a);
Var Sigmoid(Var a);
Var Exp(Var a);
Var Log(Var a);         ///< a must be positive
Var Sqrt(Var a);        ///< a must be non-negative
Var Square(Var a);
Var Abs(Var a);         ///< subgradient 0 at 0

/// Reductions.
Var Sum(Var a);      ///< 1 x 1
Var Mean(Var a);     ///< 1 x 1
Var RowSum(Var a);   ///< rows x 1
Var ColSum(Var a);   ///< 1 x cols

/// Structure ops.
Var Transpose(Var a);
Var ConcatRows(Var a, Var b);  ///< vertical stack
/// Rows by index. The indices are copied into tape-owned storage (reused
/// across Tape::Reset), so callers may pass transient spans.
Var GatherRows(Var a, const int* index, int n);
Var GatherRows(Var a, const std::vector<int>& index);

}  // namespace cerl::autodiff
