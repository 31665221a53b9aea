// Runtime-dispatched SIMD kernel layer for the per-element hot paths:
// the batch exponential (VecExp), the register-tiled GEMM,
// the MatVecInto row reduction, the Adam parameter update, and the
// elementwise accumulation/forward kernels of the training path, including
// the ELU and tanh activation forwards (an in-repo expm1 core, no libm).
//
// Dispatch model: one function-pointer table (KernelSet) resolved once per
// process — CERL_FORCE_SCALAR=<non-zero> in the environment forces the
// scalar table, otherwise CPUID picks the AVX2/FMA table when both the
// build and the CPU support it, with the scalar table as the fallback.
// Resolution is a pure function of the environment and the CPU, so a given
// build is deterministic run-to-run (and a given kernel set is
// deterministic across range splits: every kernel reduces in a fixed
// order).
//
// Where each entry's code lives:
//  - One source, compiled twice: vec_accum, vec_axpy, vec_mul_accum,
//    vec_add_scalar, ew_backward, vec_add, vec_sub, vec_mul, vec_scale,
//    vec_div_scalar, add_row_broadcast, mul_col_broadcast and the plain
//    ew_forward ops (reciprocal, relu, sqrt, square, abs) are plain loops in
//    simd_plain.inc. simd.cc compiles them into the scalar table and
//    simd_avx2.cc, with -mavx2 -mfma, into the AVX2 table; both TUs use
//    -ffp-contract=off. The tables agree bit for bit because they compile
//    the same expression, not because two copies are kept in step by hand.
//  - Hand-written AVX2 intrinsics, kept where the AVX2 arithmetic or
//    algorithm differs from the scalar source: vec_exp, row_dot, mat_vec,
//    gemm and adam_update fuse multiply-adds that the scalar code rounds
//    separately; mat_tvec_accum blocks four rows per pass (a plain-C blocked
//    loop measured 1.0-1.4x slower); and the ELU/tanh expm1 core, which GCC
//    does vectorize from the scalar twin, measured 1.02-1.34x slower that
//    way.
//
// Numerics contract, kernel by kernel:
//  - vec_exp is POSITION-UNIFORM: element i's result depends only on in[i],
//    never on i, n, or alignment (the AVX2 tail is masked full-width
//    arithmetic, not a scalar epilogue). Callers may therefore batch many
//    small arrays into one call and get bitwise-identical results.
//  - row_dot fixes the 4-accumulator reduction order
//    (s0+s1)+(s2+s3) with the tail folded into s0. The AVX2 version keeps
//    that order and fuses each multiply-add (FMA), so scalar and AVX2
//    differ by the usual FMA rounding (~1 ulp per term); within one kernel
//    set the result is exact and split-independent.
//  - gemm and adam_update are elementwise/independent per output and keep
//    the scalar expression shape; the AVX2 versions use FMA, so they track
//    the scalar results to a few ulp per accumulation (tests document the
//    tolerance). gemm's exact per-element formula is spelled out at its
//    table entry. Its optional bias row is add_row_broadcast's add, done
//    on the accumulator before the store, so a dense layer's product and
//    bias are bitwise the two separate passes.
//  - ew_forward's ELU and tanh (EwFwd::kElu / kTanh) are approximations
//    of libm's expm1 and tanh, within 2 and 3 ulp of them respectively
//    (tests/activation_oracle_test.cc keeps the libm formulas as the
//    oracle). Their contract:
//      * same bits in both tables: the scalar twin calls std::fma at
//        exactly the sites where the AVX2 body issues an FMA instruction
//        and uses plain IEEE ops everywhere else;
//      * position-uniform, like vec_exp (masked full-width AVX2 tail);
//      * special values as libm: +-0 keep their sign, NaN propagates (no
//        clamp may swallow it), ELU(-inf) = -1, ELU(+inf) = +inf,
//        tanh(+-inf) = +-1, tanh is exactly +-1 for |x| >= 22, and tiny or
//        subnormal inputs return x.
//    Their derivatives (EwGrad::kElu, kTanh) are formulas of the output y
//    and do not depend on how the forward was computed.
#pragma once

#include <cstdint>

namespace cerl::linalg::simd {

/// Derivative selector for KernelSet::ew_backward. The formula column (x =
/// forward input, y = forward output) is the contract: both kernel tables
/// compile these expressions from one source (simd_plain.inc) with plain
/// individually-rounded IEEE ops, and autodiff/ops.cc's forward definitions
/// must stay consistent with them.
enum class EwGrad : int {
  kReciprocal = 0,  ///< -y * y
  kRelu,            ///< x > 0 ? 1 : 0
  kElu,             ///< x > 0 ? 1 : y + 1
  kTanh,            ///< 1 - y * y
  kSigmoid,         ///< y * (1 - y)
  kExp,             ///< y
  kLog,             ///< 1 / x
  kSqrt,            ///< y > 0 ? 0.5 / y : 0
  kSquare,          ///< 2 * x
  kAbs,             ///< x > 0 ? 1 : (x < 0 ? -1 : 0)
};

/// Forward selector for KernelSet::ew_forward. The first five are plain
/// arithmetic or an IEEE-exact instruction (sqrt is correctly rounded), so
/// they equal the scalar formula bit for bit. kElu and kTanh run the
/// in-repo expm1 core under the activation contract in the file comment.
/// The other transcendental forwards (sigmoid/exp/log) stay on the scalar
/// libm path in autodiff. kNone is linalg::GemmEpilogue's "no activation";
/// it is not an ew_forward op, and ew_forward must not be called with it.
enum class EwFwd : int {
  kReciprocal = 0,  ///< 1 / x
  kRelu,            ///< x > 0 ? x : 0
  kSqrt,            ///< sqrt(x)
  kSquare,          ///< x * x
  kAbs,             ///< fabs(x)
  kElu,             ///< x >= 0 ? x : expm1(x)
  kTanh,            ///< tanh(x)
  kNone = -1,       ///< no activation (not an ew_forward op)
};

struct KernelSet {
  const char* name;  ///< "scalar" or "avx2" (diagnostics / bench labels)

  /// out[i] = exp(in[i]) for i in [0, n); in == out aliasing is allowed.
  /// Clamped to [-708, 708]; position-uniform (see file comment).
  void (*vec_exp)(const double* in, double* out, int n);

  /// Dot product of row and x with the fixed 4-accumulator order: s0..s3
  /// over c += 4, remainder into s0, combined as (s0+s1)+(s2+s3).
  double (*row_dot)(const double* row, const double* x, int n);

  /// C = alpha * op(A) * op(B) + beta * C over an m x n block of C
  /// (row stride ldc), with op(A)(i, p) = a[i * a_rs + p * a_cs] read in
  /// place through its strides (so a transposed A costs nothing) and
  /// op(B)(p, j) = b[p * ldb + j]. Every element of C is computed as:
  ///   c = +0.0 if beta == 0 (C is not read), C if beta == 1, else beta * C;
  ///   for each group of four k, in k order, with a_p = alpha * op(A)(i, p):
  ///     vector columns: t = a0*b0; t = fma(a1, b1, t); t = fma(a2, b2, t);
  ///                     t = fma(a3, b3, t); c = c + t
  ///     plain columns:  c = c + (((a0*b0 + a1*b1) + a2*b2) + a3*b3)
  ///   for each of the k % 4 remaining k: vector columns c = fma(a, b, c),
  ///   plain columns c = c + a*b.
  /// In the scalar table every column is plain; in the AVX2 table the last
  /// n % 4 columns are plain and the rest are vector columns. The result is
  /// independent of any tiling, and k == 0 applies only the beta step.
  /// Then, if bias != nullptr, on every column alike (the n % 4 tail too):
  ///   c = c + bias[j]   (one plain IEEE add, before c is stored)
  /// so each element is bitwise the bias-free gemm followed by
  /// add_row_broadcast(bias) over C.
  void (*gemm)(int m, int n, int k, double alpha, const double* a,
               int64_t a_rs, int64_t a_cs, const double* b, int64_t ldb,
               double beta, double* c, int64_t ldc, const double* bias);

  /// One Adam update over n contiguous elements (bias-corrected step with
  /// optional decoupled weight decay). Elementwise, so any range split
  /// produces identical results.
  void (*adam_update)(double* value, const double* grad, double* m, double* v,
                      int64_t n, double beta1, double beta2, double inv_bc1,
                      double inv_bc2, double eps, double lr,
                      double weight_decay);

  // --- elementwise accumulation kernels ----------------------------------
  //
  // Each output element is independent and computed either with PLAIN mul /
  // add / div / compare-select (individually rounded IEEE ops) or with a
  // correctly-rounded std::fma, from the one source both tables compile —
  // so results are bitwise identical in BOTH tables and independent of any
  // range split. These carry the training path's elementwise traffic: the
  // Sinkhorn K^T u accumulation, gradient accumulation, and the activation
  // backward passes.

  /// y[i] += x[i] for i in [0, n).
  void (*vec_accum)(const double* x, double* y, int64_t n);

  /// y[i] = fma(a, x[i], y[i]) — the K^T u per-row accumulation and
  /// Matrix::Axpy.
  void (*vec_axpy)(double a, const double* x, double* y, int64_t n);

  /// y[i] = fma(x1[i], x2[i], y[i]) — elementwise-product backward.
  void (*vec_mul_accum)(const double* x1, const double* x2, double* y,
                        int64_t n);

  /// y[i] += a — the row-sum backward broadcast.
  void (*vec_add_scalar)(double a, double* y, int64_t n);

  /// ga[i] += g[i] * dfdx(x[i], y[i]) where dfdx is selected by `op`
  /// (an EwGrad value) and y is the forward output. Every derivative
  /// formula is plain arithmetic / compare-select on (x, y).
  void (*ew_backward)(int op, const double* g, const double* x,
                      const double* y, double* ga, int64_t n);

  // --- whole-array forward kernels ---------------------------------------
  //
  // Same plain-elementwise contract as the accumulation kernels: bitwise
  // identical across tables and range splits. For the pure elementwise ones
  // (vec_add .. vec_div_scalar, ew_forward) full in-place aliasing
  // (out == an input) is allowed; partial overlap is not.

  /// out[i] = x1[i] + x2[i].
  void (*vec_add)(const double* x1, const double* x2, double* out, int64_t n);

  /// out[i] = x1[i] - x2[i].
  void (*vec_sub)(const double* x1, const double* x2, double* out, int64_t n);

  /// out[i] = x1[i] * x2[i].
  void (*vec_mul)(const double* x1, const double* x2, double* out, int64_t n);

  /// out[i] = a * x[i].
  void (*vec_scale)(double a, const double* x, double* out, int64_t n);

  /// out[i] = a / x[i] (plain IEEE division) — the Sinkhorn marginal
  /// updates u = a ./ Kv, v = b ./ K^T u.
  void (*vec_div_scalar)(double a, const double* x, double* out, int64_t n);

  /// out(r, c) = a(r, c) + b[c] over a rows x cols row-major block — the
  /// bias add. One call covers the whole matrix.
  void (*add_row_broadcast)(const double* a, const double* b, int rows,
                            int cols, double* out);

  /// out(r, c) = a(r, c) * s[r] over a rows x cols row-major block.
  void (*mul_col_broadcast)(const double* a, const double* s, int rows,
                            int cols, double* out);

  /// out[r] = row_dot(mat + r*ld, x, cols) for r in [0, rows) — a whole
  /// mat-vec panel in one dispatch (each row is exactly the row_dot kernel
  /// of the same table, FMA in the AVX2 one).
  void (*mat_vec)(const double* mat, int64_t ld, const double* x, int rows,
                  int cols, double* out);

  /// Transposed mat-vec accumulation panel: adds mat^T u into out[0..cols)
  /// as out[c] = fma(u[r], mat[r*ld + c], out[c]) with r strictly ascending
  /// per element (the K^T u reference order; fma is correctly rounded, so
  /// both tables agree bitwise). out is NOT zero-filled: callers zero it
  /// before the first panel, and consecutive row panels then accumulate to
  /// the bits of one call over all their rows. Implementations may block
  /// over rows for locality; the per-element accumulation order never
  /// changes, so the result is bitwise identical to the row-at-a-time
  /// loop.
  void (*mat_tvec_accum)(const double* mat, int64_t ld, const double* u,
                         int rows, int cols, double* out);

  /// out[i] = f(x[i]) with f selected by `op` (an EwFwd value other than
  /// kNone): plain arithmetic / compare-select / IEEE-exact sqrt, or the
  /// ELU/tanh approximations whose contract is in the file comment.
  void (*ew_forward)(int op, const double* x, double* out, int64_t n);
};

/// The active kernel set (resolved once; see file comment). Hot loops
/// should hoist the reference out of their inner loop.
const KernelSet& Kernels();

/// The scalar reference table — always available, used by parity tests and
/// by callers that must reproduce the scalar arithmetic exactly.
const KernelSet& ScalarKernels();

/// True when the AVX2/FMA table was compiled in AND this CPU supports it
/// (independent of any force-scalar override).
bool Avx2Available();

/// True when the CERL_FORCE_SCALAR environment override is active.
bool ForcedScalar();

/// Test hook: swap the active table to scalar (true) or back to the
/// environment/CPUID resolution (false). Process-wide; tests that pin
/// machine-independent numerics (golden formats) call this first.
void ForceScalarForTesting(bool force);

}  // namespace cerl::linalg::simd
