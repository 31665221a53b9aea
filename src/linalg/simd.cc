// Scalar kernel table and one-time dispatch resolution. The scalar bodies
// are the former inline loops of ops.cc / gemm.cc / optim.cc: they define
// the reference arithmetic (order and operation shape) that the AVX2 table
// either matches bitwise (vec_exp tail handling, the ELU/tanh forwards,
// mat_tvec_accum) or tracks within documented FMA rounding (row_dot, gemm,
// adam). The plain elementwise kernels are not here but in simd_plain.inc,
// which both tables compile. This file is built with -ffp-contract=off, so
// the compiler never contracts a multiply-add: the only fused operations
// are the explicit std::fma calls. At the SSE2 baseline each std::fma is a
// call into libm, so every kernel that calls it is also cloned for FMA
// hardware (CERL_FMA_CLONES), where the same std::fma is one instruction.
// fma is correctly rounded either way, so both clones give the same bits.
#include "linalg/simd.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace cerl::linalg::simd {

#if defined(CERL_HAVE_AVX2_KERNELS)
// Defined in simd_avx2.cc (the only TU compiled with -mavx2 -mfma).
const KernelSet* Avx2KernelSet();
#endif

namespace {

// Not under TSan: the clones dispatch through an ifunc resolver, which the
// dynamic loader runs before the TSan runtime is initialized.
#if defined(__GNUC__) && defined(__x86_64__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define CERL_FMA_CLONES __attribute__((target_clones("fma", "default")))
#else
#define CERL_FMA_CLONES
#endif

void VecExpScalar(const double* in, double* out, int n) {
  // exp(x) = 2^k * exp(r) with r = x - k*ln2 (|r| <= ln2/2). k is extracted
  // with the round-to-nearest shifter trick (adding 1.5 * 2^52 places the
  // integer in the low mantissa bits), exp(r) is a degree-11 Taylor
  // polynomial in Estrin form (max relative error ~9e-15 on the reduced
  // range; the even/odd split shortens the 11-FMA Horner dependency chain
  // to ~7 steps), and the 2^k scale is assembled directly in the exponent
  // field. Every step is add/mul/compare-select/integer bit work on
  // independent lanes, so gcc vectorizes the loop at -O3 even at the SSE2
  // baseline (no roundpd/cvttpd needed). The clamp ternaries only become
  // branch-free selects under -fno-trapping-math, set for this file in
  // src/CMakeLists.txt — without it the loop stays scalar (correct, ~1.7x
  // slower).
  constexpr double kLog2e = 1.4426950408889634074;
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  constexpr double kShift = 6755399441055744.0;  // 1.5 * 2^52
  int64_t shift_bits;
  std::memcpy(&shift_bits, &kShift, sizeof(shift_bits));
  for (int i = 0; i < n; ++i) {
    double x = in[i];
    x = x > 708.0 ? 708.0 : x;
    x = x < -708.0 ? -708.0 : x;
    const double t = x * kLog2e + kShift;  // nearest integer, in-mantissa
    const double kd = t - kShift;
    const double r = (x - kd * kLn2Hi) - kd * kLn2Lo;
    const double r2 = r * r;
    const double r4 = r2 * r2;
    const double r6 = r4 * r2;
    const double lo = (1.0 + r) + r2 * (0.5 + r * (1.0 / 6.0)) +
                      r4 * (1.0 / 24.0 + r * (1.0 / 120.0));
    const double hi = (1.0 / 720.0 + r * (1.0 / 5040.0)) +
                      r2 * (1.0 / 40320.0 + r * (1.0 / 362880.0)) +
                      r4 * (1.0 / 3628800.0 + r * (1.0 / 39916800.0));
    const double p = lo + r6 * hi;
    int64_t t_bits;
    std::memcpy(&t_bits, &t, sizeof(t_bits));
    const int64_t k = t_bits - shift_bits;  // shared exponent => exact
    const int64_t scale_bits = (k + 1023) << 52;
    double scale;
    std::memcpy(&scale, &scale_bits, sizeof(scale));
    out[i] = p * scale;
  }
}

double RowDotScalar(const double* row, const double* x, int n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  int c = 0;
  for (; c + 4 <= n; c += 4) {
    s0 += row[c] * x[c];
    s1 += row[c + 1] * x[c + 1];
    s2 += row[c + 2] * x[c + 2];
    s3 += row[c + 3] * x[c + 3];
  }
  for (; c < n; ++c) s0 += row[c] * x[c];
  return (s0 + s1) + (s2 + s3);
}

void GemmScalar(int m, int n, int k, double alpha, const double* a,
                int64_t a_rs, int64_t a_cs, const double* b, int64_t ldb,
                double beta, double* c, int64_t ldc, const double* bias) {
  // The gemm contract's plain formula for every column: a C row is
  // initialized from beta, then accumulates one rounded
  // ((a0*b0 + a1*b1) + a2*b2) + a3*b3 per group of four k and one a*b per
  // remainder k, with a = alpha * op(A). The finished row then takes the
  // bias, with add_row_broadcast's add.
  for (int i = 0; i < m; ++i) {
    const double* ai = a + i * a_rs;
    double* ci = c + i * ldc;
    if (beta == 0.0) {
      for (int j = 0; j < n; ++j) ci[j] = 0.0;
    } else if (beta != 1.0) {
      for (int j = 0; j < n; ++j) ci[j] = beta * ci[j];
    }
    int p = 0;
    for (; p + 4 <= k; p += 4) {
      const double a0 = alpha * ai[p * a_cs];
      const double a1 = alpha * ai[(p + 1) * a_cs];
      const double a2 = alpha * ai[(p + 2) * a_cs];
      const double a3 = alpha * ai[(p + 3) * a_cs];
      const double* b0 = b + p * ldb;
      const double* b1 = b0 + ldb;
      const double* b2 = b1 + ldb;
      const double* b3 = b2 + ldb;
      for (int j = 0; j < n; ++j) {
        ci[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
      }
    }
    for (; p < k; ++p) {
      const double ap = alpha * ai[p * a_cs];
      const double* bp = b + p * ldb;
      for (int j = 0; j < n; ++j) ci[j] += ap * bp[j];
    }
    if (bias != nullptr) {
      for (int j = 0; j < n; ++j) ci[j] = ci[j] + bias[j];
    }
  }
}

void AdamUpdateScalar(double* value, const double* grad, double* m, double* v,
                      int64_t n, double beta1, double beta2, double inv_bc1,
                      double inv_bc2, double eps, double lr,
                      double weight_decay) {
  for (int64_t j = 0; j < n; ++j) {
    const double g = grad[j];
    m[j] = beta1 * m[j] + (1.0 - beta1) * g;
    v[j] = beta2 * v[j] + (1.0 - beta2) * g * g;
    const double mhat = m[j] * inv_bc1;
    const double vhat = v[j] * inv_bc2;
    double update = mhat / (std::sqrt(vhat) + eps);
    if (weight_decay != 0.0) {
      update += weight_decay * value[j];
    }
    value[j] -= lr * update;
  }
}

void MatVecScalar(const double* mat, int64_t ld, const double* x, int rows,
                  int cols, double* out) {
  for (int r = 0; r < rows; ++r) {
    out[r] = RowDotScalar(mat + static_cast<size_t>(r) * ld, x, cols);
  }
}

CERL_FMA_CLONES
void MatTVecAccumScalar(const double* mat, int64_t ld, const double* u,
                        int rows, int cols, double* out) {
  for (int r = 0; r < rows; ++r) {
    const double* row = mat + static_cast<size_t>(r) * ld;
    const double ur = u[r];
    // fma keeps the r-ascending per-element accumulation order while
    // matching the AVX2 table bitwise.
    for (int c = 0; c < cols; ++c) out[c] = std::fma(ur, row[c], out[c]);
  }
}

// ---- ELU / tanh forwards: the expm1 core ---------------------------------
//
// expm1(x) for x <= 0 (a NaN passes through). Cody-Waite reduction
// x = k*ln2 + r, |r| <= ln2/2, with r split into r + r_lo; 2^k assembled in
// the exponent field; expm1(r) = r + r^2 * q(r), q the degree-11 Taylor
// polynomial sum_j r^j / (j+2)! in Estrin form (truncation error < 2^-56
// relative on the reduced range); and expm1(x) = (2^k - 1) + 2^k*expm1(r).
// x is clamped at -45, where expm1 is -1 to the last bit, so k >= -65 and
// 2^k is a normal number. std::fma sits exactly where Expm1ReduceAvx2 in
// simd_avx2.cc issues an FMA instruction; every other step is a plain IEEE
// op, so the two tables agree bit for bit.
struct Expm1Reduced {
  double s;     // 2^k
  double r;     // reduced argument, rounded
  double r_lo;  // what r lost to rounding
  double r2;    // r * r
  double q;     // q(r)
};

inline Expm1Reduced Expm1Reduce(double x) {
  constexpr double kLog2e = 1.4426950408889634074;
  constexpr double kLn2Hi = 6.93147180369123816490e-01;  // low 21 bits zero
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  constexpr double kShift = 6755399441055744.0;  // 1.5 * 2^52
  x = x < -45.0 ? -45.0 : x;                     // NaN compares false
  const double t = std::fma(x, kLog2e, kShift);  // k, in the low mantissa
  const double nk = kShift - t;                  // -k, exact
  const double r_hi = std::fma(nk, kLn2Hi, x);   // exact (Sterbenz)
  Expm1Reduced e;
  e.r = std::fma(nk, kLn2Lo, r_hi);
  e.r_lo = std::fma(nk, kLn2Lo, r_hi - e.r);
  const double r = e.r;
  e.r2 = r * r;
  const double r4 = e.r2 * e.r2;
  const double r8 = r4 * r4;
  const double a0 = std::fma(r, 1.0 / 6.0, 1.0 / 2.0);
  const double a1 = std::fma(r, 1.0 / 120.0, 1.0 / 24.0);
  const double a2 = std::fma(r, 1.0 / 5040.0, 1.0 / 720.0);
  const double a3 = std::fma(r, 1.0 / 362880.0, 1.0 / 40320.0);
  const double a4 = std::fma(r, 1.0 / 39916800.0, 1.0 / 3628800.0);
  const double a5 = std::fma(r, 1.0 / 6227020800.0, 1.0 / 479001600.0);
  const double b0 = std::fma(e.r2, a1, a0);
  const double b1 = std::fma(e.r2, a3, a2);
  const double b2 = std::fma(e.r2, a5, a4);
  e.q = std::fma(r8, b2, std::fma(r4, b1, b0));
  // Unsigned: k = t - kShift is exact in the integer view because both share
  // an exponent, and for any input (NaN included) the wrap is defined.
  uint64_t t_bits, shift_bits;
  std::memcpy(&t_bits, &t, sizeof(t_bits));
  std::memcpy(&shift_bits, &kShift, sizeof(shift_bits));
  const uint64_t scale_bits = (t_bits - shift_bits + 1023) << 52;
  std::memcpy(&e.s, &scale_bits, sizeof(e.s));
  return e;
}

// ELU: x for x >= 0 (so -0 keeps its sign), else expm1(x) with one final
// rounding. 2^k - 1 is exact for k >= -53; below that, l carries the 2^k
// it dropped so results near -1 still round correctly.
inline double EluOne(double x) {
  if (x >= 0.0) return x;
  const Expm1Reduced e = Expm1Reduce(x);
  const double p = std::fma(e.r2, e.q, e.r);
  const double h = e.s - 1.0;
  const double l = e.s - (h + 1.0);
  return std::fma(e.s, p, l) + h;
}

// tanh(x) = sign(x) * -u / (u + 2) with u = expm1(-2|x|) in (-1, 0]. The
// quotient is ill-conditioned in u's last bit, so u is kept as hi + lo,
// u and u + 2 are formed as double-doubles, and one residual step corrects
// the quotient (about 0.9 ulp from the true tanh; libm's is about 2.1).
inline double TanhOne(double x) {
  const Expm1Reduced e = Expm1Reduce(-2.0 * std::fabs(x));
  const double h = e.s - 1.0;
  const double l = e.s - (h + 1.0);
  const double sr = e.s * e.r;  // exact
  const double hi = h + sr;
  const double l2 = sr - (hi - h);  // Fast2Sum: h == 0 or |h| >= |sr|
  const double lo = std::fma(e.s, e.r_lo, std::fma(e.s, e.r2 * e.q, l + l2));
  const double u = hi + lo;
  const double u_lo = (hi - u) + lo;
  const double d_hi = hi + 2.0;
  const double d_mid = (hi - (d_hi - 2.0)) + lo;
  const double d = d_hi + d_mid;
  const double d_lo = (d_hi - d) + d_mid;
  const double rec = 1.0 / d;
  const double q0 = u * rec;
  const double res = std::fma(-q0, d, u) + std::fma(-q0, d_lo, u_lo);
  return std::copysign(std::fma(res, rec, q0), x);
}

CERL_FMA_CLONES
void EluForward(const double* x, double* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = EluOne(x[i]);
}

CERL_FMA_CLONES
void TanhForward(const double* x, double* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = TanhOne(x[i]);
}

// vec_accum .. mul_col_broadcast and ew_forward: the same source
// simd_avx2.cc compiles for the AVX2 table.
#include "linalg/simd_plain.inc"

constexpr KernelSet kScalarSet = {
    "scalar",        VecExpScalar,     RowDotScalar,
    GemmScalar,      AdamUpdateScalar,
    VecAccum,        VecAxpy,          VecMulAccum,
    VecAddScalar,    EwBackward,
    VecAdd,          VecSub,           VecMul,
    VecScale,        VecDivScalar,
    AddRowBroadcast, MulColBroadcast,
    MatVecScalar,    MatTVecAccumScalar, EwForward,
};

bool CpuHasAvx2Fma() {
#if defined(CERL_HAVE_AVX2_KERNELS)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

const KernelSet* Resolve() {
  if (ForcedScalar()) return &kScalarSet;
#if defined(CERL_HAVE_AVX2_KERNELS)
  if (CpuHasAvx2Fma()) return Avx2KernelSet();
#endif
  return &kScalarSet;
}

// Resolution is cached in an atomic; concurrent first calls race benignly
// (Resolve is deterministic, so every racer stores the same pointer).
std::atomic<const KernelSet*> g_kernels{nullptr};

}  // namespace

const KernelSet& Kernels() {
  const KernelSet* k = g_kernels.load(std::memory_order_acquire);
  if (k == nullptr) {
    k = Resolve();
    g_kernels.store(k, std::memory_order_release);
  }
  return *k;
}

const KernelSet& ScalarKernels() { return kScalarSet; }

bool Avx2Available() { return CpuHasAvx2Fma(); }

bool ForcedScalar() {
  const char* env = std::getenv("CERL_FORCE_SCALAR");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

void ForceScalarForTesting(bool force) {
  g_kernels.store(force ? &kScalarSet : Resolve(), std::memory_order_release);
}

}  // namespace cerl::linalg::simd
