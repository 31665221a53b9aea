// AVX2/FMA kernel table. This is the ONLY translation unit compiled with
// -mavx2 -mfma; it is added to the build when the compiler supports those
// flags, and the table is selected at runtime only when CPUID reports both
// features (see simd.cc).
//
// Two kinds of code live here. The plain elementwise kernels are not
// written for AVX2 at all: this TU compiles the scalar table's own loops
// (simd_plain.inc), so both tables run one expression. Everything else is
// explicit intrinsics, kept because its arithmetic or algorithm differs
// from the scalar source: vec_exp, row_dot, mat_vec and gemm fuse
// multiply-adds the scalar code rounds separately, adam_update fuses its
// moment updates, mat_tvec_accum blocks four rows per pass (a plain-C
// blocked loop measured up to 1.4x slower), and the ELU/tanh expm1 core
// runs lane-parallel with a masked tail (GCC's vectorization of the scalar
// twin measured up to 1.34x slower). The TU is
// compiled with -ffp-contract=off: a multiply-add fuses exactly where an
// _mm256_fmadd_pd (or a std::fma) is written, never behind the compiler's
// back. That is what makes the contracts in simd.h checkable — vec_exp's
// masked tail is the same vector arithmetic as its body (position-uniform),
// row_dot's scalar tail is a genuine mul+add, gemm's n % 4 tail columns
// stay plain mul+add, and the shared loops keep the scalar rounding.
#include "linalg/simd.h"

#if defined(CERL_HAVE_AVX2_KERNELS)

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace cerl::linalg::simd {
namespace {

// Lane mask for a masked full-width tail of rem = 1..3 elements. Dead lanes
// load as 0.0 and the masked store discards their results.
inline __m256i TailMask(int rem) {
  const int64_t on = -1;
  switch (rem) {
    case 3: return _mm256_set_epi64x(0, on, on, on);
    case 2: return _mm256_set_epi64x(0, 0, on, on);
    case 1: return _mm256_set_epi64x(0, 0, 0, on);
    default: return _mm256_setzero_si256();
  }
}

// out = f(x) elementwise for a unary vector functor. The n % 4 tail is a
// masked full-width vector: it runs the IDENTICAL arithmetic as the body,
// so results are position-uniform (an element's value depends only on its
// input, never on where it sits relative to the array end).
template <typename Fn>
inline void UnaryLoop(const double* x, double* out, int64_t n, Fn f) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, f(_mm256_loadu_pd(x + i)));
  }
  const int rem = static_cast<int>(n - i);
  if (rem > 0) {
    const __m256i mask = TailMask(rem);
    _mm256_maskstore_pd(out + i, mask, f(_mm256_maskload_pd(x + i, mask)));
  }
}

// ---- vec_exp -------------------------------------------------------------

// One vector of the Cody-Waite + Estrin exp from the scalar kernel, with
// each multiply-add fused. The clamp replicates the scalar ternaries via
// compare+blend (ordered compares: NaN inputs pass through to a NaN
// result, exactly like the scalar kernel).
inline __m256d ExpVec(__m256d x) {
  const __m256d kHi = _mm256_set1_pd(708.0);
  const __m256d kLo = _mm256_set1_pd(-708.0);
  const __m256d kLog2e = _mm256_set1_pd(1.4426950408889634074);
  const __m256d kLn2Hi = _mm256_set1_pd(6.93147180369123816490e-01);
  const __m256d kLn2Lo = _mm256_set1_pd(1.90821492927058770002e-10);
  const __m256d kShift = _mm256_set1_pd(6755399441055744.0);  // 1.5 * 2^52

  x = _mm256_blendv_pd(x, kHi, _mm256_cmp_pd(x, kHi, _CMP_GT_OQ));
  x = _mm256_blendv_pd(x, kLo, _mm256_cmp_pd(x, kLo, _CMP_LT_OQ));
  const __m256d t = _mm256_fmadd_pd(x, kLog2e, kShift);
  const __m256d kd = _mm256_sub_pd(t, kShift);
  __m256d r = _mm256_fnmadd_pd(kd, kLn2Hi, x);
  r = _mm256_fnmadd_pd(kd, kLn2Lo, r);
  const __m256d r2 = _mm256_mul_pd(r, r);
  const __m256d r4 = _mm256_mul_pd(r2, r2);
  const __m256d r6 = _mm256_mul_pd(r4, r2);
  const __m256d lo = _mm256_fmadd_pd(
      r4,
      _mm256_fmadd_pd(r, _mm256_set1_pd(1.0 / 120.0),
                      _mm256_set1_pd(1.0 / 24.0)),
      _mm256_fmadd_pd(
          r2,
          _mm256_fmadd_pd(r, _mm256_set1_pd(1.0 / 6.0), _mm256_set1_pd(0.5)),
          _mm256_add_pd(_mm256_set1_pd(1.0), r)));
  const __m256d hi = _mm256_fmadd_pd(
      r4,
      _mm256_fmadd_pd(r, _mm256_set1_pd(1.0 / 39916800.0),
                      _mm256_set1_pd(1.0 / 3628800.0)),
      _mm256_fmadd_pd(r2,
                      _mm256_fmadd_pd(r, _mm256_set1_pd(1.0 / 362880.0),
                                      _mm256_set1_pd(1.0 / 40320.0)),
                      _mm256_fmadd_pd(r, _mm256_set1_pd(1.0 / 5040.0),
                                      _mm256_set1_pd(1.0 / 720.0))));
  const __m256d p = _mm256_fmadd_pd(r6, hi, lo);
  // 2^k assembled in the exponent field; k is exact because t and kShift
  // share an exponent.
  const __m256i t_bits = _mm256_castpd_si256(t);
  const __m256i shift_bits = _mm256_castpd_si256(kShift);
  const __m256i k = _mm256_sub_epi64(t_bits, shift_bits);
  const __m256i scale_bits =
      _mm256_slli_epi64(_mm256_add_epi64(k, _mm256_set1_epi64x(1023)), 52);
  return _mm256_mul_pd(p, _mm256_castsi256_pd(scale_bits));
}

void VecExpAvx2(const double* in, double* out, int n) {
  UnaryLoop(in, out, n, [](__m256d x) { return ExpVec(x); });
}

// ---- row_dot -------------------------------------------------------------

double RowDotAvx2(const double* row, const double* x, int n) {
  // Vector lane m carries the scalar kernel's accumulator s_m; the main
  // loop fuses each multiply-add. The remainder is a plain scalar mul+add
  // into s0 and the combine keeps the (s0+s1)+(s2+s3) order.
  __m256d acc = _mm256_setzero_pd();
  int c = 0;
  for (; c + 4 <= n; c += 4) {
    acc = _mm256_fmadd_pd(_mm256_loadu_pd(row + c), _mm256_loadu_pd(x + c),
                          acc);
  }
  alignas(32) double s[4];
  _mm256_store_pd(s, acc);
  double s0 = s[0];
  for (; c < n; ++c) s0 += row[c] * x[c];
  return (s0 + s[1]) + (s[2] + s[3]);
}

// ---- GEMM ----------------------------------------------------------------
//
// A MR x 4*NV tile of C lives in registers for the whole k range: it is
// initialized once from beta, accumulates every k group, and is stored
// once. op(A) is read in place through its strides (a transposed A needs no
// pack) and op(B) row by row. Per element this is exactly the gemm contract
// in simd.h: t = a0*b0, FMA-chained with a1*b1, a2*b2, a3*b3, then c + t per
// group of four k; fma(a, b, c) per remainder k. The n % 4 tail columns use
// the plain mul/add chain (GemmPlainColumns). The bias is one more add on
// the accumulator before its store (add_row_broadcast's add, operands in
// its order).

// alpha * op(A)(r, p) broadcast to every lane; alpha == 1 skips the exact
// multiply.
template <bool kAlphaOne>
inline __m256d LoadA(const double* p, __m256d alpha_v) {
  const __m256d x = _mm256_broadcast_sd(p);
  return kAlphaOne ? x : _mm256_mul_pd(alpha_v, x);
}

template <int MR, int NV, bool kAlphaOne>
inline void GemmTileAvx2(int k, double alpha, const double* a, int64_t a_rs,
                         int64_t a_cs, const double* b, int64_t ldb,
                         double beta, double* c, int64_t ldc,
                         const double* bias) {
  const __m256d alpha_v = _mm256_set1_pd(alpha);
  __m256d acc[MR][NV];
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < NV; ++v) {
      if (beta == 0.0) {
        acc[r][v] = _mm256_setzero_pd();
      } else {
        acc[r][v] = _mm256_loadu_pd(c + r * ldc + 4 * v);
        if (beta != 1.0) {
          acc[r][v] = _mm256_mul_pd(_mm256_set1_pd(beta), acc[r][v]);
        }
      }
    }
  }
  int p = 0;
  for (; p + 4 <= k; p += 4) {
    const double* b0 = b + p * ldb;
    const double* b1 = b0 + ldb;
    const double* b2 = b1 + ldb;
    const double* b3 = b2 + ldb;
    for (int r = 0; r < MR; ++r) {
      const double* ar = a + r * a_rs + p * a_cs;
      const __m256d a0 = LoadA<kAlphaOne>(ar, alpha_v);
      const __m256d a1 = LoadA<kAlphaOne>(ar + a_cs, alpha_v);
      const __m256d a2 = LoadA<kAlphaOne>(ar + 2 * a_cs, alpha_v);
      const __m256d a3 = LoadA<kAlphaOne>(ar + 3 * a_cs, alpha_v);
      for (int v = 0; v < NV; ++v) {
        __m256d t = _mm256_mul_pd(a0, _mm256_loadu_pd(b0 + 4 * v));
        t = _mm256_fmadd_pd(a1, _mm256_loadu_pd(b1 + 4 * v), t);
        t = _mm256_fmadd_pd(a2, _mm256_loadu_pd(b2 + 4 * v), t);
        t = _mm256_fmadd_pd(a3, _mm256_loadu_pd(b3 + 4 * v), t);
        acc[r][v] = _mm256_add_pd(acc[r][v], t);
      }
    }
  }
  for (; p < k; ++p) {
    const double* bp = b + p * ldb;
    for (int r = 0; r < MR; ++r) {
      const __m256d ap = LoadA<kAlphaOne>(a + r * a_rs + p * a_cs, alpha_v);
      for (int v = 0; v < NV; ++v) {
        acc[r][v] =
            _mm256_fmadd_pd(ap, _mm256_loadu_pd(bp + 4 * v), acc[r][v]);
      }
    }
  }
  if (bias != nullptr) {
    for (int v = 0; v < NV; ++v) {
      const __m256d bv = _mm256_loadu_pd(bias + 4 * v);
      for (int r = 0; r < MR; ++r) acc[r][v] = _mm256_add_pd(acc[r][v], bv);
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < NV; ++v) {
      _mm256_storeu_pd(c + r * ldc + 4 * v, acc[r][v]);
    }
  }
}

// Columns [j0, j1) of MR C rows with the plain mul/add formula (this TU is
// built with -ffp-contract=off, so nothing here fuses). The MR rows of a
// column accumulate side by side for instruction-level parallelism.
template <int MR, bool kAlphaOne>
void GemmPlainColumns(int j0, int j1, int k, double alpha, const double* a,
                      int64_t a_rs, int64_t a_cs, const double* b,
                      int64_t ldb, double beta, double* c, int64_t ldc,
                      const double* bias) {
  auto scaled = [alpha](double x) { return kAlphaOne ? x : alpha * x; };
  for (int j = j0; j < j1; ++j) {
    double acc[MR];
    for (int r = 0; r < MR; ++r) {
      const double cr = beta == 0.0 ? 0.0 : c[r * ldc + j];
      acc[r] = beta == 0.0 || beta == 1.0 ? cr : beta * cr;
    }
    int p = 0;
    for (; p + 4 <= k; p += 4) {
      const double* b0 = b + p * ldb + j;
      for (int r = 0; r < MR; ++r) {
        const double* ar = a + r * a_rs + p * a_cs;
        acc[r] += scaled(ar[0]) * b0[0] + scaled(ar[a_cs]) * b0[ldb] +
                  scaled(ar[2 * a_cs]) * b0[2 * ldb] +
                  scaled(ar[3 * a_cs]) * b0[3 * ldb];
      }
    }
    for (; p < k; ++p) {
      const double bp = b[p * ldb + j];
      for (int r = 0; r < MR; ++r) {
        acc[r] += scaled(a[r * a_rs + p * a_cs]) * bp;
      }
    }
    for (int r = 0; r < MR; ++r) {
      c[r * ldc + j] = bias == nullptr ? acc[r] : acc[r] + bias[j];
    }
  }
}

// MR rows of C: 8-wide register tiles, one 4-wide tile, then the plain
// n % 4 tail.
template <int MR, bool kAlphaOne>
void GemmRowsAvx2(int n, int k, double alpha, const double* a, int64_t a_rs,
                  int64_t a_cs, const double* b, int64_t ldb, double beta,
                  double* c, int64_t ldc, const double* bias) {
  const int n4 = n & ~3;
  auto bias_at = [bias](int j) { return bias == nullptr ? bias : bias + j; };
  int j = 0;
  for (; j + 8 <= n4; j += 8) {
    GemmTileAvx2<MR, 2, kAlphaOne>(k, alpha, a, a_rs, a_cs, b + j, ldb, beta,
                                   c + j, ldc, bias_at(j));
  }
  if (j < n4) {
    GemmTileAvx2<MR, 1, kAlphaOne>(k, alpha, a, a_rs, a_cs, b + j, ldb, beta,
                                   c + j, ldc, bias_at(j));
  }
  if (n4 < n) {
    GemmPlainColumns<MR, kAlphaOne>(n4, n, k, alpha, a, a_rs, a_cs, b, ldb,
                                    beta, c, ldc, bias);
  }
}

template <bool kAlphaOne>
void GemmAvx2Impl(int m, int n, int k, double alpha, const double* a,
                  int64_t a_rs, int64_t a_cs, const double* b, int64_t ldb,
                  double beta, double* c, int64_t ldc, const double* bias) {
  int i = 0;
  for (; i + 4 <= m; i += 4) {
    GemmRowsAvx2<4, kAlphaOne>(n, k, alpha, a + i * a_rs, a_rs, a_cs, b, ldb,
                               beta, c + i * ldc, ldc, bias);
  }
  const double* ai = a + i * a_rs;
  double* ci = c + i * ldc;
  switch (m - i) {
    case 3:
      GemmRowsAvx2<3, kAlphaOne>(n, k, alpha, ai, a_rs, a_cs, b, ldb, beta,
                                 ci, ldc, bias);
      break;
    case 2:
      GemmRowsAvx2<2, kAlphaOne>(n, k, alpha, ai, a_rs, a_cs, b, ldb, beta,
                                 ci, ldc, bias);
      break;
    case 1:
      GemmRowsAvx2<1, kAlphaOne>(n, k, alpha, ai, a_rs, a_cs, b, ldb, beta,
                                 ci, ldc, bias);
      break;
  }
}

void GemmAvx2(int m, int n, int k, double alpha, const double* a,
              int64_t a_rs, int64_t a_cs, const double* b, int64_t ldb,
              double beta, double* c, int64_t ldc, const double* bias) {
  if (alpha == 1.0) {
    GemmAvx2Impl<true>(m, n, k, alpha, a, a_rs, a_cs, b, ldb, beta, c, ldc,
                       bias);
  } else {
    GemmAvx2Impl<false>(m, n, k, alpha, a, a_rs, a_cs, b, ldb, beta, c, ldc,
                        bias);
  }
}

// ---- Adam ----------------------------------------------------------------

void AdamUpdateAvx2(double* value, const double* grad, double* m, double* v,
                    int64_t n, double beta1, double beta2, double inv_bc1,
                    double inv_bc2, double eps, double lr,
                    double weight_decay) {
  const __m256d b1v = _mm256_set1_pd(beta1);
  const __m256d b2v = _mm256_set1_pd(beta2);
  const __m256d omb1 = _mm256_set1_pd(1.0 - beta1);
  const __m256d omb2 = _mm256_set1_pd(1.0 - beta2);
  const __m256d bc1 = _mm256_set1_pd(inv_bc1);
  const __m256d bc2 = _mm256_set1_pd(inv_bc2);
  const __m256d epsv = _mm256_set1_pd(eps);
  const __m256d lrv = _mm256_set1_pd(lr);
  const __m256d wdv = _mm256_set1_pd(weight_decay);
  const bool decay = weight_decay != 0.0;
  // One update of four lanes through the given load/store. The tail runs
  // the same arithmetic through masked ones, so the update is
  // position-uniform and any split of a parameter gives identical bits (the
  // simd.h adam_update contract). Dead lanes read as 0.0 (sqrt(0) and /eps
  // are benign) and are never stored.
  auto step = [&](int64_t j, auto load, auto store) {
    const __m256d g = load(grad + j);
    __m256d mj = load(m + j);
    __m256d vj = load(v + j);
    mj = _mm256_fmadd_pd(b1v, mj, _mm256_mul_pd(omb1, g));
    vj = _mm256_fmadd_pd(b2v, vj, _mm256_mul_pd(_mm256_mul_pd(omb2, g), g));
    store(m + j, mj);
    store(v + j, vj);
    const __m256d mhat = _mm256_mul_pd(mj, bc1);
    const __m256d vhat = _mm256_mul_pd(vj, bc2);
    __m256d update =
        _mm256_div_pd(mhat, _mm256_add_pd(_mm256_sqrt_pd(vhat), epsv));
    const __m256d val = load(value + j);
    if (decay) update = _mm256_fmadd_pd(wdv, val, update);
    store(value + j, _mm256_fnmadd_pd(lrv, update, val));
  };
  int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    step(j, [](const double* p) { return _mm256_loadu_pd(p); },
         [](double* p, __m256d x) { _mm256_storeu_pd(p, x); });
  }
  const int rem = static_cast<int>(n - j);
  if (rem > 0) {
    const __m256i mask = TailMask(rem);
    step(j, [mask](const double* p) { return _mm256_maskload_pd(p, mask); },
         [mask](double* p, __m256d x) { _mm256_maskstore_pd(p, mask, x); });
  }
}

// ---- ELU / tanh forwards -------------------------------------------------
//
// The expm1 core of simd.cc's Expm1Reduce, four lanes at a time: every
// _mm256_fmadd_pd here is a std::fma there and every other op is the same
// plain IEEE op, so the results are bitwise equal (see simd.cc for the
// algorithm and its error budget).

struct Expm1ReducedAvx2 {
  __m256d s, r, r_lo, r2, q;
};

inline Expm1ReducedAvx2 Expm1ReduceAvx2(__m256d x) {
  const __m256d kShift = _mm256_set1_pd(6755399441055744.0);  // 1.5 * 2^52
  const __m256d kLn2Lo = _mm256_set1_pd(1.90821492927058770002e-10);
  // max(-45, x) is (-45 > x ? -45 : x): a NaN x is returned, not clamped.
  x = _mm256_max_pd(_mm256_set1_pd(-45.0), x);
  const __m256d t =
      _mm256_fmadd_pd(x, _mm256_set1_pd(1.4426950408889634074), kShift);
  const __m256d nk = _mm256_sub_pd(kShift, t);
  const __m256d r_hi =
      _mm256_fmadd_pd(nk, _mm256_set1_pd(6.93147180369123816490e-01), x);
  Expm1ReducedAvx2 e;
  e.r = _mm256_fmadd_pd(nk, kLn2Lo, r_hi);
  e.r_lo = _mm256_fmadd_pd(nk, kLn2Lo, _mm256_sub_pd(r_hi, e.r));
  const __m256d r = e.r;
  e.r2 = _mm256_mul_pd(r, r);
  const __m256d r4 = _mm256_mul_pd(e.r2, e.r2);
  const __m256d r8 = _mm256_mul_pd(r4, r4);
  auto term = [&r](double c1, double c0) {
    return _mm256_fmadd_pd(r, _mm256_set1_pd(c1), _mm256_set1_pd(c0));
  };
  const __m256d a0 = term(1.0 / 6.0, 1.0 / 2.0);
  const __m256d a1 = term(1.0 / 120.0, 1.0 / 24.0);
  const __m256d a2 = term(1.0 / 5040.0, 1.0 / 720.0);
  const __m256d a3 = term(1.0 / 362880.0, 1.0 / 40320.0);
  const __m256d a4 = term(1.0 / 39916800.0, 1.0 / 3628800.0);
  const __m256d a5 = term(1.0 / 6227020800.0, 1.0 / 479001600.0);
  const __m256d b0 = _mm256_fmadd_pd(e.r2, a1, a0);
  const __m256d b1 = _mm256_fmadd_pd(e.r2, a3, a2);
  const __m256d b2 = _mm256_fmadd_pd(e.r2, a5, a4);
  e.q = _mm256_fmadd_pd(r8, b2, _mm256_fmadd_pd(r4, b1, b0));
  const __m256i k = _mm256_sub_epi64(_mm256_castpd_si256(t),
                                     _mm256_castpd_si256(kShift));
  e.s = _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_add_epi64(k, _mm256_set1_epi64x(1023)), 52));
  return e;
}

inline __m256d EluAvx2(__m256d x) {
  const __m256d one = _mm256_set1_pd(1.0);
  const Expm1ReducedAvx2 e = Expm1ReduceAvx2(x);
  const __m256d p = _mm256_fmadd_pd(e.r2, e.q, e.r);
  const __m256d h = _mm256_sub_pd(e.s, one);
  const __m256d l = _mm256_sub_pd(e.s, _mm256_add_pd(h, one));
  const __m256d em1 = _mm256_add_pd(_mm256_fmadd_pd(e.s, p, l), h);
  // x >= 0 ? x : expm1(x) — ordered compare, so NaN takes the expm1 lane.
  return _mm256_blendv_pd(em1, x,
                          _mm256_cmp_pd(x, _mm256_setzero_pd(), _CMP_GE_OQ));
}

inline __m256d TanhAvx2(__m256d x) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  const Expm1ReducedAvx2 e = Expm1ReduceAvx2(
      _mm256_mul_pd(_mm256_set1_pd(-2.0), _mm256_andnot_pd(sign, x)));
  const __m256d h = _mm256_sub_pd(e.s, one);
  const __m256d l = _mm256_sub_pd(e.s, _mm256_add_pd(h, one));
  const __m256d sr = _mm256_mul_pd(e.s, e.r);
  const __m256d hi = _mm256_add_pd(h, sr);
  const __m256d l2 = _mm256_sub_pd(sr, _mm256_sub_pd(hi, h));
  const __m256d lo = _mm256_fmadd_pd(
      e.s, e.r_lo,
      _mm256_fmadd_pd(e.s, _mm256_mul_pd(e.r2, e.q), _mm256_add_pd(l, l2)));
  const __m256d u = _mm256_add_pd(hi, lo);
  const __m256d u_lo = _mm256_add_pd(_mm256_sub_pd(hi, u), lo);
  const __m256d d_hi = _mm256_add_pd(hi, two);
  const __m256d d_mid =
      _mm256_add_pd(_mm256_sub_pd(hi, _mm256_sub_pd(d_hi, two)), lo);
  const __m256d d = _mm256_add_pd(d_hi, d_mid);
  const __m256d d_lo = _mm256_add_pd(_mm256_sub_pd(d_hi, d), d_mid);
  const __m256d rec = _mm256_div_pd(one, d);
  const __m256d q0 = _mm256_mul_pd(u, rec);
  const __m256d res = _mm256_add_pd(_mm256_fnmadd_pd(q0, d, u),
                                    _mm256_fnmadd_pd(q0, d_lo, u_lo));
  const __m256d t = _mm256_fmadd_pd(res, rec, q0);
  // copysign(t, x)
  return _mm256_or_pd(_mm256_andnot_pd(sign, t), _mm256_and_pd(sign, x));
}

void EluForward(const double* x, double* out, int64_t n) {
  UnaryLoop(x, out, n, [](__m256d xv) { return EluAvx2(xv); });
}

void TanhForward(const double* x, double* out, int64_t n) {
  UnaryLoop(x, out, n, [](__m256d xv) { return TanhAvx2(xv); });
}

// ---- plain elementwise kernels -------------------------------------------
//
// vec_accum .. mul_col_broadcast and ew_forward's plain ops are the scalar
// table's own loops, compiled here with this TU's flags: GCC vectorizes them
// to 256-bit code and each std::fma is one vfmadd, so these entries are the
// scalar table's arithmetic by construction (see simd_plain.inc).
#define CERL_FMA_CLONES
#include "linalg/simd_plain.inc"

// ---- mat_vec / mat_tvec_accum panels --------------------------------------

void MatVecAvx2(const double* mat, int64_t ld, const double* x, int rows,
                int cols, double* out) {
  // Rows are independent dot products; interleaving four RowDotAvx2
  // accumulator chains hides the loop-carried fmadd latency a single chain
  // exposes at the short (~44-element) row lengths of the per-stream
  // Sinkhorn solves. Each row runs exactly RowDotAvx2's operation
  // sequence — same fmadds, same tail, same (s0+s1)+(s2+s3) combine — so
  // out[r] is bitwise RowDotAvx2(row r) regardless of the blocking.
  int r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* r0 = mat + static_cast<size_t>(r) * ld;
    const double* r1 = r0 + ld;
    const double* r2 = r1 + ld;
    const double* r3 = r2 + ld;
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    int c = 0;
    for (; c + 4 <= cols; c += 4) {
      const __m256d xv = _mm256_loadu_pd(x + c);
      a0 = _mm256_fmadd_pd(_mm256_loadu_pd(r0 + c), xv, a0);
      a1 = _mm256_fmadd_pd(_mm256_loadu_pd(r1 + c), xv, a1);
      a2 = _mm256_fmadd_pd(_mm256_loadu_pd(r2 + c), xv, a2);
      a3 = _mm256_fmadd_pd(_mm256_loadu_pd(r3 + c), xv, a3);
    }
    alignas(32) double s0[4], s1[4], s2[4], s3[4];
    _mm256_store_pd(s0, a0);
    _mm256_store_pd(s1, a1);
    _mm256_store_pd(s2, a2);
    _mm256_store_pd(s3, a3);
    double t0 = s0[0], t1 = s1[0], t2 = s2[0], t3 = s3[0];
    for (; c < cols; ++c) {
      const double xc = x[c];
      t0 += r0[c] * xc;
      t1 += r1[c] * xc;
      t2 += r2[c] * xc;
      t3 += r3[c] * xc;
    }
    out[r] = (t0 + s0[1]) + (s0[2] + s0[3]);
    out[r + 1] = (t1 + s1[1]) + (s1[2] + s1[3]);
    out[r + 2] = (t2 + s2[1]) + (s2[2] + s2[3]);
    out[r + 3] = (t3 + s3[1]) + (s3[2] + s3[3]);
  }
  for (; r < rows; ++r) {
    out[r] = RowDotAvx2(mat + static_cast<size_t>(r) * ld, x, cols);
  }
}

void MatTVecAccumAvx2(const double* mat, int64_t ld, const double* u,
                      int rows, int cols, double* out) {
  // Blocked over 4 rows: out[c] still accumulates with r strictly
  // ascending per element (fma(u_r0, ·, fma-chain), each fma correctly
  // rounded), so the result is bitwise the row-at-a-time scalar reference —
  // blocking only cuts the out[] load/store traffic 4x.
  int r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* row0 = mat + static_cast<size_t>(r) * ld;
    const double* row1 = row0 + ld;
    const double* row2 = row1 + ld;
    const double* row3 = row2 + ld;
    const __m256d u0 = _mm256_set1_pd(u[r]);
    const __m256d u1 = _mm256_set1_pd(u[r + 1]);
    const __m256d u2 = _mm256_set1_pd(u[r + 2]);
    const __m256d u3 = _mm256_set1_pd(u[r + 3]);
    int j = 0;
    for (; j + 4 <= cols; j += 4) {
      __m256d acc = _mm256_loadu_pd(out + j);
      acc = _mm256_fmadd_pd(u0, _mm256_loadu_pd(row0 + j), acc);
      acc = _mm256_fmadd_pd(u1, _mm256_loadu_pd(row1 + j), acc);
      acc = _mm256_fmadd_pd(u2, _mm256_loadu_pd(row2 + j), acc);
      acc = _mm256_fmadd_pd(u3, _mm256_loadu_pd(row3 + j), acc);
      _mm256_storeu_pd(out + j, acc);
    }
    for (; j < cols; ++j) {
      double acc = out[j];
      acc = __builtin_fma(u[r], row0[j], acc);
      acc = __builtin_fma(u[r + 1], row1[j], acc);
      acc = __builtin_fma(u[r + 2], row2[j], acc);
      acc = __builtin_fma(u[r + 3], row3[j], acc);
      out[j] = acc;
    }
  }
  for (; r < rows; ++r) {
    VecAxpy(u[r], mat + static_cast<size_t>(r) * ld, out, cols);
  }
}

constexpr KernelSet kAvx2Set = {
    "avx2",          VecExpAvx2,       RowDotAvx2,
    GemmAvx2,        AdamUpdateAvx2,
    VecAccum,        VecAxpy,          VecMulAccum,
    VecAddScalar,    EwBackward,
    VecAdd,          VecSub,           VecMul,
    VecScale,        VecDivScalar,
    AddRowBroadcast, MulColBroadcast,
    MatVecAvx2,      MatTVecAccumAvx2, EwForward,
};

}  // namespace

const KernelSet* Avx2KernelSet() { return &kAvx2Set; }

}  // namespace cerl::linalg::simd

#endif  // CERL_HAVE_AVX2_KERNELS
