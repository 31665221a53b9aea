// Parity and contract tests for the runtime-dispatched SIMD kernel layer
// (linalg/simd.h): scalar-vs-AVX2 agreement with a documented ULP
// tolerance across sizes including every n % 4 remainder, the
// position-uniformity / split-invariance guarantees that batched callers
// and Adam depend on, VecExp's in == out alias contract, bitwise parity of
// the shared plain loops at IEEE edge values, short lengths, misaligned
// offsets and in-place aliasing, and same-build run-to-run determinism.
//
// ULP tolerance rationale: the AVX2 kernels keep the scalar expression
// shape but fuse each multiply-add (FMA), so every fused op can differ from
// the scalar mul-then-add by up to 1 ulp of intermediate rounding. vec_exp
// runs a fixed number (~10) of fused steps per element; observed deviation
// is <= 2 ulp, asserted <= 8. Dot products / GEMM accumulate one fused op
// per term, so the bound grows with length; asserted via relative error
// against a long-double reference instead of raw ulps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "linalg/gemm.h"
#include "linalg/ops.h"
#include "linalg/simd.h"
#include "util/rng.h"

namespace cerl::linalg::simd {
namespace {

// Sizes covering every remainder class mod 4 (and mod 8), plus sub-width
// arrays.
const int kSizes[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 64, 100, 257};

uint64_t OrderedKey(double x) {
  uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  // Map the IEEE bit pattern onto a monotonically ordered unsigned line so
  // ulp distance is a plain subtraction.
  return (u & 0x8000000000000000ull) ? 0x8000000000000000ull - (u & 0x7FFFFFFFFFFFFFFFull)
                                     : u + 0x8000000000000000ull;
}

uint64_t UlpDiff(double a, double b) {
  if (a == b) return 0;
  if (std::isnan(a) || std::isnan(b)) {
    return (std::isnan(a) && std::isnan(b)) ? 0 : ~0ull;
  }
  const uint64_t ka = OrderedKey(a);
  const uint64_t kb = OrderedKey(b);
  return ka > kb ? ka - kb : kb - ka;
}

std::vector<double> RandomVec(Rng* rng, int n, double lo, double hi) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->Uniform(lo, hi);
  return v;
}

bool ActiveIsAvx2() { return std::string(Kernels().name) == "avx2"; }

TEST(SimdDispatchTest, ResolvesOnceAndConsistently) {
  const KernelSet& a = Kernels();
  const KernelSet& b = Kernels();
  EXPECT_EQ(&a, &b) << "dispatch must resolve to one table per process";
  if (ForcedScalar() || !Avx2Available()) {
    EXPECT_STREQ(a.name, "scalar");
  } else {
    EXPECT_STREQ(a.name, "avx2");
  }
}

TEST(SimdDispatchTest, ForceScalarForTestingSwapsTables) {
  ForceScalarForTesting(true);
  EXPECT_STREQ(Kernels().name, "scalar");
  EXPECT_EQ(&Kernels(), &ScalarKernels());
  ForceScalarForTesting(false);
  if (!ForcedScalar() && Avx2Available()) {
    EXPECT_STREQ(Kernels().name, "avx2");
  }
}

// --- vec_exp -------------------------------------------------------------

TEST(VecExpKernelTest, Avx2MatchesScalarWithinUlps) {
  if (!ActiveIsAvx2()) GTEST_SKIP() << "AVX2 table not active";
  Rng rng(42);
  for (int n : kSizes) {
    // Cover the clamp edges and the interesting exponent range.
    std::vector<double> in = RandomVec(&rng, n, -720.0, 720.0);
    std::vector<double> scalar_out(n), simd_out(n);
    ScalarKernels().vec_exp(in.data(), scalar_out.data(), n);
    Kernels().vec_exp(in.data(), simd_out.data(), n);
    for (int i = 0; i < n; ++i) {
      EXPECT_LE(UlpDiff(scalar_out[i], simd_out[i]), 8u)
          << "n=" << n << " i=" << i << " in=" << in[i];
    }
  }
}

// Position-uniformity: element i's result depends only on in[i] — the
// masked AVX2 tail must be bitwise the full-width arithmetic, so batching
// many small arrays into one call changes nothing.
TEST(VecExpKernelTest, PositionUniformAcrossLengthsAndOffsets) {
  Rng rng(7);
  const std::vector<double> in = RandomVec(&rng, 257, -700.0, 700.0);
  std::vector<double> full(in.size());
  const KernelSet& ks = Kernels();
  ks.vec_exp(in.data(), full.data(), static_cast<int>(in.size()));
  for (int n : kSizes) {
    for (int offset : {0, 1, 2, 3, 5}) {
      if (offset + n > static_cast<int>(in.size())) continue;
      std::vector<double> part(n);
      ks.vec_exp(in.data() + offset, part.data(), n);
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(part[i], full[offset + i])
            << "n=" << n << " offset=" << offset << " i=" << i;
      }
    }
  }
}

// linalg::VecExp documents that in == out aliasing is part of the contract.
TEST(VecExpKernelTest, InPlaceAliasMatchesOutOfPlace) {
  Rng rng(11);
  for (int n : kSizes) {
    std::vector<double> in = RandomVec(&rng, n, -30.0, 30.0);
    std::vector<double> separate(n);
    linalg::VecExp(in.data(), separate.data(), n);
    std::vector<double> inplace = in;
    linalg::VecExp(inplace.data(), inplace.data(), n);
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(inplace[i], separate[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(VecExpKernelTest, ClampAndSpecialValues) {
  const double in[] = {-800.0, -708.0, 0.0, 708.0, 800.0, 1.0, -1.0};
  const int n = 7;
  double out[7];
  Kernels().vec_exp(in, out, n);
  EXPECT_GT(out[0], 0.0);  // clamped, not underflowed to 0
  EXPECT_TRUE(std::isfinite(out[4]));
  EXPECT_EQ(out[2], 1.0);
  EXPECT_EQ(out[0], out[1]);  // both clamp to exp(-708)
  EXPECT_EQ(out[3], out[4]);  // both clamp to exp(708)
}

// --- row_dot -------------------------------------------------------------

TEST(RowDotKernelTest, Avx2MatchesScalarWithinRelativeTolerance) {
  if (!ActiveIsAvx2()) GTEST_SKIP() << "AVX2 table not active";
  Rng rng(13);
  for (int n : kSizes) {
    std::vector<double> a = RandomVec(&rng, n, -2.0, 2.0);
    std::vector<double> b = RandomVec(&rng, n, -2.0, 2.0);
    const double s = ScalarKernels().row_dot(a.data(), b.data(), n);
    const double v = Kernels().row_dot(a.data(), b.data(), n);
    long double ref = 0.0L;
    for (int i = 0; i < n; ++i) {
      ref += static_cast<long double>(a[i]) * b[i];
    }
    const double scale = std::max(1.0, std::fabs(static_cast<double>(ref)));
    EXPECT_NEAR(s, v, 1e-13 * scale) << "n=" << n;
  }
}

// --- gemm ---------------------------------------------------------------

TEST(GemmKernelTest, Avx2GemmMatchesScalarWithinTolerance) {
  if (!ActiveIsAvx2()) GTEST_SKIP() << "AVX2 table not active";
  Rng rng(19);
  for (int m : {1, 2, 3, 5}) {
    for (int kw : {1, 2, 3, 4, 5, 8, 13, 32}) {
      for (int nw : {1, 2, 3, 4, 5, 7, 16, 33}) {
        std::vector<double> a = RandomVec(&rng, m * kw, -1.0, 1.0);
        std::vector<double> bp = RandomVec(&rng, kw * nw, -1.0, 1.0);
        std::vector<double> cs = RandomVec(&rng, m * nw, -1.0, 1.0);
        std::vector<double> cv = cs;
        const double alpha = 1.25;
        ScalarKernels().gemm(m, nw, kw, alpha, a.data(), kw, 1, bp.data(), nw,
                             1.0, cs.data(), nw, nullptr);
        Kernels().gemm(m, nw, kw, alpha, a.data(), kw, 1, bp.data(), nw, 1.0,
                       cv.data(), nw, nullptr);
        for (int j = 0; j < m * nw; ++j) {
          EXPECT_NEAR(cs[j], cv[j], 1e-13 * kw)
              << "m=" << m << " kw=" << kw << " nw=" << nw;
        }
      }
    }
  }
}

// --- adam_update ---------------------------------------------------------

TEST(AdamKernelTest, Avx2MatchesScalarWithinTolerance) {
  if (!ActiveIsAvx2()) GTEST_SKIP() << "AVX2 table not active";
  Rng rng(23);
  for (int64_t n : {int64_t{1}, int64_t{3}, int64_t{4}, int64_t{7},
                    int64_t{64}, int64_t{101}}) {
    const int ni = static_cast<int>(n);
    std::vector<double> value = RandomVec(&rng, ni, -1.0, 1.0);
    std::vector<double> grad = RandomVec(&rng, ni, -1.0, 1.0);
    std::vector<double> m = RandomVec(&rng, ni, -0.1, 0.1);
    std::vector<double> v = RandomVec(&rng, ni, 0.0, 0.1);
    auto vs = value, ms = m, vvs = v;
    auto vv = value, mv = m, vvv = v;
    ScalarKernels().adam_update(vs.data(), grad.data(), ms.data(), vvs.data(),
                                n, 0.9, 0.999, 1.0 / (1 - 0.9),
                                1.0 / (1 - 0.999), 1e-8, 1e-3, 0.01);
    Kernels().adam_update(vv.data(), grad.data(), mv.data(), vvv.data(), n,
                          0.9, 0.999, 1.0 / (1 - 0.9), 1.0 / (1 - 0.999),
                          1e-8, 1e-3, 0.01);
    for (int i = 0; i < ni; ++i) {
      EXPECT_NEAR(vs[i], vv[i], 1e-15) << "n=" << n << " i=" << i;
      EXPECT_NEAR(ms[i], mv[i], 1e-15);
      EXPECT_NEAR(vvs[i], vvv[i], 1e-15);
    }
  }
}

// Split invariance (the simd.h adam_update contract): updating [0, n) in
// one call is bitwise identical to updating it in two chunks at ANY split
// point — including splits that land mid-vector-width.
TEST(AdamKernelTest, RangeSplitInvariant) {
  Rng rng(29);
  const int n = 37;
  const std::vector<double> value0 = RandomVec(&rng, n, -1.0, 1.0);
  const std::vector<double> grad = RandomVec(&rng, n, -1.0, 1.0);
  const std::vector<double> m0 = RandomVec(&rng, n, -0.1, 0.1);
  const std::vector<double> v0 = RandomVec(&rng, n, 0.0, 0.1);
  const KernelSet& ks = Kernels();
  auto run_whole = [&](std::vector<double>* val, std::vector<double>* m,
                       std::vector<double>* v) {
    ks.adam_update(val->data(), grad.data(), m->data(), v->data(), n, 0.9,
                   0.999, 1.111, 1.001, 1e-8, 1e-3, 0.0);
  };
  std::vector<double> val_a = value0, m_a = m0, v_a = v0;
  run_whole(&val_a, &m_a, &v_a);
  for (int split : {1, 2, 3, 4, 5, 17, 36}) {
    std::vector<double> val_b = value0, m_b = m0, v_b = v0;
    ks.adam_update(val_b.data(), grad.data(), m_b.data(), v_b.data(), split,
                   0.9, 0.999, 1.111, 1.001, 1e-8, 1e-3, 0.0);
    ks.adam_update(val_b.data() + split, grad.data() + split,
                   m_b.data() + split, v_b.data() + split, n - split, 0.9,
                   0.999, 1.111, 1.001, 1e-8, 1e-3, 0.0);
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(val_a[i], val_b[i]) << "split=" << split << " i=" << i;
      EXPECT_EQ(m_a[i], m_b[i]) << "split=" << split << " i=" << i;
      EXPECT_EQ(v_a[i], v_b[i]) << "split=" << split << " i=" << i;
    }
  }
}

// --- elementwise accumulation / whole-array kernels ----------------------
//
// Contract (simd.h): every kernel in this family computes each output
// element with plain individually-rounded IEEE ops or a correctly-rounded
// std::fma, so the scalar and AVX2 tables must agree BITWISE at every size,
// including all n % 4 remainders.

TEST(ElementwiseKernelTest, CrossTableBitwiseIdentical) {
  Rng rng(37);
  const KernelSet& sc = ScalarKernels();
  const KernelSet& ac = Kernels();
  for (int n : kSizes) {
    const std::vector<double> x1 = RandomVec(&rng, n, -3.0, 3.0);
    const std::vector<double> x2 = RandomVec(&rng, n, 0.5, 3.0);  // nonzero
    const std::vector<double> y0 = RandomVec(&rng, n, -1.0, 1.0);
    const double a = 1.7;

    auto expect_eq = [&](const std::vector<double>& s,
                         const std::vector<double>& v, const char* kernel) {
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(s[i], v[i]) << kernel << " n=" << n << " i=" << i;
      }
    };
    std::vector<double> s = y0, v = y0;
    sc.vec_accum(x1.data(), s.data(), n);
    ac.vec_accum(x1.data(), v.data(), n);
    expect_eq(s, v, "vec_accum");

    s = y0, v = y0;
    sc.vec_axpy(a, x1.data(), s.data(), n);
    ac.vec_axpy(a, x1.data(), v.data(), n);
    expect_eq(s, v, "vec_axpy");

    s = y0, v = y0;
    sc.vec_mul_accum(x1.data(), x2.data(), s.data(), n);
    ac.vec_mul_accum(x1.data(), x2.data(), v.data(), n);
    expect_eq(s, v, "vec_mul_accum");

    s = y0, v = y0;
    sc.vec_add_scalar(a, s.data(), n);
    ac.vec_add_scalar(a, v.data(), n);
    expect_eq(s, v, "vec_add_scalar");

    s.assign(n, 0.0), v.assign(n, 0.0);
    sc.vec_add(x1.data(), x2.data(), s.data(), n);
    ac.vec_add(x1.data(), x2.data(), v.data(), n);
    expect_eq(s, v, "vec_add");

    sc.vec_sub(x1.data(), x2.data(), s.data(), n);
    ac.vec_sub(x1.data(), x2.data(), v.data(), n);
    expect_eq(s, v, "vec_sub");

    sc.vec_mul(x1.data(), x2.data(), s.data(), n);
    ac.vec_mul(x1.data(), x2.data(), v.data(), n);
    expect_eq(s, v, "vec_mul");

    sc.vec_scale(a, x1.data(), s.data(), n);
    ac.vec_scale(a, x1.data(), v.data(), n);
    expect_eq(s, v, "vec_scale");

    sc.vec_div_scalar(a, x2.data(), s.data(), n);
    ac.vec_div_scalar(a, x2.data(), v.data(), n);
    expect_eq(s, v, "vec_div_scalar");
  }
}

TEST(EwForwardKernelTest, CrossTableBitwiseAndFormulaExact) {
  Rng rng(41);
  const KernelSet& sc = ScalarKernels();
  const KernelSet& ac = Kernels();
  for (int n : kSizes) {
    for (EwFwd op : {EwFwd::kReciprocal, EwFwd::kRelu, EwFwd::kSqrt,
                     EwFwd::kSquare, EwFwd::kAbs}) {
      // Positive inputs where the formula needs them (1/x, sqrt).
      const bool positive = op == EwFwd::kReciprocal || op == EwFwd::kSqrt;
      const std::vector<double> x =
          RandomVec(&rng, n, positive ? 0.1 : -2.0, 2.0);
      std::vector<double> s(n), v(n);
      sc.ew_forward(static_cast<int>(op), x.data(), s.data(), n);
      ac.ew_forward(static_cast<int>(op), x.data(), v.data(), n);
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(s[i], v[i])
            << "ew_forward op=" << static_cast<int>(op) << " n=" << n;
        // Spot-check the documented formula against plain C++.
        double ref = 0.0;
        switch (op) {
          case EwFwd::kReciprocal: ref = 1.0 / x[i]; break;
          case EwFwd::kRelu: ref = x[i] > 0.0 ? x[i] : 0.0; break;
          case EwFwd::kSqrt: ref = std::sqrt(x[i]); break;
          case EwFwd::kSquare: ref = x[i] * x[i]; break;
          case EwFwd::kAbs: ref = std::fabs(x[i]); break;
          case EwFwd::kNone:
            FAIL() << "kNone is not an ew_forward op";
          case EwFwd::kElu:
          case EwFwd::kTanh:
            FAIL() << "approximations: see activation_oracle_test.cc";
        }
        EXPECT_EQ(s[i], ref)
            << "ew_forward formula op=" << static_cast<int>(op);
      }
    }
  }
}

TEST(EwBackwardKernelTest, CrossTableBitwiseIdenticalAllOps) {
  Rng rng(43);
  const KernelSet& sc = ScalarKernels();
  const KernelSet& ac = Kernels();
  const EwGrad ops[] = {EwGrad::kReciprocal, EwGrad::kRelu, EwGrad::kElu,
                        EwGrad::kTanh,       EwGrad::kSigmoid, EwGrad::kExp,
                        EwGrad::kLog,        EwGrad::kSqrt,   EwGrad::kSquare,
                        EwGrad::kAbs};
  for (int n : kSizes) {
    for (EwGrad op : ops) {
      const bool positive = op == EwGrad::kLog || op == EwGrad::kSqrt ||
                            op == EwGrad::kReciprocal;
      const std::vector<double> x =
          RandomVec(&rng, n, positive ? 0.1 : -2.0, 2.0);
      const std::vector<double> g = RandomVec(&rng, n, -1.0, 1.0);
      std::vector<double> y(n);
      for (int i = 0; i < n; ++i) {
        switch (op) {  // y = forward(x), as autodiff records it.
          case EwGrad::kReciprocal: y[i] = 1.0 / x[i]; break;
          case EwGrad::kRelu: y[i] = x[i] > 0.0 ? x[i] : 0.0; break;
          case EwGrad::kElu: y[i] = x[i] > 0.0 ? x[i] : std::expm1(x[i]); break;
          case EwGrad::kTanh: y[i] = std::tanh(x[i]); break;
          case EwGrad::kSigmoid: y[i] = 1.0 / (1.0 + std::exp(-x[i])); break;
          case EwGrad::kExp: y[i] = std::exp(x[i]); break;
          case EwGrad::kLog: y[i] = std::log(x[i]); break;
          case EwGrad::kSqrt: y[i] = std::sqrt(x[i]); break;
          case EwGrad::kSquare: y[i] = x[i] * x[i]; break;
          case EwGrad::kAbs: y[i] = std::fabs(x[i]); break;
        }
      }
      const std::vector<double> ga0 = RandomVec(&rng, n, -0.5, 0.5);
      std::vector<double> s = ga0, v = ga0;
      sc.ew_backward(static_cast<int>(op), g.data(), x.data(), y.data(),
                     s.data(), n);
      ac.ew_backward(static_cast<int>(op), g.data(), x.data(), y.data(),
                     v.data(), n);
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(s[i], v[i])
            << "ew_backward op=" << static_cast<int>(op) << " n=" << n
            << " i=" << i;
      }
    }
  }
}

TEST(BroadcastKernelTest, CrossTableBitwiseIdentical) {
  Rng rng(47);
  const KernelSet& sc = ScalarKernels();
  const KernelSet& ac = Kernels();
  for (int rows : {1, 2, 3, 5, 8}) {
    for (int cols : {1, 2, 3, 4, 5, 7, 16, 33}) {
      const std::vector<double> a = RandomVec(&rng, rows * cols, -2.0, 2.0);
      const std::vector<double> bias = RandomVec(&rng, cols, -1.0, 1.0);
      const std::vector<double> scale = RandomVec(&rng, rows, -1.0, 1.0);
      std::vector<double> s(rows * cols), v(rows * cols);
      sc.add_row_broadcast(a.data(), bias.data(), rows, cols, s.data());
      ac.add_row_broadcast(a.data(), bias.data(), rows, cols, v.data());
      for (int i = 0; i < rows * cols; ++i) {
        EXPECT_EQ(s[i], v[i]) << "add_row_broadcast " << rows << "x" << cols;
      }
      sc.mul_col_broadcast(a.data(), scale.data(), rows, cols, s.data());
      ac.mul_col_broadcast(a.data(), scale.data(), rows, cols, v.data());
      for (int i = 0; i < rows * cols; ++i) {
        EXPECT_EQ(s[i], v[i]) << "mul_col_broadcast " << rows << "x" << cols;
      }
    }
  }
}

// --- the shared loops at the edges --------------------------------------
//
// The plain kernels are one source compiled into both tables
// (simd_plain.inc), so these cases push them where a vectorized loop and
// its scalar epilogue part ways: every length 0..9 at four pointer offsets
// from a 32-byte boundary (each body/epilogue split and misalignment), full
// in-place aliasing, and the IEEE corner values — signed zeros, infinities,
// NaN, subnormals and inputs either side of 0 for the compare-selects.

// Bitwise equality, except that any two NaNs match: when NaN operands meet,
// which payload the result carries is up to the hardware, not IEEE.
bool SameBits(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

const double kEdgePool[] = {
    0.0, -0.0, std::numeric_limits<double>::infinity(),
    -std::numeric_limits<double>::infinity(),
    std::numeric_limits<double>::quiet_NaN(),
    std::numeric_limits<double>::denorm_min(),
    -std::numeric_limits<double>::denorm_min(),
    std::numeric_limits<double>::min() / 3.0,   // subnormal
    -std::numeric_limits<double>::min() / 3.0,
    std::numeric_limits<double>::min(), 1e-300, -1e-300, 1.0, -1.0, 0.5,
    -2.5, 3.0, 1e300, -1e300};

constexpr int kEdgeLen = 16;  // >= 3 (offset) + 9 (n) + guard elements

// Three arrays on 32-byte boundaries; a kernel call reads/writes elements
// [offset, offset + n) of them and must leave the rest as it found them.
struct EdgeBufs {
  alignas(32) double v[3][kEdgeLen];
};

// Every element drawn from kEdgePool, or (one time in four) uniform on
// [-4, 4], so neighbouring lanes see different corner values.
EdgeBufs RandomEdgeBufs(Rng* rng) {
  EdgeBufs b;
  const int pool = static_cast<int>(sizeof(kEdgePool) / sizeof(kEdgePool[0]));
  for (auto& row : b.v) {
    for (double& x : row) {
      const int pick = static_cast<int>(rng->Uniform(0.0, pool * 4.0 / 3.0));
      x = pick < pool ? kEdgePool[pick] : rng->Uniform(-4.0, 4.0);
    }
  }
  return b;
}

// Runs call(table, p0, p1, p2) with p_k = buffer k + offset on the scalar
// table and on the active one, each over its own copy of `init`, and
// expects the two results bitwise equal everywhere and the elements outside
// [offset, offset + n) untouched.
template <typename Call>
void ExpectTablesAgree(const EdgeBufs& init, int offset, int n,
                       const std::string& what, Call call) {
  EdgeBufs s = init, v = init;
  call(ScalarKernels(), s.v[0] + offset, s.v[1] + offset, s.v[2] + offset);
  call(Kernels(), v.v[0] + offset, v.v[1] + offset, v.v[2] + offset);
  for (int b = 0; b < 3; ++b) {
    for (int i = 0; i < kEdgeLen; ++i) {
      EXPECT_TRUE(SameBits(s.v[b][i], v.v[b][i]))
          << what << " n=" << n << " offset=" << offset << " buf=" << b
          << " i=" << i << ": scalar " << s.v[b][i] << " vs " << Kernels().name
          << " " << v.v[b][i];
      if (i < offset || i >= offset + n) {
        EXPECT_TRUE(SameBits(init.v[b][i], v.v[b][i]))
            << what << " wrote outside its range: n=" << n
            << " offset=" << offset << " buf=" << b << " i=" << i;
      }
    }
  }
}

// Each (length, offset) pair runs kEdgeTrials random edge-value fillings.
constexpr int kEdgeTrials = 12;

template <typename Body>
void ForEachEdgeCase(uint64_t seed, Body body) {
  Rng rng(seed);
  for (int n = 0; n <= 9; ++n) {
    for (int offset = 0; offset < 4; ++offset) {
      for (int t = 0; t < kEdgeTrials; ++t) {
        const EdgeBufs init = RandomEdgeBufs(&rng);
        const double a = init.v[2][kEdgeLen - 1];  // an edge-valued scalar
        body(init, offset, n, a);
      }
    }
  }
}

TEST(ElementwiseKernelTest, EdgeValuesEveryLengthOffsetAndInPlace) {
  using KS = KernelSet;
  ForEachEdgeCase(71, [](const EdgeBufs& init, int off, int n, double a) {
    auto agree = [&](const char* what, auto call) {
      ExpectTablesAgree(init, off, n, what, call);
    };
    agree("vec_accum", [&](const KS& k, double* x, double* y, double*) {
      k.vec_accum(x, y, n);
    });
    agree("vec_accum y+=y", [&](const KS& k, double* y, double*, double*) {
      k.vec_accum(y, y, n);
    });
    agree("vec_axpy", [&](const KS& k, double* x, double* y, double*) {
      k.vec_axpy(a, x, y, n);
    });
    agree("vec_axpy in place", [&](const KS& k, double* y, double*, double*) {
      k.vec_axpy(a, y, y, n);
    });
    agree("vec_mul_accum", [&](const KS& k, double* x1, double* x2,
                               double* y) { k.vec_mul_accum(x1, x2, y, n); });
    agree("vec_mul_accum in place",
          [&](const KS& k, double* y, double*, double*) {
            k.vec_mul_accum(y, y, y, n);
          });
    agree("vec_add_scalar", [&](const KS& k, double* y, double*, double*) {
      k.vec_add_scalar(a, y, n);
    });
    using Binary = void (*)(const double*, const double*, double*, int64_t);
    const std::pair<const char*, Binary KS::*> binaries[] = {
        {"vec_add", &KS::vec_add},
        {"vec_sub", &KS::vec_sub},
        {"vec_mul", &KS::vec_mul}};
    for (const auto& [name, fn] : binaries) {
      agree(name, [&, fn = fn](const KS& k, double* x1, double* x2,
                               double* out) { (k.*fn)(x1, x2, out, n); });
      agree(name, [&, fn = fn](const KS& k, double* x1, double* x2, double*) {
        (k.*fn)(x1, x2, x1, n);  // out == x1
      });
      agree(name, [&, fn = fn](const KS& k, double* x1, double* x2, double*) {
        (k.*fn)(x1, x2, x2, n);  // out == x2
      });
      agree(name, [&, fn = fn](const KS& k, double* x, double*, double*) {
        (k.*fn)(x, x, x, n);  // all three the same array
      });
    }
    agree("vec_scale", [&](const KS& k, double* x, double* out, double*) {
      k.vec_scale(a, x, out, n);
    });
    agree("vec_scale in place", [&](const KS& k, double* x, double*,
                                    double*) { k.vec_scale(a, x, x, n); });
    agree("vec_div_scalar", [&](const KS& k, double* x, double* out,
                                double*) { k.vec_div_scalar(a, x, out, n); });
    agree("vec_div_scalar in place",
          [&](const KS& k, double* x, double*, double*) {
            k.vec_div_scalar(a, x, x, n);
          });
  });
}

// Every EwFwd op, the ELU/tanh approximations included (their contract is
// the same bits in both tables), out of place and with out == x.
TEST(EwForwardKernelTest, EdgeValuesEveryLengthOffsetAndInPlace) {
  ForEachEdgeCase(73, [](const EdgeBufs& init, int off, int n, double) {
    for (int op = static_cast<int>(EwFwd::kReciprocal);
         op <= static_cast<int>(EwFwd::kTanh); ++op) {
      const std::string what = "ew_forward op=" + std::to_string(op);
      ExpectTablesAgree(init, off, n, what,
                        [&](const KernelSet& k, double* x, double* out,
                            double*) { k.ew_forward(op, x, out, n); });
      ExpectTablesAgree(init, off, n, what + " in place",
                        [&](const KernelSet& k, double* x, double*, double*) {
                          k.ew_forward(op, x, x, n);
                        });
    }
  });
}

// Every EwGrad op with g, x, y and ga all drawn from the edge pool (y is not
// forward(x) here: the formulas are total functions of (x, y), and the
// compare-selects must agree on whatever they are given), plus ga == g and
// x == y aliasing.
TEST(EwBackwardKernelTest, EdgeValuesEveryLengthOffsetAndInPlace) {
  ForEachEdgeCase(79, [](const EdgeBufs& init, int off, int n, double) {
    for (int op = static_cast<int>(EwGrad::kReciprocal);
         op <= static_cast<int>(EwGrad::kAbs); ++op) {
      const std::string what = "ew_backward op=" + std::to_string(op);
      // g and x share buffer 0 (g = x), y is buffer 1, ga buffer 2.
      ExpectTablesAgree(init, off, n, what,
                        [&](const KernelSet& k, double* gx, double* y,
                            double* ga) { k.ew_backward(op, gx, gx, y, ga, n); });
      ExpectTablesAgree(init, off, n, what + " x == y",
                        [&](const KernelSet& k, double* g, double* xy,
                            double* ga) { k.ew_backward(op, g, xy, xy, ga, n); });
      ExpectTablesAgree(init, off, n, what + " ga == g",
                        [&](const KernelSet& k, double* g, double* x,
                            double* y) { k.ew_backward(op, g, x, y, g, n); });
    }
  });
}

// Broadcasts over rows x cols with cols 0..9: the row length is the vector
// loop's trip count, so each row hits the same body/epilogue split. Every
// array starts `offset` elements past a 32-byte boundary; out == a in place
// as well.
TEST(BroadcastKernelTest, EdgeValuesEveryWidthOffsetAndInPlace) {
  constexpr int kMaxRows = 3;
  constexpr int kLen = 3 + kMaxRows * 9 + 2;  // offset + block + guard
  struct Block {
    alignas(32) double a[kLen];
    alignas(32) double out[kLen];
    alignas(32) double vec[kLen];
  };
  const int pool = static_cast<int>(sizeof(kEdgePool) / sizeof(kEdgePool[0]));
  Rng rng(83);
  for (int rows = 1; rows <= kMaxRows; ++rows) {
    for (int cols = 0; cols <= 9; ++cols) {
      for (int offset = 0; offset < 4; ++offset) {
        for (int t = 0; t < kEdgeTrials; ++t) {
          Block init;
          for (double* arr : {init.a, init.out, init.vec}) {
            for (int i = 0; i < kLen; ++i) {
              const int pick =
                  static_cast<int>(rng.Uniform(0.0, pool * 4.0 / 3.0));
              arr[i] = pick < pool ? kEdgePool[pick] : rng.Uniform(-4.0, 4.0);
            }
          }
          auto check = [&](const char* what, auto call) {
            Block s = init, v = init;
            call(ScalarKernels(), &s);
            call(Kernels(), &v);
            for (int i = 0; i < kLen; ++i) {
              EXPECT_TRUE(SameBits(s.out[i], v.out[i]) &&
                          SameBits(s.a[i], v.a[i]))
                  << what << " " << rows << "x" << cols
                  << " offset=" << offset << " i=" << i;
              if (i < offset || i >= offset + rows * cols) {
                EXPECT_TRUE(SameBits(init.out[i], v.out[i]) &&
                            SameBits(init.a[i], v.a[i]))
                    << what << " wrote outside its block: " << rows << "x"
                    << cols << " offset=" << offset << " i=" << i;
              }
            }
          };
          const int o = offset;
          check("add_row_broadcast", [&](const KernelSet& k, Block* m) {
            k.add_row_broadcast(m->a + o, m->vec + o, rows, cols, m->out + o);
          });
          check("add_row_broadcast in place", [&](const KernelSet& k,
                                                  Block* m) {
            k.add_row_broadcast(m->a + o, m->vec + o, rows, cols, m->a + o);
          });
          check("mul_col_broadcast", [&](const KernelSet& k, Block* m) {
            k.mul_col_broadcast(m->a + o, m->vec + o, rows, cols, m->out + o);
          });
          check("mul_col_broadcast in place", [&](const KernelSet& k,
                                                  Block* m) {
            k.mul_col_broadcast(m->a + o, m->vec + o, rows, cols, m->a + o);
          });
        }
      }
    }
  }
}

// --- the gemm epilogue ----------------------------------------------------
//
// A dense layer act(x W + b) is one linalg::Gemm call: the kernel adds the
// bias before its store, then Gemm runs ew_forward over C. Both must be
// bitwise the passes a dense layer ran before: the bias-free gemm, then
// add_row_broadcast, then ew_forward. The grid covers every m % 4 and
// n % 4 class (the AVX2 table's row blocks, its 8- and 4-wide tiles and
// its plain tail columns), n = 1, the k % 4 remainders, and k = 0, where C
// reaches the epilogue as given, so the edge values of C and the bias meet
// the bias add and the activation directly. A, B, C and the bias mix
// uniform values with the edge pool (signed zeros, infinities, NaN,
// subnormals).
struct EpilogueCase {
  int m, n, k;
  double alpha;
  std::vector<double> a, b, bias, c;
};

template <typename Fn>
void ForEachEpilogueCase(Fn fn) {
  const int pool = static_cast<int>(sizeof(kEdgePool) / sizeof(kEdgePool[0]));
  Rng rng(89);
  auto fill = [&](std::vector<double>* v) {
    for (double& x : *v) {
      const int pick = static_cast<int>(rng.Uniform(0.0, pool * 6.0));
      x = pick < pool ? kEdgePool[pick] : rng.Uniform(-3.0, 3.0);
    }
  };
  for (int m : {1, 2, 3, 4, 5, 6, 7, 8, 9}) {
    for (int n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 16, 17}) {
      for (int k : {0, 1, 2, 4, 5, 9}) {
        EpilogueCase t{m, n, k, (m + n + k) % 2 == 0 ? 1.0 : -0.75,
                       std::vector<double>(m * k), std::vector<double>(k * n),
                       std::vector<double>(n), std::vector<double>(m * n)};
        fill(&t.a);
        fill(&t.b);
        fill(&t.bias);
        fill(&t.c);
        for (double beta : {0.0, 1.0, 0.5}) fn(t, beta);
      }
    }
  }
}

// The kernel's bias, in both tables, with C packed and with a padded row
// stride whose padding must come back untouched.
TEST(GemmEpilogueKernelTest, BiasBitwiseEqualsAddRowBroadcastInBothTables) {
  const KernelSet* sets[] = {&ScalarKernels(), &Kernels()};
  ForEachEpilogueCase([&](const EpilogueCase& t, double beta) {
    for (const KernelSet* ks : sets) {
      for (int pad : {0, 3}) {
        const int ldc = t.n + pad;
        std::vector<double> c0(t.m * ldc);
        for (int i = 0; i < t.m * ldc; ++i) {
          c0[i] = i % ldc < t.n ? t.c[i / ldc * t.n + i % ldc] : 7.0 + i;
        }
        std::vector<double> want = c0;
        ks->gemm(t.m, t.n, t.k, t.alpha, t.a.data(), t.k, 1, t.b.data(), t.n,
                 beta, want.data(), ldc, nullptr);
        for (int r = 0; r < t.m; ++r) {
          double* row = want.data() + r * ldc;
          ks->add_row_broadcast(row, t.bias.data(), 1, t.n, row);
        }
        std::vector<double> got = c0;
        ks->gemm(t.m, t.n, t.k, t.alpha, t.a.data(), t.k, 1, t.b.data(), t.n,
                 beta, got.data(), ldc, t.bias.data());
        for (int i = 0; i < t.m * ldc; ++i) {
          const bool padding = i % ldc >= t.n;
          if (!SameBits(got[i], want[i]) ||
              (padding && !SameBits(got[i], c0[i]))) {
            ADD_FAILURE() << ks->name << " m=" << t.m << " n=" << t.n
                          << " k=" << t.k << " beta=" << beta
                          << " ldc=" << ldc << " row=" << i / ldc
                          << " col=" << i % ldc << ": bias " << got[i]
                          << " vs pass " << want[i];
            return;
          }
        }
      }
    }
  });
}

// linalg::Gemm with {bias, act} against Gemm, add_row_broadcast and
// ew_forward, in both tables, for none/ELU/tanh with and without a bias.
TEST(GemmEpilogueTest, BitwiseEqualsSeparatePassesInBothTables) {
  for (bool scalar : {true, false}) {
    ForceScalarForTesting(scalar);
    const KernelSet& ks = Kernels();
    ForEachEpilogueCase([&](const EpilogueCase& t, double beta) {
      const Matrix a = Matrix::FromData(t.m, t.k, t.a);
      const Matrix b = Matrix::FromData(t.k, t.n, t.b);
      const Matrix c0 = Matrix::FromData(t.m, t.n, t.c);
      for (bool with_bias : {false, true}) {
        for (EwFwd act : {EwFwd::kNone, EwFwd::kElu, EwFwd::kTanh}) {
          Matrix want = c0;
          Gemm(Trans::kNo, Trans::kNo, t.alpha, a, b, beta, &want);
          if (with_bias) {
            ks.add_row_broadcast(want.data(), t.bias.data(), t.m, t.n,
                                 want.data());
          }
          if (act != EwFwd::kNone) {
            ks.ew_forward(static_cast<int>(act), want.data(), want.data(),
                          want.size());
          }
          Matrix got = c0;
          Gemm(Trans::kNo, Trans::kNo, t.alpha, a, b, beta, &got,
               {with_bias ? t.bias.data() : nullptr, act});
          for (int64_t i = 0; i < got.size(); ++i) {
            if (!SameBits(got.data()[i], want.data()[i])) {
              ADD_FAILURE() << ks.name << " m=" << t.m << " n=" << t.n
                            << " k=" << t.k << " beta=" << beta
                            << " bias=" << with_bias
                            << " act=" << static_cast<int>(act)
                            << " i=" << i << ": epilogue " << got.data()[i]
                            << " vs passes " << want.data()[i];
              return;
            }
          }
        }
      }
    });
  }
  ForceScalarForTesting(false);
}

// --- mat_vec / mat_tvec_accum panels -------------------------------------

// Each mat_vec output row must be bitwise the row_dot of the SAME table —
// this pins the row-interleaved AVX2 implementation (including its
// rows % 4 remainder) to the single-row kernel it replays.
TEST(MatVecKernelTest, EachRowBitwiseEqualsRowDotSameTable) {
  Rng rng(53);
  const KernelSet* sets[] = {&Kernels(), &ScalarKernels()};
  for (const KernelSet* ks : sets) {
    for (int rows : {1, 2, 3, 4, 5, 7, 8, 9}) {
      for (int cols : {1, 3, 4, 5, 8, 17, 44}) {
        const std::vector<double> mat =
            RandomVec(&rng, rows * cols, -2.0, 2.0);
        const std::vector<double> x = RandomVec(&rng, cols, -2.0, 2.0);
        std::vector<double> out(rows);
        ks->mat_vec(mat.data(), cols, x.data(), rows, cols, out.data());
        for (int r = 0; r < rows; ++r) {
          const double solo = ks->row_dot(mat.data() + r * cols, x.data(),
                                          cols);
          EXPECT_EQ(out[r], solo)
              << ks->name << " rows=" << rows << " cols=" << cols
              << " r=" << r;
        }
      }
    }
  }
}

TEST(MatVecKernelTest, Avx2MatchesScalarWithinRelativeTolerance) {
  if (!ActiveIsAvx2()) GTEST_SKIP() << "AVX2 table not active";
  Rng rng(59);
  for (int rows : {1, 3, 5, 9}) {
    for (int cols : {4, 7, 31, 100}) {
      const std::vector<double> mat = RandomVec(&rng, rows * cols, -2.0, 2.0);
      const std::vector<double> x = RandomVec(&rng, cols, -2.0, 2.0);
      std::vector<double> s(rows), v(rows);
      ScalarKernels().mat_vec(mat.data(), cols, x.data(), rows, cols,
                              s.data());
      Kernels().mat_vec(mat.data(), cols, x.data(), rows, cols, v.data());
      for (int r = 0; r < rows; ++r) {
        long double ref = 0.0L;
        for (int c = 0; c < cols; ++c) {
          ref += static_cast<long double>(mat[r * cols + c]) * x[c];
        }
        const double scale = std::max(1.0, std::fabs(static_cast<double>(ref)));
        EXPECT_NEAR(s[r], v[r], 1e-13 * scale) << rows << "x" << cols;
      }
    }
  }
}

// mat_tvec_accum uses correctly-rounded fma with r strictly ascending in
// both tables: bitwise cross-table, bitwise equal to the reference loop,
// and independent of column-range and row-panel splits. It accumulates into
// out without zero-filling it; every `out` below starts at zero.
TEST(MatTVecAccumKernelTest, CrossTableReferenceAndColumnSplitExact) {
  Rng rng(61);
  for (int rows : {1, 2, 3, 4, 5, 9, 21}) {
    for (int cols : {1, 2, 4, 5, 7, 16, 44}) {
      const std::vector<double> mat = RandomVec(&rng, rows * cols, -2.0, 2.0);
      const std::vector<double> u = RandomVec(&rng, rows, -2.0, 2.0);
      std::vector<double> ref(cols, 0.0);
      for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
          ref[c] = std::fma(u[r], mat[r * cols + c], ref[c]);
        }
      }
      std::vector<double> s(cols), v(cols);
      ScalarKernels().mat_tvec_accum(mat.data(), cols, u.data(), rows, cols,
                                     s.data());
      Kernels().mat_tvec_accum(mat.data(), cols, u.data(), rows, cols,
                               v.data());
      for (int c = 0; c < cols; ++c) {
        EXPECT_EQ(ref[c], s[c]) << "scalar " << rows << "x" << cols;
        EXPECT_EQ(ref[c], v[c]) << "active " << rows << "x" << cols;
      }
      // Column-split invariance at every boundary (mid-vector included).
      for (int split = 1; split < cols; ++split) {
        std::vector<double> part(cols);
        Kernels().mat_tvec_accum(mat.data(), cols, u.data(), rows, split,
                                 part.data());
        Kernels().mat_tvec_accum(mat.data() + split, cols, u.data(), rows,
                                 cols - split, part.data() + split);
        for (int c = 0; c < cols; ++c) {
          EXPECT_EQ(ref[c], part[c])
              << "split=" << split << " " << rows << "x" << cols;
        }
      }
      // Row panels accumulating into one out (the Sinkhorn sweep calls it
      // panel by panel) give the bits of the single call, in both tables.
      const KernelSet* sets[] = {&Kernels(), &ScalarKernels()};
      for (const KernelSet* ks : sets) {
        for (int panel = 1; panel < rows; ++panel) {
          std::vector<double> acc(cols, 0.0);
          for (int r0 = 0; r0 < rows; r0 += panel) {
            const int n = std::min(panel, rows - r0);
            ks->mat_tvec_accum(mat.data() + r0 * cols, cols, u.data() + r0, n,
                               cols, acc.data());
          }
          for (int c = 0; c < cols; ++c) {
            EXPECT_EQ(ref[c], acc[c]) << ks->name << " panel=" << panel
                                      << " " << rows << "x" << cols;
          }
        }
      }
    }
  }
}

// --- determinism ---------------------------------------------------------

// Same build, same process: repeated invocations of every dispatched kernel
// are bitwise stable (the dispatch is resolved once and each kernel is a
// pure function of its inputs).
TEST(SimdDeterminismTest, RepeatedCallsAreBitwiseStable) {
  Rng rng(31);
  const int n = 129;
  const std::vector<double> in = RandomVec(&rng, n, -50.0, 50.0);
  const std::vector<double> x = RandomVec(&rng, n, -2.0, 2.0);
  const KernelSet& ks = Kernels();
  std::vector<double> out1(n), out2(n);
  ks.vec_exp(in.data(), out1.data(), n);
  ks.vec_exp(in.data(), out2.data(), n);
  EXPECT_EQ(0, std::memcmp(out1.data(), out2.data(), n * sizeof(double)));
  const double d1 = ks.row_dot(in.data(), x.data(), n);
  const double d2 = ks.row_dot(in.data(), x.data(), n);
  EXPECT_EQ(d1, d2);
}

}  // namespace
}  // namespace cerl::linalg::simd
