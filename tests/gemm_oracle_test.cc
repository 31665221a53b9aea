// linalg::Gemm against the packed bitwise oracle (gemm_oracle.h), under the
// active kernel table and the scalar one: every transpose combination over
// a grid of shapes that covers the k % 4 remainder, the n % 4 plain tail
// columns, more than one 128-wide n panel and more than one 256-deep k
// block, with alpha and beta both trivial and not. Bit patterns must match
// exactly (so +0.0 and -0.0 are told apart).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "gemm_oracle.h"
#include "linalg/gemm.h"
#include "linalg/simd.h"
#include "util/rng.h"

namespace cerl::linalg {
namespace {

Matrix RandomMatrix(Rng* rng, int rows, int cols) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng->Uniform(-1.0, 1.0);
  return m;
}

// The oracle row kernels that reproduce the given table's arithmetic.
const gemm_oracle::RowKernels& OracleFor(const simd::KernelSet& ks) {
#if defined(CERL_GEMM_ORACLE_AVX2)
  if (std::string(ks.name) == "avx2") return gemm_oracle::kAvx2RowKernels;
#endif
  EXPECT_EQ(std::string(ks.name), "scalar");
  return gemm_oracle::kScalarRowKernels;
}

// Runs Gemm and the oracle from the same C and compares bit patterns.
// With beta == 0 the starting C is NaN: neither may read it.
void ExpectMatchesOracle(Rng* rng, Trans ta, Trans tb, int m, int n, int k,
                         double alpha, double beta) {
  const Matrix a = ta == Trans::kNo ? RandomMatrix(rng, m, k)
                                    : RandomMatrix(rng, k, m);
  const Matrix b = tb == Trans::kNo ? RandomMatrix(rng, k, n)
                                    : RandomMatrix(rng, n, k);
  Matrix c0 = beta == 0.0
                  ? Matrix(m, n, std::numeric_limits<double>::quiet_NaN())
                  : RandomMatrix(rng, m, n);
  Matrix got = c0;
  Matrix want = c0;
  Gemm(ta, tb, alpha, a, b, beta, &got);
  gemm_oracle::Gemm(OracleFor(simd::Kernels()), ta, tb, alpha, a, b, beta,
                    &want);
  ASSERT_EQ(std::memcmp(got.data(), want.data(),
                        sizeof(double) * static_cast<size_t>(got.size())),
            0)
      << simd::Kernels().name << " ta=" << (ta == Trans::kYes)
      << " tb=" << (tb == Trans::kYes) << " m=" << m << " n=" << n
      << " k=" << k << " alpha=" << alpha << " beta=" << beta;
}

void RunGrid() {
  Rng rng(2024);
  for (Trans ta : {Trans::kNo, Trans::kYes}) {
    for (Trans tb : {Trans::kNo, Trans::kYes}) {
      for (int m : {1, 2, 3, 5, 128, 250}) {
        for (int n : {1, 3, 16, 32, 129, 150}) {
          for (int k : {1, 3, 4, 16, 128, 257}) {
            for (double alpha : {1.0, -2.0}) {
              for (double beta : {0.0, 1.0, 0.5}) {
                ExpectMatchesOracle(&rng, ta, tb, m, n, k, alpha, beta);
                if (::testing::Test::HasFatalFailure()) return;
              }
            }
          }
        }
      }
    }
  }
}

// beta == 0 with every product -0.0: C starts at +0.0, and +0.0 + -0.0 is
// +0.0, in the 4-k groups, the k remainder and the plain tail columns.
void ExpectNegativeZeroProductsGivePositiveZero() {
  const int m = 5, n = 7, k = 6;
  const Matrix a(m, k, -0.0);
  Rng rng(7);
  Matrix b(k, n);
  for (int64_t i = 0; i < b.size(); ++i) b.data()[i] = rng.Uniform(0.5, 2.0);
  Matrix c(m, n, std::numeric_limits<double>::quiet_NaN());
  Matrix want = c;
  Gemm(Trans::kNo, Trans::kNo, 1.0, a, b, 0.0, &c);
  gemm_oracle::Gemm(OracleFor(simd::Kernels()), Trans::kNo, Trans::kNo, 1.0,
                    a, b, 0.0, &want);
  for (int64_t i = 0; i < c.size(); ++i) {
    ASSERT_EQ(c.data()[i], 0.0) << simd::Kernels().name << " element " << i;
    ASSERT_FALSE(std::signbit(c.data()[i]))
        << simd::Kernels().name << " element " << i;
    ASSERT_FALSE(std::signbit(want.data()[i])) << "oracle element " << i;
  }
}

// Pins the scalar table for one scope.
struct ScopedScalarKernels {
  ScopedScalarKernels() { simd::ForceScalarForTesting(true); }
  ~ScopedScalarKernels() { simd::ForceScalarForTesting(false); }
};

TEST(GemmOracleTest, ActiveTableMatchesPackedOracleBitwise) {
  RunGrid();
}

TEST(GemmOracleTest, ScalarTableMatchesPackedOracleBitwise) {
  ScopedScalarKernels scalar;
  RunGrid();
}

TEST(GemmOracleTest, BetaZeroNegativeZeroProductsArePositiveZero) {
  ExpectNegativeZeroProductsGivePositiveZero();
  ScopedScalarKernels scalar;
  ExpectNegativeZeroProductsGivePositiveZero();
}

}  // namespace
}  // namespace cerl::linalg
