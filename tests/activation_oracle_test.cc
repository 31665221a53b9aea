// Accuracy, special-value and parity tests for the ELU and tanh forwards of
// the SIMD kernel layer (EwFwd::kElu / kTanh in linalg/simd.h). The libm
// formulas those kernels replaced are the oracle:
//   ELU(x) = x > 0 ? x : std::expm1(x),    tanh(x) = std::tanh(x).
// Bounds: ELU within 2 ulp of the oracle, tanh within 3 ulp (glibc's own
// tanh is up to ~2.1 ulp from the true value, so a near-correctly-rounded
// kernel can still sit 2 ulp from it). Each test runs the scalar table and,
// when it is not forced off, the AVX2 table; the parity test pins the two
// tables to the same bits at every tail length and alignment.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "linalg/simd.h"
#include "util/rng.h"

namespace cerl::linalg::simd {
namespace {

double OracleElu(double x) { return x > 0.0 ? x : std::expm1(x); }
double OracleTanh(double x) { return std::tanh(x); }

// Distinct kernel tables to check: the scalar reference, plus the active
// table when dispatch picked a different one.
std::vector<const KernelSet*> Tables() {
  std::vector<const KernelSet*> tables = {&ScalarKernels()};
  if (&Kernels() != &ScalarKernels()) tables.push_back(&Kernels());
  return tables;
}

uint64_t Bits(double x) {
  uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

// Distance in units in the last place, over the ordered line of doubles.
uint64_t UlpDistance(double a, double b) {
  auto key = [](double x) {
    const uint64_t u = Bits(x);
    return (u >> 63) ? ~u : u | 0x8000000000000000ull;
  };
  const uint64_t ka = key(a), kb = key(b);
  return ka > kb ? ka - kb : kb - ka;
}

// The sweep: a dense grid over [-40, 40], both signs of a log-spaced range
// from the subnormals up to 2, points around every reduction boundary of
// the expm1 core (its argument at (j + 1/2) * ln2, i.e. ELU inputs there and
// tanh inputs at half of it), and the neighbourhoods of the saturation
// thresholds (tanh rounding to 1 near 19.06, libm's tanh switch at 1 and
// 22, expm1 rounding to -1 near 37.4, the core's clamp at -45).
std::vector<double> SweepInputs() {
  std::vector<double> x;
  const int kGrid = 1 << 20;
  for (int i = 0; i < kGrid; ++i) {
    x.push_back(-40.0 + 80.0 * (i + 0.37) / kGrid);
  }
  for (int e = -1074; e <= 1; ++e) {
    for (int j = 0; j < 64; ++j) {
      const double v = std::ldexp(1.0 + j / 64.0, e);
      x.push_back(v);
      x.push_back(-v);
    }
  }
  auto around = [&x](double c) {
    double lo = c, hi = c;
    for (int k = 0; k < 16; ++k) {
      lo = std::nextafter(lo, -INFINITY);
      hi = std::nextafter(hi, INFINITY);
      x.push_back(lo);
      x.push_back(hi);
    }
    x.push_back(c);
    for (int k = 1; k <= 200; ++k) {
      x.push_back(c - 1e-4 * k);
      x.push_back(c + 1e-4 * k);
    }
  };
  const double ln2 = 0.69314718055994530942;
  for (int j = 0; j <= 66; ++j) {
    const double boundary = (j + 0.5) * ln2;
    around(-boundary);
    around(boundary / 2.0);
    around(-boundary / 2.0);
  }
  for (double c : {1.0, 19.06, 22.0, 37.43, 38.0, 45.0}) {
    around(c);
    around(-c);
  }
  return x;
}

struct MaxError {
  uint64_t ulp = 0;
  double at = 0.0;
};

MaxError Sweep(const KernelSet& ks, EwFwd op, double (*oracle)(double),
               const std::vector<double>& x) {
  std::vector<double> y(x.size());
  ks.ew_forward(static_cast<int>(op), x.data(), y.data(),
                static_cast<int64_t>(x.size()));
  MaxError worst;
  for (size_t i = 0; i < x.size(); ++i) {
    const uint64_t d = UlpDistance(y[i], oracle(x[i]));
    if (d > worst.ulp) worst = {d, x[i]};
  }
  return worst;
}

TEST(ActivationOracleTest, EluWithinTwoUlpOfLibmExpm1) {
  const std::vector<double> x = SweepInputs();
  for (const KernelSet* ks : Tables()) {
    const MaxError e = Sweep(*ks, EwFwd::kElu, &OracleElu, x);
    std::printf("[%s] elu: max %llu ulp from libm (at x = %.17g), %zu inputs\n",
                ks->name, static_cast<unsigned long long>(e.ulp), e.at,
                x.size());
    EXPECT_LE(e.ulp, 2u) << ks->name << " elu at x = " << e.at;
  }
}

TEST(ActivationOracleTest, TanhWithinThreeUlpOfLibmTanh) {
  const std::vector<double> x = SweepInputs();
  for (const KernelSet* ks : Tables()) {
    const MaxError e = Sweep(*ks, EwFwd::kTanh, &OracleTanh, x);
    std::printf("[%s] tanh: max %llu ulp from libm (at x = %.17g), %zu "
                "inputs\n",
                ks->name, static_cast<unsigned long long>(e.ulp), e.at,
                x.size());
    EXPECT_LE(e.ulp, 3u) << ks->name << " tanh at x = " << e.at;
  }
}

double Apply(const KernelSet& ks, EwFwd op, double x) {
  double y = 0.0;
  ks.ew_forward(static_cast<int>(op), &x, &y, 1);
  return y;
}

TEST(ActivationOracleTest, SpecialValuesMatchLibm) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const KernelSet* ks : Tables()) {
    SCOPED_TRACE(ks->name);
    for (EwFwd op : {EwFwd::kElu, EwFwd::kTanh}) {
      SCOPED_TRACE(op == EwFwd::kElu ? "elu" : "tanh");
      // Signed zeros keep their sign.
      EXPECT_EQ(Bits(Apply(*ks, op, 0.0)), Bits(0.0));
      EXPECT_EQ(Bits(Apply(*ks, op, -0.0)), Bits(-0.0));
      // NaN propagates, whatever its sign.
      EXPECT_TRUE(std::isnan(Apply(*ks, op, nan)));
      EXPECT_TRUE(std::isnan(Apply(*ks, op, -nan)));
      // Tiny and subnormal inputs return x itself.
      for (double t : {DBL_TRUE_MIN, 3 * DBL_TRUE_MIN, DBL_MIN / 3, DBL_MIN,
                       1e-300, 1e-100, 1e-20}) {
        EXPECT_EQ(Bits(Apply(*ks, op, t)), Bits(t)) << t;
        EXPECT_EQ(Bits(Apply(*ks, op, -t)), Bits(-t)) << -t;
      }
    }
    EXPECT_EQ(Apply(*ks, EwFwd::kElu, -inf), -1.0);
    EXPECT_EQ(Apply(*ks, EwFwd::kElu, inf), inf);
    EXPECT_EQ(Apply(*ks, EwFwd::kElu, -1e300), -1.0);
    EXPECT_EQ(Apply(*ks, EwFwd::kElu, 1e300), 1e300);
    EXPECT_EQ(Apply(*ks, EwFwd::kTanh, inf), 1.0);
    EXPECT_EQ(Apply(*ks, EwFwd::kTanh, -inf), -1.0);
    // tanh saturates to exactly +-1 from |x| = 22 on (libm does from
    // ~19.06, where 1 - tanh drops below half an ulp of 1).
    for (double big : {19.1, 22.0, std::nextafter(22.0, 0.0), 22.5, 30.0,
                       100.0, 1e10, 1e300, DBL_MAX}) {
      EXPECT_EQ(Apply(*ks, EwFwd::kTanh, big), 1.0) << big;
      EXPECT_EQ(Apply(*ks, EwFwd::kTanh, -big), -1.0) << -big;
    }
  }
}

// Random N(0, s) inputs at several scales, interleaved with special values,
// so every tail position of every length sees both kinds.
std::vector<double> ParityInputs() {
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0,    -0.0,   inf,           -inf,
                             std::numeric_limits<double>::quiet_NaN(),
                             -std::numeric_limits<double>::quiet_NaN(),
                             DBL_TRUE_MIN, -DBL_MIN, 22.0, -22.0,
                             -45.0,  -46.0,  -37.43,        0.3465735902799726};
  Rng rng(2029);
  std::vector<double> x;
  for (int i = 0; i < 4096; ++i) {
    const double scale = (i % 3 == 0) ? 0.1 : (i % 3 == 1 ? 2.0 : 25.0);
    x.push_back(scale * rng.Normal());
    if (i % 7 == 0) x.push_back(specials[(i / 7) % 14]);
  }
  return x;
}

TEST(ActivationOracleTest, TablesBitwiseEqualAtEveryTailAndOffset) {
  const KernelSet& sc = ScalarKernels();
  const KernelSet& ac = Kernels();
  const std::vector<double> x = ParityInputs();
  for (EwFwd op : {EwFwd::kElu, EwFwd::kTanh}) {
    const int tag = static_cast<int>(op);
    // Every element's bits, computed one at a time by the scalar table.
    std::vector<double> ref(x.size());
    for (size_t i = 0; i < x.size(); ++i) sc.ew_forward(tag, &x[i], &ref[i], 1);
    // The active table over the whole array (unaligned by one element) and
    // over every length 1..9 at four offsets.
    std::vector<double> y(x.size());
    ac.ew_forward(tag, x.data() + 1, y.data() + 1,
                  static_cast<int64_t>(x.size()) - 1);
    for (size_t i = 1; i < x.size(); ++i) {
      ASSERT_EQ(Bits(y[i]), Bits(ref[i]))
          << ac.name << " op " << tag << " x = " << x[i];
    }
    for (int n = 1; n <= 9; ++n) {
      for (int offset = 0; offset < 4; ++offset) {
        for (size_t base = offset; base + n <= x.size(); base += 97) {
          double out[9];
          ac.ew_forward(tag, x.data() + base, out, n);
          for (int i = 0; i < n; ++i) {
            ASSERT_EQ(Bits(out[i]), Bits(ref[base + i]))
                << ac.name << " op " << tag << " n " << n << " offset "
                << offset << " x = " << x[base + i];
          }
        }
      }
    }
    // In place (out == x) is allowed.
    std::vector<double> inplace = x;
    ac.ew_forward(tag, inplace.data(), inplace.data(),
                  static_cast<int64_t>(inplace.size()));
    for (size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(Bits(inplace[i]), Bits(ref[i])) << "in place, x = " << x[i];
    }
  }
}

}  // namespace
}  // namespace cerl::linalg::simd
