#include "math/faulhaber.hpp"

#include <gtest/gtest.h>

namespace nrc {
namespace {

/// Brute-force sum_{t=0}^{x} t^p (0^0 = 1).
i128 brute_powersum(i64 x, unsigned p) {
  i128 acc = 0;
  for (i64 t = 0; t <= x; ++t) {
    i128 v = 1;
    for (unsigned e = 0; e < p; ++e) v *= t;
    acc += v;
  }
  return acc;
}

/// sum_{var = lo}^{hi} P, hi inclusive, through the discrete
/// antiderivative Q: Q(hi) - Q(lo - 1).
Polynomial sum_over_range(const Polynomial& P, const std::string& var, const Polynomial& lo,
                          const Polynomial& hi) {
  const auto Q = antiderivative(P, var);
  return Polynomial::horner(Q, hi) - Polynomial::horner(Q, lo - Polynomial(Rational(1)));
}

TEST(Faulhaber, KnownClosedForms) {
  // F_0(x) = x + 1
  EXPECT_EQ(faulhaber(0), Polynomial::variable("x") + Polynomial(1));
  // F_1(x) = x(x+1)/2
  EXPECT_EQ(faulhaber(1),
            (Polynomial::variable("x").pow(2) + Polynomial::variable("x")) / Rational(2));
  // F_2(x) = x(x+1)(2x+1)/6
  const Polynomial x = Polynomial::variable("x");
  EXPECT_EQ(faulhaber(2), (x * (x + Polynomial(1)) * (x * Rational(2) + Polynomial(1))) /
                              Rational(6));
  // F_3(x) = (x(x+1)/2)^2
  EXPECT_EQ(faulhaber(3), faulhaber(1) * faulhaber(1));
}

TEST(Faulhaber, MatchesBruteForceUpToDegree8) {
  for (unsigned p = 0; p <= 8; ++p) {
    const Polynomial& F = faulhaber(p);
    EXPECT_EQ(F.degree_in("x"), static_cast<int>(p) + 1);
    for (i64 x = -1; x <= 12; ++x) {
      EXPECT_EQ(F.eval_i128({{"x", x}}), brute_powersum(x, p))
          << "p=" << p << " x=" << x;
    }
  }
}

TEST(Faulhaber, EmptySumConventionAtMinusOne) {
  for (unsigned p = 0; p <= 6; ++p)
    EXPECT_EQ(faulhaber(p).eval_i128({{"x", -1}}), 0) << "p=" << p;
}

TEST(SumOverRange, ConstantSummand) {
  // sum_{t=lo}^{hi} 1 == hi - lo + 1
  const Polynomial one(1);
  const Polynomial lo = Polynomial::variable("a");
  const Polynomial hi = Polynomial::variable("b");
  const Polynomial s = sum_over_range(one, "t", lo, hi);
  EXPECT_EQ(s, hi - lo + Polynomial(1));
}

TEST(SumOverRange, LinearSummand) {
  // sum_{t=0}^{n-1} t = n(n-1)/2
  const Polynomial t = Polynomial::variable("t");
  const Polynomial n = Polynomial::variable("n");
  const Polynomial s = sum_over_range(t, "t", Polynomial(0), n - Polynomial(1));
  EXPECT_EQ(s, (n.pow(2) - n) / Rational(2));
}

TEST(SumOverRange, MatchesBruteForceOnPolynomialSummand) {
  // P(t, y) = t^2 y - 3t + y, summed for t in [lo, hi].
  const Polynomial t = Polynomial::variable("t");
  const Polynomial y = Polynomial::variable("y");
  const Polynomial P = t.pow(2) * y - t * Rational(3) + y;
  const Polynomial S = sum_over_range(P, "t", Polynomial::variable("lo"),
                                      Polynomial::variable("hi"));
  for (i64 lo = -3; lo <= 3; ++lo) {
    for (i64 hi = lo - 1; hi <= 6; ++hi) {  // hi == lo-1: empty sum
      for (i64 yv = -2; yv <= 2; ++yv) {
        i128 brute = 0;
        for (i64 tv = lo; tv <= hi; ++tv)
          brute += P.eval_i128({{"t", tv}, {"y", yv}});
        EXPECT_EQ(S.eval_i128({{"lo", lo}, {"hi", hi}, {"y", yv}}), brute)
            << "lo=" << lo << " hi=" << hi << " y=" << yv;
      }
    }
  }
}

TEST(SumOverRange, NestedSummationIsTriangularCount) {
  // sum_{i=0}^{N-1} sum_{j=i+1}^{N-1} 1 = N(N-1)/2
  const Polynomial one(1);
  const Polynomial i = Polynomial::variable("i");
  const Polynomial N = Polynomial::variable("N");
  const Polynomial inner =
      sum_over_range(one, "j", i + Polynomial(1), N - Polynomial(1));
  const Polynomial outer = sum_over_range(inner, "i", Polynomial(0), N - Polynomial(1));
  EXPECT_EQ(outer, (N.pow(2) - N) / Rational(2));
}

}  // namespace
}  // namespace nrc
