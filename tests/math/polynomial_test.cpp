#include "math/polynomial.hpp"

#include <gtest/gtest.h>

namespace nrc {
namespace {

Polynomial X() { return Polynomial::variable("x"); }
Polynomial Y() { return Polynomial::variable("y"); }

TEST(Polynomial, TermView) {
  const Polynomial one(1);
  EXPECT_EQ(one.num_terms(), 1u);
  EXPECT_TRUE(one.vars().empty());
  EXPECT_EQ(one.term_degree(0), 0);
  EXPECT_EQ(one.str(), "1");
  const Polynomial x2y = X().pow(2) * Y() * Rational(3);
  ASSERT_EQ(x2y.vars(), (std::vector<std::string>{"x", "y"}));
  ASSERT_EQ(x2y.num_terms(), 1u);
  EXPECT_EQ(x2y.exponent(0, 0), 2);
  EXPECT_EQ(x2y.exponent(0, 1), 1);
  EXPECT_EQ(x2y.term_degree(0), 3);
  EXPECT_EQ(x2y.coef(0), Rational(3));
  EXPECT_EQ(x2y.str(), "3*x^2*y");
  // A variable every term loses leaves the list.
  EXPECT_EQ((x2y - x2y + X()).vars(), std::vector<std::string>{"x"});
  EXPECT_TRUE(x2y.derivative("z").vars().empty());
}

TEST(Polynomial, GradedTermOrder) {
  // Lower total degree first; within a degree the factor lists (name,
  // exponent) compare as lists, so z < x*y, x*y < x^2 < y^2; str()
  // prints the order reversed.
  const Polynomial z = Polynomial::variable("z");
  EXPECT_EQ((Polynomial(1) + X() + X().pow(2)).str(), "x^2 + x + 1");
  EXPECT_EQ((z + X() * Y()).str(), "x*y + z");
  EXPECT_EQ((Y().pow(2) + X().pow(2) + X() * Y()).str(), "y^2 + x^2 + x*y");
  EXPECT_EQ((X() + Y() + z).str(), "z + y + x");
}

TEST(Polynomial, ConstructionAndZero) {
  EXPECT_TRUE(Polynomial().is_zero());
  EXPECT_TRUE(Polynomial(Rational(0)).is_zero());
  EXPECT_TRUE(Polynomial(5).is_constant());
  EXPECT_EQ(Polynomial(5).constant_term(), Rational(5));
  EXPECT_FALSE(X().is_constant());
}

TEST(Polynomial, Arithmetic) {
  const Polynomial p = X() * X() + X() * Rational(2) + Polynomial(1);  // (x+1)^2
  const Polynomial q = (X() + Polynomial(1)) * (X() + Polynomial(1));
  EXPECT_EQ(p, q);
  EXPECT_TRUE((p - q).is_zero());
  EXPECT_EQ((X() + Y()) * (X() - Y()), X() * X() - Y() * Y());
}

TEST(Polynomial, CancellationRemovesTerms) {
  const Polynomial p = X() - X();
  EXPECT_TRUE(p.is_zero());
  EXPECT_EQ(p.num_terms(), 0u);
  EXPECT_TRUE(p.vars().empty());
}

TEST(Polynomial, Pow) {
  EXPECT_EQ(X().pow(0), Polynomial(1));
  EXPECT_EQ(X().pow(3), X() * X() * X());
  const Polynomial xp1 = X() + Polynomial(1);
  EXPECT_EQ(xp1.pow(3), xp1 * xp1 * xp1);
}

TEST(Polynomial, Degrees) {
  const Polynomial p = X().pow(3) * Y() + Y().pow(2);
  EXPECT_EQ(p.degree_in("x"), 3);
  EXPECT_EQ(p.degree_in("y"), 2);
  EXPECT_EQ(p.degree_in("z"), 0);
  EXPECT_EQ(p.total_degree(), 4);
}

TEST(Polynomial, Variables) {
  const Polynomial p = X() * Y() + Polynomial(3);
  const auto vs = p.variables();
  EXPECT_EQ(vs.size(), 2u);
  EXPECT_TRUE(vs.count("x"));
  EXPECT_TRUE(vs.count("y"));
}

TEST(Polynomial, CoefficientsIn) {
  // p = 2x^2 y + 3x - y + 5, in x: [ -y+5, 3, 2y ]
  const Polynomial p =
      X().pow(2) * Y() * Rational(2) + X() * Rational(3) - Y() + Polynomial(5);
  const auto cs = p.coefficients_in("x");
  ASSERT_EQ(cs.size(), 3u);
  EXPECT_EQ(cs[0], Polynomial(5) - Y());
  EXPECT_EQ(cs[1], Polynomial(3));
  EXPECT_EQ(cs[2], Y() * Rational(2));
}

TEST(Polynomial, Substitute) {
  // (x+1)^2 with x := y-1  ->  y^2
  const Polynomial p = (X() + Polynomial(1)).pow(2);
  EXPECT_EQ(p.substitute("x", Y() - Polynomial(1)), Y().pow(2));
  // Substituting an absent variable is a no-op.
  EXPECT_EQ(p.substitute("z", Y()), p);
}

TEST(Polynomial, SubstituteChainsThroughNestedRefs) {
  // p = x*y; x := y+1  ->  y^2 + y
  const Polynomial p = X() * Y();
  EXPECT_EQ(p.substitute("x", Y() + Polynomial(1)), Y().pow(2) + Y());
}

TEST(Polynomial, EvalRational) {
  const Polynomial p = X().pow(2) * Rational(1, 2) + X() * Rational(3, 2);
  EXPECT_EQ(p.eval({{"x", Rational(3)}}), Rational(9));
  EXPECT_THROW(p.eval({}), SpecError);
}

TEST(Polynomial, EvalI128Exact) {
  // Integer-valued with denominator 2: x(x+1)/2.
  const Polynomial p = (X().pow(2) + X()) / Rational(2);
  EXPECT_EQ(p.eval_i128({{"x", 10}}), 55);
  EXPECT_EQ(p.eval_i128({{"x", -3}}), 3);
  EXPECT_EQ(p.eval_i128({{"x", 1'000'000}}), i128{500000500000});
}

TEST(Polynomial, EvalI128LargeValues) {
  const Polynomial p = X().pow(3);
  EXPECT_EQ(p.eval_i128({{"x", 2'000'000}}),
            checked_mul(checked_mul(i128{2'000'000}, 2'000'000), 2'000'000));
}

TEST(Polynomial, DenominatorLcm) {
  const Polynomial p = X() * Rational(1, 2) + Y() * Rational(1, 3);
  EXPECT_EQ(p.denominator_lcm(), 6);
  EXPECT_EQ(Polynomial().denominator_lcm(), 1);
}

TEST(Polynomial, Str) {
  EXPECT_EQ(Polynomial().str(), "0");
  EXPECT_EQ((X() - Polynomial(1)).str(), "x - 1");
  EXPECT_EQ((-X()).str(), "-x");
}

TEST(CompiledPoly, MatchesMapEval) {
  const Polynomial p =
      X().pow(2) * Y() * Rational(3, 2) - X() * Rational(2) + Polynomial(Rational(7, 2));
  const std::vector<std::string> order = {"x", "y"};
  const CompiledPoly cp(p, order);
  for (i64 x = -5; x <= 5; ++x) {
    for (i64 y = -5; y <= 5; ++y) {
      // 3/2 x^2 y - 2x + 7/2 is not always integral; scale by 2 to test
      // via a doubled polynomial instead.
      const Polynomial p2 = p * Rational(2);
      const CompiledPoly cp2(p2, order);
      const std::vector<i64> pt{x, y};
      EXPECT_EQ(cp2.eval_i128(pt), p2.eval_i128({{"x", x}, {"y", y}}));
    }
  }
  (void)cp;
}

TEST(CompiledPoly, MissingVariableThrows) {
  const std::vector<std::string> order = {"x"};
  EXPECT_THROW(CompiledPoly(Y(), order), SpecError);
}

TEST(CompiledPoly, EvalLongDouble) {
  const Polynomial p = X().pow(2) - Polynomial(Rational(1, 4));
  const std::vector<std::string> order = {"x"};
  const CompiledPoly cp(p, order);
  const long double pt[] = {3.0L};
  EXPECT_NEAR(static_cast<double>(cp.eval_ld({pt, 1})), 8.75, 1e-12);
}

}  // namespace
}  // namespace nrc
