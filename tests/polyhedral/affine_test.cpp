#include "polyhedral/affine.hpp"

#include <gtest/gtest.h>

namespace nrc {
namespace {

TEST(AffineExpr, ConstructionAndAccessors) {
  const AffineExpr z;
  EXPECT_TRUE(z.is_constant());
  EXPECT_EQ(z.constant_term(), 0);

  const AffineExpr c(5);
  EXPECT_EQ(c.constant_term(), 5);

  const AffineExpr v = AffineExpr::variable("i");
  EXPECT_FALSE(v.is_constant());
  EXPECT_EQ(v.coefficient("i"), 1);
  EXPECT_EQ(v.coefficient("j"), 0);
}

TEST(AffineExpr, BuilderSyntax) {
  const AffineExpr e = aff::v("i") + 2 * aff::v("N") - 1;
  EXPECT_EQ(e.coefficient("i"), 1);
  EXPECT_EQ(e.coefficient("N"), 2);
  EXPECT_EQ(e.constant_term(), -1);
}

TEST(AffineExpr, Arithmetic) {
  const AffineExpr a = aff::v("i") + 3;
  const AffineExpr b = aff::v("i") * 2 - 1;
  EXPECT_EQ((a + b).coefficient("i"), 3);
  EXPECT_EQ((a + b).constant_term(), 2);
  EXPECT_EQ((a - b).coefficient("i"), -1);
  EXPECT_EQ((a - b).constant_term(), 4);
  EXPECT_EQ((-a).coefficient("i"), -1);
  EXPECT_EQ((a * 0).is_constant(), true);
}

TEST(AffineExpr, CancellationDropsVariable) {
  const AffineExpr e = aff::v("i") - aff::v("i");
  EXPECT_TRUE(e.is_constant());
  EXPECT_TRUE(e.variables().empty());
}

TEST(AffineExpr, Eval) {
  const AffineExpr e = 2 * aff::v("i") - aff::v("N") + 7;
  EXPECT_EQ(e.eval({{"i", 10}, {"N", 5}}), 22);
  EXPECT_THROW(e.eval({{"i", 10}}), SpecError);
}

TEST(AffineExpr, ToPolyRoundTrip) {
  const AffineExpr e = 3 * aff::v("i") - 2;
  const Polynomial p = e.to_poly();
  EXPECT_EQ(p.degree_in("i"), 1);
  EXPECT_EQ(p.eval_i128({{"i", 4}}), 10);
}

TEST(AffineExpr, Equality) {
  EXPECT_EQ(aff::v("i") + 1, AffineExpr::variable("i") + AffineExpr(1));
  EXPECT_FALSE(aff::v("i") == aff::v("j"));
}

TEST(AffineExpr, Str) {
  EXPECT_EQ(AffineExpr(0).str(), "0");
  EXPECT_EQ((aff::v("i") + 1).str(), "i + 1");
  EXPECT_EQ((2 * aff::v("N") - 3).str(), "2*N - 3");
  EXPECT_EQ((-aff::v("i")).str(), "-i");
}

TEST(AffineExpr, OverflowChecked) {
  const AffineExpr big = aff::v("i") * INT64_MAX;
  EXPECT_THROW(big * 2, OverflowError);
  EXPECT_THROW(big.eval({{"i", 2}}), OverflowError);
}

TEST(AffineExpr, NegationChecked) {
  const AffineExpr min_cst(INT64_MIN);
  EXPECT_THROW(-min_cst, OverflowError);
  EXPECT_THROW(AffineExpr(0) - min_cst, OverflowError);
  EXPECT_THROW(-(aff::v("i") * INT64_MIN), OverflowError);
  EXPECT_EQ(-AffineExpr(INT64_MAX), AffineExpr(-INT64_MAX));
}

}  // namespace
}  // namespace nrc
