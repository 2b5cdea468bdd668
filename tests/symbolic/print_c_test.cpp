#include "symbolic/print_c.hpp"

#include <gtest/gtest.h>

namespace nrc {
namespace {

Polynomial var(const char* n) { return Polynomial::variable(n); }

TEST(PrintPolyC, IntegerArithmeticMode) {
  // (N^2 - N)/2 prints with integer division over the common denominator.
  const Polynomial p = (var("N").pow(2) - var("N")) / Rational(2);
  EXPECT_EQ(print_poly_c(p, {}, /*integer_arith=*/true), "((N*N - N) / 2)");
}

TEST(PrintPolyC, CastsInFloatMode) {
  const Polynomial p = var("i") * Rational(2) + Polynomial(1);
  CPrintOptions opt;
  opt.var_cast = "(double)";
  EXPECT_EQ(print_poly_c(p, opt), "(2*(double)i + 1)");
}

TEST(PrintPolyC, ZeroAndConstants) {
  EXPECT_EQ(print_poly_c(Polynomial(), {}), "0");
  EXPECT_EQ(print_poly_c(Polynomial(7), {}), "(7)");
  EXPECT_EQ(print_poly_c(Polynomial(-7), {}), "(-7)");
}

TEST(PrintPolyC, NegativeLeadingTerm) {
  const Polynomial p = -var("i").pow(2) + var("j") * Rational(2);
  CPrintOptions opt;
  opt.var_cast = "";
  const std::string s = print_poly_c(p, opt);
  // Graded order puts i^2 (higher) first with a leading minus.
  EXPECT_EQ(s, "(-i*i + 2*j)");
}

TEST(PrintPolyC, Renaming) {
  CPrintOptions opt;
  opt.var_cast = "";
  opt.rename = {{"i", "ii"}};
  EXPECT_EQ(print_poly_c(var("i"), opt), "(ii)");
}

}  // namespace
}  // namespace nrc
