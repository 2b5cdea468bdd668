// Property test: the symbolic root formulas (used for code generation
// and runtime recovery) agree branch-by-branch with the direct numeric
// solver on generic polynomials of every supported degree.
#include "symbolic/root_formula.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "math/roots.hpp"
#include "symbolic/compile.hpp"

namespace nrc {
namespace {

/// Evaluate the symbolic branch for integer coefficients a0..adeg.
cld eval_symbolic(const std::vector<i64>& coeffs, int branch) {
  std::vector<Expr> ce;
  ce.reserve(coeffs.size());
  for (i64 c : coeffs) ce.push_back(Expr::constant(c));
  const Expr root = root_branch_expr(std::span<const Expr>(ce), branch);
  const std::vector<std::string> order = {};
  const CompiledExpr compiled(root, order);
  return compiled.eval({});
}

cld eval_numeric(const std::vector<i64>& coeffs, int branch) {
  std::vector<cld> cc;
  cc.reserve(coeffs.size());
  for (i64 c : coeffs) cc.emplace_back(static_cast<long double>(c), 0.0L);
  return root_branch_value(cc, branch);
}

void expect_branches_agree(const std::vector<i64>& coeffs) {
  const int degree = static_cast<int>(coeffs.size()) - 1;
  for (int b = 0; b < root_branch_count(degree); ++b) {
    const cld s = eval_symbolic(coeffs, b);
    const cld n = eval_numeric(coeffs, b);
    const bool s_fin = std::isfinite(s.real()) && std::isfinite(s.imag());
    const bool n_fin = std::isfinite(n.real()) && std::isfinite(n.imag());
    // The symbolic formula is the generic one (the paper's); the numeric
    // solver additionally special-cases the Cardano degeneration u == 0
    // (depressed p == 0).  The symbolic side may therefore be non-finite
    // where the numeric oracle stays finite — the runtime falls back to
    // exact search there.  When both are finite they must agree.
    if (!s_fin) continue;
    EXPECT_TRUE(n_fin) << "degree " << degree << " branch " << b;
    if (n_fin) {
      EXPECT_LT(std::abs(s - n), 1e-6L * (std::abs(n) + 1.0L))
          << "degree " << degree << " branch " << b;
    }
  }
}

TEST(RootFormula, LinearAgreesWithNumeric) {
  expect_branches_agree({-6, 2});
  expect_branches_agree({5, -3});
  expect_branches_agree({0, 7});
}

TEST(RootFormula, QuadraticAgreesWithNumeric) {
  expect_branches_agree({-10, 3, 1});
  expect_branches_agree({1, 0, 1});    // complex pair
  expect_branches_agree({4, -4, 1});   // double root
  expect_branches_agree({-21, 4, 3});  // non-monic
}

TEST(RootFormula, CubicAgreesWithNumeric) {
  expect_branches_agree({-6, 11, -6, 1});  // three real
  expect_branches_agree({-2, -1, -1, 1});  // one real, two complex
  expect_branches_agree({1, 1, 1, 2});     // non-monic generic
  expect_branches_agree({0, 2, 3, 1});     // paper Fig. 6 shape at pc=1
}

TEST(RootFormula, QuarticAgreesWithNumeric) {
  expect_branches_agree({24, -50, 35, -10, 1});  // four real
  expect_branches_agree({-6, 1, 2, 2, 1});       // mixed
  expect_branches_agree({1, 2, 3, 4, 5});        // generic non-monic
}

TEST(RootFormula, SweepSmallIntegerPolynomials) {
  // All cubics with small coefficients and non-zero lead.
  for (i64 a3 : {1, 2}) {
    for (i64 a2 = -2; a2 <= 2; ++a2) {
      for (i64 a1 = -2; a1 <= 2; ++a1) {
        for (i64 a0 = -2; a0 <= 2; ++a0) {
          expect_branches_agree({a0, a1, a2, a3});
        }
      }
    }
  }
}

TEST(RootFormula, PolynomialCoefficientOverload) {
  // Coefficients given as polynomials in a parameter; evaluated at n = 4
  // the equation is x^2 - n = 0 -> branches +-2.
  std::vector<Polynomial> coeffs = {-Polynomial::variable("n"), Polynomial(0),
                                    Polynomial(1)};
  const Expr root0 = root_branch_exprs(std::span<const Polynomial>(coeffs))[0];
  const std::vector<std::string> order = {"n"};
  const CompiledExpr ce(root0, order);
  const i64 pt[] = {4};
  EXPECT_NEAR(static_cast<double>(ce.eval({pt, 1}).real()), 2.0, 1e-9);
}

TEST(RootFormula, RejectsBadDegreesAndBranches) {
  std::vector<Expr> lin = {Expr::constant(1), Expr::constant(1)};
  EXPECT_THROW(root_branch_expr(std::span<const Expr>(lin), 1), SolveError);
  std::vector<Expr> deg5(6, Expr::constant(1));
  EXPECT_THROW(root_branch_expr(std::span<const Expr>(deg5), 0), DegreeError);
}

}  // namespace
}  // namespace nrc
