#include "symbolic/expr.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "core/unrank_closed.hpp"
#include "symbolic/root_formula.hpp"

namespace nrc {
namespace {

/// Reference for Expr::str(): the plain tree-recursive rendering, which
/// re-renders a shared subtree at every use.
std::string render_tree(const ExprPtr& n) {
  if (!n) return "?";
  switch (n->op) {
    case ExprOp::Const:
      return n->cval.str();
    case ExprOp::Cis:
      return "cis(" + std::to_string(n->cis_k) + "/" + std::to_string(n->cis_n) + ")";
    case ExprOp::Poly:
      return "(" + n->poly.str() + ")";
    case ExprOp::Add:
      return "(" + render_tree(n->a) + " + " + render_tree(n->b) + ")";
    case ExprOp::Sub:
      return "(" + render_tree(n->a) + " - " + render_tree(n->b) + ")";
    case ExprOp::Mul:
      return "(" + render_tree(n->a) + " * " + render_tree(n->b) + ")";
    case ExprOp::Div:
      return "(" + render_tree(n->a) + " / " + render_tree(n->b) + ")";
    case ExprOp::Neg:
      return "(-" + render_tree(n->a) + ")";
    case ExprOp::Sqrt:
      return "sqrt(" + render_tree(n->a) + ")";
    case ExprOp::Cbrt:
      return "cbrt(" + render_tree(n->a) + ")";
  }
  return "?";
}

TEST(Expr, EmptyAndDereference) {
  Expr e;
  EXPECT_TRUE(e.empty());
  EXPECT_THROW(e.node(), SolveError);
  EXPECT_FALSE(Expr::constant(1).empty());
}

TEST(Expr, ConstantFolding) {
  const Expr a = Expr::constant(Rational(1, 2));
  const Expr b = Expr::constant(Rational(1, 3));
  EXPECT_EQ((a + b).node().op, ExprOp::Const);
  EXPECT_EQ((a + b).node().cval, Rational(5, 6));
  EXPECT_EQ((a * b).node().cval, Rational(1, 6));
  EXPECT_EQ((a - b).node().cval, Rational(1, 6));
  EXPECT_EQ((a / b).node().cval, Rational(3, 2));
  EXPECT_EQ((-a).node().cval, Rational(-1, 2));
}

TEST(Expr, IdentityFolding) {
  const Expr x = Expr::variable("x");
  EXPECT_EQ((x + Expr::constant(0)).ptr().get(), x.ptr().get());
  EXPECT_EQ((Expr::constant(0) + x).ptr().get(), x.ptr().get());
  EXPECT_EQ((x * Expr::constant(1)).ptr().get(), x.ptr().get());
  EXPECT_EQ((x * Expr::constant(0)).node().cval, Rational(0));
  EXPECT_EQ((x / Expr::constant(1)).ptr().get(), x.ptr().get());
}

TEST(Expr, DivisionByConstZeroThrows) {
  EXPECT_THROW(Expr::variable("x") / Expr::constant(0), SolveError);
}

TEST(Expr, CisNormalization) {
  // cis(0, n) folds to 1; cis(k, n) stores k mod n.
  EXPECT_EQ(Expr::cis(0, 3).node().op, ExprOp::Const);
  EXPECT_EQ(Expr::cis(3, 3).node().op, ExprOp::Const);
  const Expr w = Expr::cis(4, 3);
  EXPECT_EQ(w.node().op, ExprOp::Cis);
  EXPECT_EQ(w.node().cis_k, 1);
  EXPECT_THROW(Expr::cis(1, 0), SolveError);
}

TEST(Expr, PolyLeafConstantFoldsToConst) {
  const Expr c = Expr::poly(Polynomial(7));
  EXPECT_EQ(c.node().op, ExprOp::Const);
  EXPECT_EQ(c.node().cval, Rational(7));
  const Expr p = Expr::poly(Polynomial::variable("n") + Polynomial(1));
  EXPECT_EQ(p.node().op, ExprOp::Poly);
}

TEST(Expr, TreeStructureAndStr) {
  const Expr x = Expr::variable("x");
  const Expr e = (x * x - Expr::constant(4)).sqrt() / Expr::constant(2);
  EXPECT_EQ(e.node().op, ExprOp::Div);
  EXPECT_NE(e.str().find("sqrt"), std::string::npos);
}

TEST(Expr, SharedSubtrees) {
  const Expr x = Expr::variable("x");
  const Expr s = x + x;
  EXPECT_EQ(s.node().a.get(), s.node().b.get());
}

TEST(Expr, StrMatchesTreeRenderingOnSharedDags) {
  EXPECT_EQ(Expr().str(), "?");
  const Expr x = Expr::variable("x");
  const Expr y = Expr::variable("y");
  const Expr s = x + y;
  const Expr t = (s * s - Expr::cis(1, 3) / s).cbrt();
  for (const Expr& e : {s, s * s, t, -(t + t) * t.sqrt()})
    EXPECT_EQ(e.str(), render_tree(e.ptr()));

  // Every branch of every closed-form level of the degree-2..4 shapes:
  // Cardano and Ferrari share most of their radicals across uses.
  for (const NestSpec& nest : {testutil::triangular_strict(), testutil::tetrahedral_fig6(),
                               testutil::simplex_4d(), testutil::simplex_4d_shifted()}) {
    const RankingSystem rs = build_ranking_system(nest);
    for (const LevelFormula& lf : build_level_formulas(rs, 4)) {
      const std::vector<Expr> roots = root_branch_exprs(std::span<const Polynomial>(lf.coeffs));
      for (size_t b = 0; b < roots.size(); ++b)
        EXPECT_EQ(roots[b].str(), render_tree(roots[b].ptr())) << nest.str() << " branch " << b;
    }
  }
}

}  // namespace
}  // namespace nrc
