#include "symbolic/compile.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "../test_util.hpp"
#include "core/unrank_closed.hpp"
#include "math/roots.hpp"
#include "polyhedral/domain.hpp"
#include "symbolic/root_formula.hpp"

namespace nrc {
namespace {

const std::vector<std::string> kOrder = {"x", "y"};

cld eval(const Expr& e, i64 x, i64 y) {
  const CompiledExpr ce(e, kOrder);
  const i64 pt[] = {x, y};
  return ce.eval({pt, 2});
}

TEST(CompiledExpr, ConstantsAndPolys) {
  EXPECT_NEAR(static_cast<double>(eval(Expr::constant(Rational(3, 4)), 0, 0).real()), 0.75,
              1e-15);
  const Expr p = Expr::poly(Polynomial::variable("x") * Polynomial::variable("y") +
                            Polynomial(2));
  EXPECT_NEAR(static_cast<double>(eval(p, 3, 5).real()), 17.0, 1e-12);
}

TEST(CompiledExpr, Arithmetic) {
  const Expr x = Expr::variable("x");
  const Expr y = Expr::variable("y");
  EXPECT_NEAR(static_cast<double>(eval(x + y * y, 2, 3).real()), 11.0, 1e-12);
  EXPECT_NEAR(static_cast<double>(eval(x - y, 2, 3).real()), -1.0, 1e-12);
  EXPECT_NEAR(static_cast<double>(eval(x / y, 1, 4).real()), 0.25, 1e-12);
  EXPECT_NEAR(static_cast<double>(eval(-x, 2, 0).real()), -2.0, 1e-12);
}

TEST(CompiledExpr, SqrtOfNegativeIsComplex) {
  const Expr e = Expr::variable("x").sqrt();
  const cld v = eval(e, -4, 0);
  EXPECT_NEAR(static_cast<double>(v.real()), 0.0, 1e-12);
  EXPECT_NEAR(static_cast<double>(v.imag()), 2.0, 1e-12);
}

TEST(CompiledExpr, CbrtPrincipalBranch) {
  const Expr e = Expr::variable("x").cbrt();
  EXPECT_NEAR(static_cast<double>(eval(e, 27, 0).real()), 3.0, 1e-12);
  const cld m = eval(e, -8, 0);
  EXPECT_NEAR(static_cast<double>(m.real()), 1.0, 1e-9);
  EXPECT_NEAR(static_cast<double>(m.imag()), std::sqrt(3.0), 1e-9);
  EXPECT_NEAR(static_cast<double>(eval(e, 0, 0).real()), 0.0, 1e-12);
}

TEST(CompiledExpr, CisValue) {
  const Expr w = Expr::cis(1, 3);  // e^{2 pi i/3}
  const cld v = eval(w, 0, 0);
  EXPECT_NEAR(static_cast<double>(v.real()), -0.5, 1e-12);
  EXPECT_NEAR(static_cast<double>(v.imag()), std::sqrt(3.0) / 2.0, 1e-12);
}

TEST(CompiledExpr, SharedSubtreeEvaluatedOnce) {
  // (x+y) * (x+y): the shared node must appear once in the program.
  const Expr s = Expr::variable("x") + Expr::variable("y");
  const CompiledExpr ce(s * s, kOrder);
  // 3 instructions: poly(x), poly(y) fold? x and y are separate poly
  // leaves; s = add; mul: 4 instructions total (x, y, add, mul).
  EXPECT_EQ(ce.size(), 4u);
}

TEST(CompiledExpr, StructurallyEqualNodesMerge) {
  // Two separately built x+y nodes are one value: x, y, add, mul.
  const Expr s1 = Expr::variable("x") + Expr::variable("y");
  const Expr s2 = Expr::variable("x") + Expr::variable("y");
  ASSERT_NE(s1.ptr().get(), s2.ptr().get());
  const CompiledExpr ce(s1 * s2, kOrder);
  EXPECT_EQ(ce.size(), 4u);
  EXPECT_NEAR(static_cast<double>(eval(s1 * s2, 2, 3).real()), 25.0, 1e-12);

  // Different constants, roots of unity and operand orders stay apart.
  EXPECT_EQ(CompiledExpr(Expr::variable("x") * Expr::constant(Rational(1, 3)) +
                             Expr::variable("x") * Expr::constant(Rational(2, 3)),
                         kOrder)
                .size(),
            6u);
  EXPECT_EQ(CompiledExpr(Expr::cis(1, 3) + Expr::cis(2, 3), kOrder).size(), 3u);
  EXPECT_EQ(CompiledExpr(Expr::variable("x") - Expr::variable("y") +
                             (Expr::variable("y") - Expr::variable("x")),
                         kOrder)
                .size(),
            5u);
}

bool same_value(long double a, long double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return a == b && std::signbit(a) == std::signbit(b);
}

TEST(CompiledExpr, MultiRootProgramMatchesEachSingleRootBitwise) {
  // Every branch of every closed-form level of the fuzz nest classes,
  // compiled into one program, evaluated on the calibration domain:
  // afresh at each point, and into one caller-owned buffer that keeps
  // the values reading only slots unchanged since the previous point.
  // Quartic levels are rare in the generator: the first ones appear at
  // seed 144 (triangular and skewed).
  bool degree_seen[5] = {};
  for (testutil::FuzzClass cls : testutil::kFuzzClasses) {
    for (u64 seed = 0; seed < 220; ++seed) {
      const testutil::FuzzNest fc = testutil::make_fuzz_nest(cls, seed);
      if (fc.expect_empty) continue;
      const RankingSystem rs = build_ranking_system(fc.nest);
      std::vector<std::string> slots = fc.nest.loop_vars();
      for (const auto& p : fc.nest.params()) slots.push_back(p);
      slots.push_back(kPcVar);
      const auto points = domain_points(fc.nest, fc.calibration);
      std::vector<i64> pt(slots.size(), 0);
      for (size_t q = 0; q < slots.size(); ++q) {
        const auto it = fc.calibration.find(slots[q]);
        if (it != fc.calibration.end()) pt[q] = it->second;
      }

      for (const LevelFormula& lf : build_level_formulas(rs, 4)) {
        if (lf.coeffs.empty()) continue;
        degree_seen[lf.degree] = true;
        const int nb = root_branch_count(lf.degree);
        const std::vector<Expr> roots = root_branch_exprs(std::span<const Polynomial>(lf.coeffs));
        std::vector<CompiledExpr> singles;
        for (const Expr& root : roots) singles.emplace_back(root, slots);
        const CompiledExpr multi(roots, slots);
        std::vector<cld> out(static_cast<size_t>(nb)), reused(static_cast<size_t>(nb));
        std::vector<cld> fresh(multi.size()), values(multi.size());
        std::vector<i64> prev;
        for (size_t i = 0; i < points.size(); ++i) {
          for (size_t q = 0; q < points[i].size(); ++q) pt[q] = points[i][q];
          pt.back() = static_cast<i64>(i) + 1;
          multi.eval(pt, CompiledExpr::kAllSlots, fresh, out);
          u64 changed = CompiledExpr::kAllSlots;
          if (!prev.empty()) {
            changed = 0;
            for (size_t q = 0; q < pt.size(); ++q)
              if (pt[q] != prev[q]) changed |= u64{1} << q;
          }
          multi.eval(pt, changed, values, reused);
          prev = pt;
          for (int b = 0; b < nb; ++b) {
            const cld one = singles[static_cast<size_t>(b)].eval(pt);
            for (const cld all : {out[static_cast<size_t>(b)], reused[static_cast<size_t>(b)]})
              ASSERT_TRUE(same_value(one.real(), all.real()) &&
                          same_value(one.imag(), all.imag()))
                  << fc.repro() << "degree " << lf.degree << " branch " << b << " point " << i;
          }
        }
      }
    }
  }
  for (int d = 1; d <= 4; ++d) EXPECT_TRUE(degree_seen[d]) << "no degree-" << d << " level";
}

TEST(CompiledExpr, NonFiniteValuesMatchComplexArithmetic) {
  // Values that became NaN or infinite pass on without arithmetic, except
  // where they reach a divisor: finite / infinite is a (signed) zero.
  const Expr x = Expr::variable("x");
  const Expr y = Expr::variable("y");
  const Expr one = Expr::constant(1);
  const Expr inv = one / x;  // infinite at x = 0
  struct Case {
    Expr e;
    cld (*direct)(cld, cld);
  };
  const std::vector<Case> cases = {
      {one / inv, [](cld a, cld) { return cld{1} / (cld{1} / a); }},
      {y / (inv * y + one), [](cld a, cld b) { return b / ((cld{1} / a) * b + cld{1}); }},
      {(inv + y).sqrt() * y, [](cld a, cld b) { return std::sqrt(cld{1} / a + b) * b; }},
      {y - (x / x).cbrt(), [](cld a, cld b) { return b - principal_cbrt(a / a); }},
      {-y / (x * inv), [](cld a, cld b) { return -b / (a * (cld{1} / a)); }},
  };
  for (size_t c = 0; c < cases.size(); ++c) {
    for (i64 xv : {0, 1, -2}) {
      for (i64 yv : {0, 3, -5}) {
        const cld got = eval(cases[c].e, xv, yv);
        const cld want = cases[c].direct(cld{static_cast<long double>(xv)},
                                         cld{static_cast<long double>(yv)});
        const bool want_finite = std::isfinite(want.real()) && std::isfinite(want.imag());
        ASSERT_EQ(std::isfinite(got.real()) && std::isfinite(got.imag()), want_finite)
            << "case " << c << " x=" << xv << " y=" << yv;
        if (want_finite)
          EXPECT_TRUE(same_value(got.real(), want.real()) && same_value(got.imag(), want.imag()))
              << "case " << c << " x=" << xv << " y=" << yv;
      }
    }
  }
}

TEST(CompiledExpr, EmptyEvalThrows) {
  CompiledExpr ce;
  const i64 pt[] = {0};
  EXPECT_THROW(ce.eval({pt, 1}), SolveError);
  EXPECT_TRUE(ce.empty());
}

TEST(CompiledExpr, DivisionByZeroGivesNonFinite) {
  const Expr e = Expr::constant(1) / Expr::variable("x");
  const cld v = eval(e, 0, 0);
  EXPECT_FALSE(std::isfinite(v.real()) && std::isfinite(v.imag()));
}

}  // namespace
}  // namespace nrc
