#include <gtest/gtest.h>

#include <cmath>

#include "../test_util.hpp"
#include "core/unrank_closed.hpp"
#include "core/unrank_search.hpp"
#include "core/validate.hpp"

namespace nrc {
namespace {

TEST(UnrankSearch, RoundTripOnAllShapes) {
  for (const auto& sc : testutil::closed_form_shapes()) {
    const RankingSystem rs = build_ranking_system(sc.nest);
    const ParamMap p = testutil::uniform_params(sc.nest, 6);
    if (!has_no_empty_ranges(sc.nest, p)) continue;
    const auto pts = domain_points(sc.nest, p);
    for (size_t q = 0; q < pts.size(); ++q) {
      EXPECT_EQ(unrank_by_search(rs, p, static_cast<i64>(q) + 1), pts[q])
          << sc.name << " pc=" << q + 1;
    }
  }
}

TEST(UnrankSearch, WorksBeyondClosedFormDegreeLimit) {
  // 5-deep simplex: level-0 equation has degree 5; search is exact anyway.
  const NestSpec nest = testutil::simplex_5d();
  const RankingSystem rs = build_ranking_system(nest);
  const ParamMap p{{"N", 5}};
  const auto pts = domain_points(nest, p);
  for (size_t q = 0; q < pts.size(); ++q)
    EXPECT_EQ(unrank_by_search(rs, p, static_cast<i64>(q) + 1), pts[q]);
}

TEST(UnrankSearch, InvalidPcThrows) {
  const RankingSystem rs = build_ranking_system(testutil::triangular_strict());
  EXPECT_THROW(unrank_by_search(rs, {{"N", 5}}, 0), SolveError);
}

TEST(LevelFormulas, DegreesMatchShape) {
  {
    const RankingSystem rs = build_ranking_system(testutil::triangular_strict());
    const auto lf = build_level_formulas(rs, 4);
    ASSERT_EQ(lf.size(), 2u);
    EXPECT_EQ(lf[0].degree, 2);  // quadratic in i (paper Fig. 3)
    EXPECT_EQ(lf[1].degree, 1);  // linear in j
  }
  {
    const RankingSystem rs = build_ranking_system(testutil::tetrahedral_fig6());
    const auto lf = build_level_formulas(rs, 4);
    ASSERT_EQ(lf.size(), 3u);
    EXPECT_EQ(lf[0].degree, 3);  // cubic in i (paper Fig. 7)
    EXPECT_EQ(lf[1].degree, 2);
    EXPECT_EQ(lf[2].degree, 1);
  }
  {
    const RankingSystem rs = build_ranking_system(testutil::simplex_5d());
    const auto lf = build_level_formulas(rs, 4);
    EXPECT_TRUE(lf[0].coeffs.empty());   // degree 5: no closed form
    EXPECT_FALSE(lf[1].coeffs.empty());  // degree 4: still eligible
  }
}

TEST(LevelFormulas, CoefficientsReconstructTheEquation) {
  // Sum of coeffs[e] * x^e must equal prefix_rank - pc.
  const RankingSystem rs = build_ranking_system(testutil::triangular_strict());
  const auto lf = build_level_formulas(rs, 4);
  const Polynomial x = Polynomial::variable("i");
  Polynomial rebuilt;
  for (size_t e = 0; e < lf[0].coeffs.size(); ++e)
    rebuilt += lf[0].coeffs[e] * x.pow(static_cast<unsigned>(e));
  EXPECT_EQ(rebuilt, rs.prefix_rank[0] - Polynomial::variable(kPcVar));
}

TEST(IntervalRoot, FoundOnEveryShapeLevel) {
  // Every closed-form level of every shape has a real root in its range
  // at every pc: the unguarded estimate never comes up empty.
  for (const auto& sc : testutil::closed_form_shapes()) {
    const ParamMap p = testutil::uniform_params(sc.nest, 7);
    if (!has_no_empty_ranges(sc.nest, p)) continue;
    const CollapsedEval cn = collapse(sc.nest).bind(p);
    std::vector<i64> raw(static_cast<size_t>(cn.depth()));
    for (i64 pc = 1; pc <= cn.trip_count(); ++pc)
      ASSERT_TRUE(cn.recover_closed_raw(pc, raw)) << sc.name << " pc=" << pc;
  }
}

TEST(IntervalRoot, CorrelationMatchesThePaperFormula) {
  // Paper §IV-A recovers i = floor(-(sqrt(4N^2-4N-8pc+9) - 2N + 1)/2): the
  // root of the level equation inside [0, N - 1).
  const CollapsedEval cn = collapse(testutil::triangular_strict()).bind({{"N", 50}});
  const i64 N = 50;
  auto paper_i = [&](i64 pc) {
    const double v =
        -(std::sqrt(4.0 * N * N - 4.0 * N - 8.0 * pc + 9.0) - 2.0 * N + 1.0) / 2.0;
    return static_cast<i64>(std::floor(v + 1e-9));
  };
  std::vector<i64> raw(2);
  for (i64 pc : {1, 2, 10, 49, 50, 500, 1224, 1225}) {
    ASSERT_TRUE(cn.recover_closed_raw(pc, raw)) << pc;
    EXPECT_EQ(raw[0], paper_i(pc)) << pc;
  }
}

TEST(ShiftedQuartic, FarShiftsBuildAndValidate) {
  // i=0..N, j=i..N+s, k=j..N+s, l=k..N+s: collapse() samples no domain,
  // so the far shifts build like s = 0 and recover exactly.
  for (const int s : {32, 64}) {
    NestSpec nest;
    nest.param("N")
        .loop("i", aff::c(0), aff::v("N"))
        .loop("j", aff::v("i"), aff::v("N") + s)
        .loop("k", aff::v("j"), aff::v("N") + s)
        .loop("l", aff::v("k"), aff::v("N") + s);
    const Collapsed col = collapse(nest);
    EXPECT_TRUE(col.fully_closed_form()) << s;
    const auto rep = validate_collapsed(col, {{"N", 3}});
    EXPECT_TRUE(rep.ok) << "s=" << s << ": " << rep.first_error;
  }
}

}  // namespace
}  // namespace nrc
