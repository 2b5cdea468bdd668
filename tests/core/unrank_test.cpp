#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "core/unrank_closed.hpp"
#include "core/unrank_search.hpp"

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

TEST(BranchSelection, FindsConvenientBranchOnAllShapes) {
  for (const auto& sc : testutil::closed_form_shapes()) {
    const RankingSystem rs = build_ranking_system(sc.nest);
    auto lf = build_level_formulas(rs, 4);
    std::vector<std::string> slots = sc.nest.loop_vars();
    for (const auto& pp : sc.nest.params()) slots.push_back(pp);
    slots.push_back(kPcVar);
    const ParamMap cal = sc.nest.params().empty() ? ParamMap{} : default_calibration(sc.nest);
    select_convenient_branches(lf, rs, cal, slots);
    for (size_t k = 0; k < lf.size(); ++k) {
      if (lf[k].coeffs.empty()) continue;
      EXPECT_GE(lf[k].branch, 0) << sc.name << " level " << k;
      EXPECT_FALSE(lf[k].root.empty()) << sc.name << " level " << k;
    }
  }
}

TEST(BranchSelection, CorrelationUsesNegativeSqrtBranch) {
  // Paper §IV-A picks i = -(sqrt(...) - 2N + 1)/2, i.e. the "minus"
  // branch of the quadratic (our branch 1, since the leading coefficient
  // -1/2 is negative: (-b - s)/(2a) with a < 0 is the smaller-sqrt form).
  const RankingSystem rs = build_ranking_system(testutil::triangular_strict());
  auto lf = build_level_formulas(rs, 4);
  std::vector<std::string> slots = {"i", "j", "N", "pc"};
  select_convenient_branches(lf, rs, {{"N", 8}}, slots);
  ASSERT_GE(lf[0].branch, 0);
  // Verify the selected branch reproduces the paper's floor values for a
  // larger N than calibration used.
  const CompiledExpr ce(lf[0].root, slots);
  const i64 N = 50;
  auto expect_i = [&](i64 pc) {
    // Paper formula: floor(-(sqrt(4N^2-4N-8pc+9) - 2N + 1)/2).
    const double v =
        -(std::sqrt(4.0 * N * N - 4.0 * N - 8.0 * pc + 9.0) - 2.0 * N + 1.0) / 2.0;
    return static_cast<i64>(std::floor(v + 1e-9));
  };
  for (i64 pc : {1, 2, 10, 49, 50, 500, 1224, 1225}) {
    const i64 pt[] = {0, 0, N, pc};
    const cld z = ce.eval({pt, 4});
    EXPECT_EQ(static_cast<i64>(std::floor(z.real() + 1e-9L)), expect_i(pc)) << pc;
  }
}

TEST(DefaultCalibration, ProducesUsableDomains) {
  for (const auto& sc : testutil::closed_form_shapes()) {
    if (sc.nest.params().empty()) continue;
    const ParamMap cal = default_calibration(sc.nest);
    EXPECT_GE(count_domain_brute(sc.nest, cal), 4) << sc.name;
    EXPECT_TRUE(has_no_empty_ranges(sc.nest, cal)) << sc.name;
  }
}

TEST(DefaultCalibration, RejectsFarShiftedQuarticWithTheSameMessage) {
  // Every candidate domain of i=0..N, j=i..N+64, k=j..N+64, l=k..N+64 has
  // millions of points; each is rejected after 4001 of them.
  NestSpec nest;
  nest.param("N")
      .loop("i", aff::c(0), aff::v("N"))
      .loop("j", aff::v("i"), aff::v("N") + 64)
      .loop("k", aff::v("j"), aff::v("N") + 64)
      .loop("l", aff::v("k"), aff::v("N") + 64);
  try {
    (void)collapse(nest);
    FAIL() << "collapse accepted a nest no calibration candidate fits";
  } catch (const SolveError& e) {
    EXPECT_EQ(std::string(e.what()),
              "default_calibration: no uniform parameter assignment yields a usable "
              "calibration domain; pass CollapseOptions::calibration explicitly");
  }
}

}  // namespace
}  // namespace nrc
