#include "core/ranking.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "polyhedral/domain.hpp"

namespace nrc {
namespace {

TEST(Ranking, PaperCorrelationFormulas) {
  // Paper §III: r(i,j) = (2iN + 2j - i^2 - 3i)/2 with
  // r(0,1)=1, r(0,2)=2, r(0,3)=3, r(0,N-1)=N-1, r(1,2)=N,
  // r(N-2,N-1)=(N-1)N/2.
  const RankingSystem rs = build_ranking_system(testutil::triangular_strict());
  const i64 N = 20;
  auto r = [&](i64 i, i64 j) {
    return rs.rank.eval_i128({{"i", i}, {"j", j}, {"N", N}});
  };
  EXPECT_EQ(r(0, 1), 1);
  EXPECT_EQ(r(0, 2), 2);
  EXPECT_EQ(r(0, 3), 3);
  EXPECT_EQ(r(0, N - 1), N - 1);
  EXPECT_EQ(r(1, 2), N);
  EXPECT_EQ(r(N - 2, N - 1), (N - 1) * N / 2);
}

TEST(Ranking, PaperFig6Formula) {
  // Paper §IV-C: r(i,j,k) = (6k - 3j^2 + 6ij + 3j + i^3 + 3i^2 + 2i + 6)/6.
  const RankingSystem rs = build_ranking_system(testutil::tetrahedral_fig6());
  const Polynomial i = Polynomial::variable("i");
  const Polynomial j = Polynomial::variable("j");
  const Polynomial k = Polynomial::variable("k");
  const Polynomial expect = (k * Rational(6) - j.pow(2) * Rational(3) + i * j * Rational(6) +
                             j * Rational(3) + i.pow(3) + i.pow(2) * Rational(3) +
                             i * Rational(2) + Polynomial(6)) /
                            Rational(6);
  EXPECT_EQ(rs.rank, expect) << rs.rank.str();
  // Total: (N^3 - N)/6 = r(N-2, N-2, N-2) per the paper.
  const Polynomial N = Polynomial::variable("N");
  EXPECT_EQ(rs.total, (N.pow(3) - N) / Rational(6));
}

TEST(Ranking, RankMatchesWalkOrderOnAllShapes) {
  for (const auto& sc : testutil::closed_form_shapes()) {
    const RankingSystem rs = build_ranking_system(sc.nest);
    const ParamMap p = testutil::uniform_params(sc.nest, 6);
    if (!has_no_empty_ranges(sc.nest, p)) continue;
    i64 pos = 0;
    walk_domain(sc.nest, p, [&](std::span<const i64> pt) {
      ++pos;
      std::map<std::string, i64> vals(p.begin(), p.end());
      for (int k = 0; k < sc.nest.depth(); ++k)
        vals[sc.nest.at(k).var] = pt[static_cast<size_t>(k)];
      EXPECT_EQ(rs.rank.eval_i128(vals), pos) << sc.name;
    });
  }
}

TEST(Ranking, TotalEqualsSubtreeRoot) {
  // Cross-check of the two independent constructions of the trip count:
  // r(lexmax) vs the S_0 nested summation.
  for (const auto& sc : testutil::closed_form_shapes()) {
    const RankingSystem rs = build_ranking_system(sc.nest);
    EXPECT_EQ(rs.total, substitute_trailing_lexmax(rs.rank, rs.nest, -1)) << sc.name;
  }
}

TEST(Ranking, PrefixRankAgreesWithRankAtLexmin) {
  // prefix_rank[k](i_0..i_k) == rank at (i_0..i_k, trailing lexmins).
  const NestSpec nest = testutil::tetrahedral_fig6();
  const RankingSystem rs = build_ranking_system(nest);
  const i64 N = 8;
  walk_domain(nest, {{"N", N}}, [&](std::span<const i64> pt) {
    // Level 1 prefix (i, j): trailing lexmin of k is j.
    const i128 via_prefix = rs.prefix_rank[1].eval_i128(
        {{"i", pt[0]}, {"j", pt[1]}, {"N", N}});
    const i128 via_rank = rs.rank.eval_i128(
        {{"i", pt[0]}, {"j", pt[1]}, {"k", pt[1]}, {"N", N}});
    EXPECT_EQ(via_prefix, via_rank);
  });
}

TEST(Ranking, MonotoneInEachIndex) {
  // Strict monotonicity along each level with trailing lexmins (the
  // property the unranking search relies on).
  const NestSpec nest = testutil::tetrahedral_ordered();
  const RankingSystem rs = build_ranking_system(nest);
  const i64 N = 9;
  for (i64 i = 0; i + 1 < N; ++i) {
    EXPECT_LT(rs.prefix_rank[0].eval_i128({{"i", i}, {"N", N}}),
              rs.prefix_rank[0].eval_i128({{"i", i + 1}, {"N", N}}));
  }
  for (i64 j = 2; j + 1 < N; ++j) {
    EXPECT_LT(rs.prefix_rank[1].eval_i128({{"i", 2}, {"j", j}, {"N", N}}),
              rs.prefix_rank[1].eval_i128({{"i", 2}, {"j", j + 1}, {"N", N}}));
  }
}

TEST(Ranking, FirstIterationHasRankOne) {
  for (const auto& sc : testutil::closed_form_shapes()) {
    const RankingSystem rs = build_ranking_system(sc.nest);
    const ParamMap p = testutil::uniform_params(sc.nest, 7);
    const auto mn = lexmin_point(sc.nest, p);
    std::map<std::string, i64> vals(p.begin(), p.end());
    for (int k = 0; k < sc.nest.depth(); ++k)
      vals[sc.nest.at(k).var] = mn[static_cast<size_t>(k)];
    EXPECT_EQ(rs.rank.eval_i128(vals), 1) << sc.name;
  }
}

TEST(Ranking, ReservedPcNameRejected) {
  NestSpec bad1;
  bad1.param("pc").loop("i", aff::c(0), aff::v("pc"));
  EXPECT_THROW(build_ranking_system(bad1), SpecError);
  NestSpec bad2;
  bad2.param("N").loop("pc", aff::c(0), aff::v("N"));
  EXPECT_THROW(build_ranking_system(bad2), SpecError);
}

}  // namespace
}  // namespace nrc
