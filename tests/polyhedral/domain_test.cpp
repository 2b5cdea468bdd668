#include "polyhedral/domain.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"

namespace nrc {
namespace {

TEST(Domain, WalkOrderIsLexicographic) {
  const auto pts = domain_points(testutil::triangular_strict(), {{"N", 4}});
  const std::vector<std::vector<i64>> expect = {{0, 1}, {0, 2}, {0, 3},
                                                {1, 2}, {1, 3}, {2, 3}};
  EXPECT_EQ(pts, expect);
}

TEST(Domain, CountMatchesClosedForms) {
  EXPECT_EQ(count_domain_brute(testutil::triangular_strict(), {{"N", 10}}), 45);
  EXPECT_EQ(count_domain_brute(testutil::triangular_inclusive(), {{"N", 10}}), 55);
  EXPECT_EQ(count_domain_brute(testutil::tetrahedral_fig6(), {{"N", 10}}),
            (10 * 10 * 10 - 10) / 6);
  EXPECT_EQ(count_domain_brute(testutil::rectangular(), {{"N", 3}, {"M", 7}}), 21);
}

TEST(Domain, EmptyDomain) {
  EXPECT_EQ(count_domain_brute(testutil::triangular_strict(), {{"N", 1}}), 0);
  EXPECT_TRUE(domain_points(testutil::triangular_strict(), {{"N", 0}}).empty());
}

TEST(Domain, RankBrute) {
  const NestSpec tri = testutil::triangular_strict();
  const ParamMap p{{"N", 5}};
  const auto pts = domain_points(tri, p);
  for (size_t q = 0; q < pts.size(); ++q)
    EXPECT_EQ(rank_brute(tri, p, pts[q]), static_cast<i64>(q) + 1);
  const std::vector<i64> outside{4, 1};
  EXPECT_EQ(rank_brute(tri, p, outside), 0);
}

TEST(Domain, HasNoEmptyRangesDetectsViolations) {
  EXPECT_TRUE(has_no_empty_ranges(testutil::triangular_strict(), {{"N", 6}}));
  // j in [i+2, N): empty when i = N-2 -> model violation.
  NestSpec bad;
  bad.param("N")
      .loop("i", aff::c(0), aff::v("N") - 1)
      .loop("j", aff::v("i") + 2, aff::v("N"));
  EXPECT_FALSE(has_no_empty_ranges(bad, {{"N", 6}}));
  // The walk reaches the empty range (at i = 4) after 4+3+2+1 = 10
  // points; a walk stopped before that sees none.
  EXPECT_FALSE(has_no_empty_ranges(bad, {{"N", 6}}, 11));
  EXPECT_TRUE(has_no_empty_ranges(bad, {{"N", 6}}, 10));
}

TEST(Domain, WalkSkipsEmptyInnerRanges) {
  // Same "bad" nest: the walker must still enumerate the valid points.
  NestSpec bad;
  bad.param("N")
      .loop("i", aff::c(0), aff::v("N") - 1)
      .loop("j", aff::v("i") + 2, aff::v("N"));
  const auto pts = domain_points(bad, {{"N", 4}});
  const std::vector<std::vector<i64>> expect = {{0, 2}, {0, 3}, {1, 3}};
  EXPECT_EQ(pts, expect);
}

TEST(Domain, WalkValidatesSpec) {
  NestSpec invalid;
  invalid.loop("i", aff::c(0), aff::v("missing"));
  EXPECT_THROW(count_domain_brute(invalid, {}), SpecError);
}

TEST(Domain, ParamFreeNest) {
  NestSpec n;
  n.loop("i", aff::c(0), aff::c(3)).loop("j", aff::v("i"), aff::c(3));
  EXPECT_EQ(count_domain_brute(n, {}), 6);
}

TEST(Domain, DeepNestWalk) {
  EXPECT_EQ(count_domain_brute(testutil::simplex_4d(), {{"N", 6}}),
            6 * 7 * 8 * 9 / 24);  // C(N+3, 4)
  EXPECT_EQ(count_domain_brute(testutil::simplex_5d(), {{"N", 5}}),
            5 * 6 * 7 * 8 * 9 / 120);  // C(N+4, 5)
}

}  // namespace
}  // namespace nrc
