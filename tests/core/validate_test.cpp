#include "core/validate.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"

namespace nrc {
namespace {

TEST(Validate, PassesOnModelConformingNest) {
  const Collapsed col = collapse(testutil::triangular_strict());
  ValidateOptions opts;
  opts.check_closed_raw = true;  // strict: unguarded closed form too
  const auto rep = validate_collapsed(col, {{"N", 25}}, opts);
  EXPECT_TRUE(rep.ok) << rep.first_error;
  EXPECT_EQ(rep.points_checked, 24 * 25 / 2);
  EXPECT_EQ(rep.mismatches, 0);
  EXPECT_TRUE(static_cast<bool>(rep));
}

TEST(Validate, MaxPointsLimitsWork) {
  const Collapsed col = collapse(testutil::triangular_strict());
  ValidateOptions opts;
  opts.max_points = 10;
  const auto rep = validate_collapsed(col, {{"N", 50}}, opts);
  EXPECT_TRUE(rep.ok) << rep.first_error;
  EXPECT_EQ(rep.points_checked, 10);
}

TEST(Validate, AlwaysViolatingNestIsRejectedAtCollapseTime) {
  // Empty inner ranges break the ranking polynomial.  A nest that is
  // empty-ranged for every parameter value is refused up front.
  NestSpec bad;
  bad.param("N")
      .loop("i", aff::c(0), aff::v("N"))
      .loop("j", aff::v("i") + 2, aff::v("N"));  // empty for i >= N-2
  EXPECT_THROW(collapse(bad), SolveError);
}

TEST(Validate, ModelParamsChooseWhereCollapseChecksTheModel) {
  // j's range is non-empty only when S > N + 59: no uniform size fits,
  // so collapse() refuses the nest unless told where it holds.
  NestSpec n;
  n.param("N").param("S");
  n.loop("i", aff::c(0), aff::v("N")).loop("j", aff::c(0), aff::v("S") - aff::v("N") - 59);
  EXPECT_THROW(collapse(n), SolveError);
  CollapseOptions opts;
  opts.model_params = {{"N", 3}, {"S", 70}};
  const auto rep = validate_collapsed(collapse(n, opts), {{"N", 3}, {"S", 70}});
  EXPECT_TRUE(rep.ok) << rep.first_error;
  opts.model_params = {{"N", 3}, {"S", 60}};
  EXPECT_THROW(collapse(n, opts), SolveError);
}

TEST(Validate, DetectsModelViolationAtTargetSize) {
  // This nest satisfies the model at a small size (N = 6: the
  // inner range 0 <= j < N - 2i + 12 is never empty) but violates it at
  // N = 40 (empty for i > 26).  The validator must catch the mismatch.
  NestSpec bad;
  bad.param("N")
      .loop("i", aff::c(0), aff::v("N"))
      .loop("j", aff::c(0), aff::v("N") - 2 * aff::v("i") + 12);
  const Collapsed col = collapse(bad);
  ASSERT_TRUE(has_no_empty_ranges(bad, {{"N", 6}}));
  ASSERT_FALSE(has_no_empty_ranges(bad, {{"N", 40}}));
  const auto rep = validate_collapsed(col, {{"N", 40}});
  EXPECT_FALSE(rep.ok);
  EXPECT_GT(rep.mismatches, 0);
  EXPECT_FALSE(rep.first_error.empty());
}

TEST(Validate, AllChecksTogglable) {
  const Collapsed col = collapse(testutil::triangular_inclusive());
  ValidateOptions opts;
  opts.check_rank = false;
  opts.check_recover = false;
  opts.check_recover_search = false;
  opts.check_increment = false;
  const auto rep = validate_collapsed(col, {{"N", 10}}, opts);
  EXPECT_TRUE(rep.ok);
}

TEST(Validate, SweepSizesOnTetrahedral) {
  const Collapsed col = collapse(testutil::tetrahedral_fig6());
  for (i64 N : {2, 3, 4, 7, 11, 16}) {
    const auto rep = validate_collapsed(col, {{"N", N}});
    EXPECT_TRUE(rep.ok) << "N=" << N << ": " << rep.first_error;
  }
}

}  // namespace
}  // namespace nrc
