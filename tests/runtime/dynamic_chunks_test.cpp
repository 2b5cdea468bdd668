#include <gtest/gtest.h>

#include <mutex>

#include "../test_util.hpp"
#include "pipeline/dispatch.hpp"

namespace nrc {
namespace {

// The dynamic flavour of the chunked schemes: threads claim chunks from
// one shared counter, one recovery per claim.
constexpr OmpSchedule kDyn = OmpSchedule::Dynamic;

TEST(DynamicChunks, CoversDomainForVariousChunks) {
  // 0 is the documented per-thread fallback; the rest split the domain
  // into many chunks (1, 7), a few (100) or one (100000).
  for (i64 chunk : {i64{0}, i64{1}, i64{7}, i64{100}, i64{100000}}) {
    EXPECT_TRUE(testutil::run_covers(testutil::triangular_strict(), {{"N", 35}},
                                     Schedule::chunked(chunk, {4}, kDyn)));
    EXPECT_TRUE(testutil::run_covers(testutil::triangular_strict(), {{"N", 35}},
                                     Schedule::row_segments_chunked(chunk, {4}, kDyn)));
  }
}

TEST(DynamicChunks, ComputesSameReductionAsSerial) {
  const NestSpec nest = testutil::tetrahedral_fig6();
  const Collapsed col = collapse(nest);
  const ParamMap p{{"N", 13}};
  const CollapsedEval cn = col.bind(p);

  long double expect = 0.0L;
  walk_domain(nest, p, [&](std::span<const i64> t) {
    expect += static_cast<long double>(t[0] * 100 + t[1] * 10 + t[2]);
  });

  std::mutex mu;
  long double got = 0.0L;
  nrc::run(
      cn, Schedule::chunked(16, {8}, kDyn),
      [&](std::span<const i64> t) {
        const long double v = static_cast<long double>(t[0] * 100 + t[1] * 10 + t[2]);
        std::lock_guard<std::mutex> lock(mu);
        got += v;
      });
  EXPECT_EQ(static_cast<double>(got), static_cast<double>(expect));
}

TEST(DynamicChunks, SingleThreadPreservesOrderWithinAndAcrossChunks) {
  // One thread claims chunks 0, 1, 2, ... in turn and walks each in
  // rank order, so the visits reproduce the original nest's order.
  const NestSpec nest = testutil::triangular_lower();
  const Collapsed col = collapse(nest);
  const CollapsedEval cn = col.bind({{"N", 12}});
  std::vector<std::pair<i64, i64>> order;
  nrc::run(cn, Schedule::chunked(7, {1}, kDyn),
           [&](std::span<const i64> ij) { order.emplace_back(ij[0], ij[1]); });
  const auto pts = domain_points(nest, {{"N", 12}});
  ASSERT_EQ(order.size(), pts.size());
  for (size_t q = 0; q < pts.size(); ++q) {
    EXPECT_EQ(order[q].first, pts[q][0]);
    EXPECT_EQ(order[q].second, pts[q][1]);
  }
}

TEST(RecoveryStats, CountersAccumulatePerLevel) {
  const Collapsed col = collapse(testutil::tetrahedral_fig6());
  const CollapsedEval cn = col.bind({{"N", 20}});
  RecoveryStats stats;
  std::vector<i64> idx(3);
  const i64 total = cn.trip_count();
  for (i64 pc = 1; pc <= total; ++pc) cn.recover(pc, idx, &stats);
  // Two non-innermost levels per recovery (innermost is linear, untracked).
  EXPECT_EQ(stats.levels(), 2 * total);
  // The guarded paths must be exact and overwhelmingly closed-form.
  EXPECT_GT(stats.closed_form, 0);
  EXPECT_EQ(stats.fallback, 0);
  // Merging works.
  RecoveryStats more = stats;
  more += stats;
  EXPECT_EQ(more.levels(), 4 * total);
}

TEST(RecoveryStats, SearchOnlyEvalReportsFallback) {
  CollapseOptions opts;
  opts.build_closed_form = false;
  const Collapsed col = collapse(testutil::triangular_strict(), opts);
  const CollapsedEval cn = col.bind({{"N", 10}});
  RecoveryStats stats;
  std::vector<i64> idx(2);
  cn.recover(5, idx, &stats);
  EXPECT_EQ(stats.fallback, 1);  // level 0 by search; innermost untracked
  EXPECT_EQ(stats.closed_form, 0);
}

}  // namespace
}  // namespace nrc
