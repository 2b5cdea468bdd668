#include "pipeline/dispatch.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <mutex>

#include "../test_util.hpp"

namespace nrc {
namespace {

struct Segment {
  std::vector<i64> prefix;
  i64 j0, j1;
};

/// Expand segments back to points and compare with the brute walk.
void expect_covers(const std::vector<Segment>& segs, const NestSpec& nest,
                   const ParamMap& params) {
  std::vector<std::vector<i64>> pts;
  for (const auto& s : segs) {
    EXPECT_LT(s.j0, s.j1) << "empty segment";
    for (i64 j = s.j0; j < s.j1; ++j) {
      auto p = s.prefix;
      p.push_back(j);
      pts.push_back(std::move(p));
    }
  }
  std::sort(pts.begin(), pts.end());
  auto expect = domain_points(nest, params);
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(pts, expect);
}

class SegmentThreads : public ::testing::TestWithParam<int> {};

TEST_P(SegmentThreads, CoversDomainOnAllShapes) {
  for (const auto& sc : testutil::closed_form_shapes()) {
    const ParamMap p = testutil::uniform_params(sc.nest, 7);
    if (!has_no_empty_ranges(sc.nest, p)) continue;
    const Collapsed col = collapse(sc.nest);
    const CollapsedEval cn = col.bind(p);
    std::mutex mu;
    std::vector<Segment> segs;
    nrc::run(
        cn, Schedule::row_segments({GetParam()}),
        [&](std::span<const i64> prefix, i64 j0, i64 j1) {
          std::lock_guard<std::mutex> lock(mu);
          segs.push_back({{prefix.begin(), prefix.end()}, j0, j1});
        });
    expect_covers(segs, sc.nest, p);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, SegmentThreads, ::testing::Values(1, 3, 12));

TEST(Segments, SingleThreadSegmentsAreMaximalRows) {
  // With one thread, every segment must span a full row of the triangle.
  const NestSpec tri = testutil::triangular_strict();
  const Collapsed col = collapse(tri);
  const CollapsedEval cn = col.bind({{"N", 9}});
  std::vector<Segment> segs;
  nrc::run(
      cn, Schedule::row_segments({1}),
      [&](std::span<const i64> prefix, i64 j0, i64 j1) {
        segs.push_back({{prefix.begin(), prefix.end()}, j0, j1});
      });
  ASSERT_EQ(segs.size(), 8u);  // N-1 rows
  for (const auto& s : segs) {
    EXPECT_EQ(s.j0, s.prefix[0] + 1);
    EXPECT_EQ(s.j1, 9);
  }
}

TEST(Segments, MidRowCutsOnlyAtBlockBoundaries) {
  const NestSpec tri = testutil::triangular_inclusive();
  const Collapsed col = collapse(tri);
  const CollapsedEval cn = col.bind({{"N", 31}});
  const int threads = 4;
  std::mutex mu;
  std::vector<Segment> segs;
  nrc::run(
      cn, Schedule::row_segments({threads}),
      [&](std::span<const i64> prefix, i64 j0, i64 j1) {
        std::lock_guard<std::mutex> lock(mu);
        segs.push_back({{prefix.begin(), prefix.end()}, j0, j1});
      });
  expect_covers(segs, tri, {{"N", 31}});
  // At most 2 partial segments per thread boundary: total segments
  // bounded by rows + 2 * threads.
  EXPECT_LE(segs.size(), 31u + 2u * threads);
}

TEST(Segments, SerialSimMatchesOrderForAnyChunkCount) {
  const NestSpec nest = testutil::tetrahedral_fig6();
  const Collapsed col = collapse(nest);
  const CollapsedEval cn = col.bind({{"N", 9}});
  const auto expect = domain_points(nest, {{"N", 9}});
  for (int sims : {1, 2, 12, 50}) {
    std::vector<std::vector<i64>> pts;
    nrc::run(cn, Schedule::serial_sim(sims), [&](std::span<const i64> prefix, i64 j0,
                                                 i64 j1) {
      for (i64 j = j0; j < j1; ++j) {
        std::vector<i64> p(prefix.begin(), prefix.end());
        p.push_back(j);
        pts.push_back(std::move(p));
      }
    });
    EXPECT_EQ(pts, expect) << "sims=" << sims;
  }
}

TEST(Segments, Depth1NestGivesEmptyPrefix) {
  NestSpec n;
  n.param("N").loop("i", aff::c(3), aff::v("N"));
  const Collapsed col = collapse(n);
  const CollapsedEval cn = col.bind({{"N", 10}});
  std::vector<Segment> segs;
  nrc::run(
      cn, Schedule::row_segments({1}),
      [&](std::span<const i64> prefix, i64 j0, i64 j1) {
        segs.push_back({{prefix.begin(), prefix.end()}, j0, j1});
      });
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_TRUE(segs[0].prefix.empty());
  EXPECT_EQ(segs[0].j0, 3);
  EXPECT_EQ(segs[0].j1, 10);
}

TEST(Segments, SegmentSumMatchesElementwiseSum) {
  const NestSpec nest = testutil::trapezoidal_skewed();
  const Collapsed col = collapse(nest);
  const ParamMap p{{"T", 40}, {"N", 17}};
  const CollapsedEval cn = col.bind(p);
  long double expect = 0.0L;
  walk_domain(nest, p, [&](std::span<const i64> t) {
    expect += static_cast<long double>(5 * t[0] - t[1]);
  });
  std::mutex mu;
  long double got = 0.0L;
  nrc::run(
      cn, Schedule::row_segments({6}),
      [&](std::span<const i64> prefix, i64 j0, i64 j1) {
        long double local = 0.0L;
        for (i64 j = j0; j < j1; ++j)
          local += static_cast<long double>(5 * prefix[0] - j);
        std::lock_guard<std::mutex> lock(mu);
        got += local;
      });
  EXPECT_EQ(static_cast<double>(got), static_cast<double>(expect));
}

}  // namespace
}  // namespace nrc
