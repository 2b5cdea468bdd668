// Every execution scheme must visit exactly the original nest's
// iteration set — the fundamental safety property of the transformation.
#include "pipeline/dispatch.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <mutex>

#include "../test_util.hpp"

namespace nrc {
namespace {

using Tuple = std::vector<i64>;
using testutil::run_covers;

class ExecuteSchemes : public ::testing::TestWithParam<int> {};  // threads

TEST_P(ExecuteSchemes, PerThreadCoversDomain) {
  EXPECT_TRUE(run_covers(testutil::tetrahedral_fig6(), {{"N", 14}},
                         Schedule::per_thread({GetParam()})));
}

TEST_P(ExecuteSchemes, PerIterationStaticCoversDomain) {
  EXPECT_TRUE(run_covers(testutil::triangular_strict(), {{"N", 40}},
                         Schedule::per_iteration(OmpSchedule::Static, {GetParam()})));
}

TEST_P(ExecuteSchemes, PerIterationDynamicCoversDomain) {
  EXPECT_TRUE(run_covers(testutil::trapezoidal_skewed(), {{"T", 9}, {"N", 7}},
                         Schedule::per_iteration(OmpSchedule::Dynamic, {GetParam()})));
}

TEST_P(ExecuteSchemes, ChunkedCoversDomain) {
  for (i64 chunk : {1, 3, 16, 1000})
    EXPECT_TRUE(run_covers(testutil::triangular_lower(), {{"N", 33}},
                           Schedule::chunked(chunk, {GetParam()})));
}

INSTANTIATE_TEST_SUITE_P(Threads, ExecuteSchemes, ::testing::Values(1, 2, 7, 12));

TEST(ExecuteSchemes, SerialPreservesLexicographicOrder) {
  const NestSpec nest = testutil::tetrahedral_ordered();
  const Collapsed col = collapse(nest);
  const ParamMap p{{"N", 8}};
  const CollapsedEval cn = col.bind(p);
  std::vector<Tuple> order;
  nrc::run(cn, Schedule::serial_sim(), [&](std::span<const i64> idx) {
    order.emplace_back(idx.begin(), idx.end());
  });
  EXPECT_EQ(order, domain_points(nest, p));
}

TEST(ExecuteSchemes, SerialSimMatchesSerialForAnyChunkCount) {
  const NestSpec nest = testutil::triangular_strict();
  const Collapsed col = collapse(nest);
  const ParamMap p{{"N", 25}};
  const CollapsedEval cn = col.bind(p);
  const auto expect = domain_points(nest, p);
  for (int sims : {1, 2, 5, 12, 100, 100000}) {
    std::vector<Tuple> order;
    nrc::run(cn, Schedule::serial_sim(sims), [&](std::span<const i64> idx) {
      order.emplace_back(idx.begin(), idx.end());
    });
    EXPECT_EQ(order, expect) << "sims=" << sims;
  }
}

TEST(ExecuteSchemes, PerThreadBlocksAreContiguousRanks) {
  // Each thread's visited pc values must be one contiguous range —
  // that's the schedule(static) semantics §V relies on.
  const NestSpec nest = testutil::triangular_strict();
  const Collapsed col = collapse(nest);
  const CollapsedEval cn = col.bind({{"N", 30}});
  std::mutex mu;
  std::map<int, std::vector<i64>> per_thread;
  nrc::run(
      cn, Schedule::per_thread({4}),
      [&](std::span<const i64> idx) {
        const i64 r = cn.rank(idx);
        std::lock_guard<std::mutex> lock(mu);
        per_thread[omp_get_thread_num()].push_back(r);
      });
  for (auto& [t, ranks] : per_thread) {
    std::sort(ranks.begin(), ranks.end());
    for (size_t q = 1; q < ranks.size(); ++q)
      EXPECT_EQ(ranks[q], ranks[q - 1] + 1) << "thread " << t;
  }
}

// ---------------------------------------------------------------------------
// The range schemes walk tuple bodies through one specialised walk per
// depth 1-4 and a depth-generic walk beyond; every branch must visit
// exactly the domain, in odometer order on one thread.

/// A rectangular tower over a triangular base, `depth` levels deep.
NestSpec triangle_tower(int depth) {
  NestSpec n;
  n.param("N");
  n.loop("t0", aff::c(0), aff::v("N"));
  n.loop("t1", aff::v("t0"), aff::v("N"));
  for (int k = 2; k < depth; ++k) n.loop("t" + std::to_string(k), aff::c(0), aff::c(2));
  return n;
}

TEST(TupleWalk, EveryDepthVisitsTheExactDomain) {
  NestSpec line;
  line.param("N").loop("i", aff::c(2), aff::v("N") + 5);
  const std::vector<std::pair<NestSpec, i64>> nests = {
      {line, 9},
      {testutil::triangular_strict(), 9},
      {testutil::tetrahedral_fig6(), 7},
      {testutil::simplex_4d(), 6},
      {testutil::simplex_5d(), 5},
      {triangle_tower(kMaxDepth), 3},
  };
  for (const auto& [nest, n] : nests) {
    const ParamMap p{{"N", n}};
    const CollapsedEval cn = collapse(nest).bind(p);
    ASSERT_EQ(cn.depth(), nest.depth());
    const size_t depth = static_cast<size_t>(cn.depth());
    const std::vector<Tuple> expect = domain_points(nest, p);
    const i64 total = cn.trip_count();
    for (const int threads : {1, 4}) {
      std::vector<Schedule> schedules{Schedule::per_thread({threads})};
      for (const i64 chunk : {i64{1}, i64{7}, total + 3}) {
        schedules.push_back(Schedule::chunked(chunk, {threads}));
        schedules.push_back(Schedule::chunked(chunk, {threads}, OmpSchedule::Dynamic));
        schedules.push_back(Schedule::row_segments_chunked(chunk, {threads}));
      }
      for (const Schedule& s : schedules) {
        std::mutex mu;
        std::vector<Tuple> got;
        i64 wrong_size = 0;
        nrc::run(cn, s, [&](std::span<const i64> idx) {
          std::lock_guard<std::mutex> lock(mu);
          if (idx.size() != depth) ++wrong_size;
          got.emplace_back(idx.begin(), idx.end());
        });
        if (threads > 1) std::sort(got.begin(), got.end());
        EXPECT_EQ(wrong_size, 0) << "depth " << depth << " " << s.describe();
        EXPECT_EQ(got, expect) << "depth " << depth << " " << s.describe();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Integer edge cases surfaced by the executor fuzzer (PR 4).

constexpr i64 kI64Max = std::numeric_limits<i64>::max();

TEST(HostileChunks, EveryChunkedScheduleCoversDomain) {
  // One table for the chunk extremes, run through nrc::run
  // with each scheme's native body shape:
  //   * near the i64 maximum: ceil(total / chunk) and lo + chunk - 1
  //     must not wrap (the naive forms made the chunk count
  //     non-positive and visited ZERO iterations without an error);
  //   * above total: one chunk covers the whole range;
  //   * 0 and below: the documented fallback (the unchunked parent
  //     scheme), in the static and the dynamic flavour alike.
  const i64 kI64Min = std::numeric_limits<i64>::min();
  const ParamMap p{{"N", 11}};
  for (const NestSpec& nest : {testutil::triangular_strict(), testutil::triangular_lower(),
                               testutil::tetrahedral_fig6()}) {
    const i64 total = collapse(nest).bind(p).trip_count();
    for (const i64 c : {kI64Max, kI64Max - 1, kI64Max / 2, kI64Max / 3, total + 1, 2 * total,
                        i64{0}, i64{-1}, kI64Min}) {
      for (const Schedule& s :
           {Schedule::chunked(c, {4}), Schedule::chunked(c, {4}, OmpSchedule::Dynamic),
            Schedule::row_segments_chunked(c, {4}),
            Schedule::row_segments_chunked(c, {4}, OmpSchedule::Dynamic),
            Schedule::simd_blocks_chunked(4, c, {3}), Schedule::simd_blocks_chunked(8, c, {4})})
        EXPECT_TRUE(run_covers(nest, p, s)) << "total=" << total;
    }
  }
}

TEST(ExecuteSchemes, SinglePointDomainSafeAcrossAllSchemes) {
  // The smallest domain bind() admits (trip_count() == 0 is
  // unrepresentable: bind() rejects empty domains, which the recovery
  // fuzzer asserts) must flow through every scheme exactly once —
  // including the chunked/simd/warp parameter extremes.
  NestSpec n;
  n.param("N").loop("i", aff::c(0), aff::v("N")).loop("j", aff::v("i"), aff::v("N"));
  for (const Schedule& s :
       {Schedule::per_iteration(OmpSchedule::Static, {7}), Schedule::per_thread({8}),
        Schedule::chunked(kI64Max, {7}), Schedule::chunked(kI64Max, {7}, OmpSchedule::Dynamic),
        Schedule::row_segments({7}), Schedule::simd_blocks(8, {7}), Schedule::warp_sim(64, {7}),
        Schedule::serial_sim(1000)})
    EXPECT_TRUE(run_covers(n, {{"N", 1}}, s));
}

}  // namespace
}  // namespace nrc
