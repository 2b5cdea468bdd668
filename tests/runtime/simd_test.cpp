#include "pipeline/dispatch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <string>
#include <vector>

#include "../test_util.hpp"

namespace nrc {
namespace {

TEST(SimdBlocks, CoversDomainForVariousLaneCounts) {
  // N = 80 gives each of the 4 threads 790 points, so even the widest
  // blocks fill several times: the 8-lane column fills then overshoot
  // the last lane of a kMaxSimdLanes block, which the sanitizer builds
  // check stays inside the columns.
  for (int vlen : {1, 2, 4, 8, 13, 64, kMaxSimdLanes - 1, kMaxSimdLanes})
    EXPECT_TRUE(testutil::run_covers(testutil::triangular_strict(), {{"N", 80}},
                                     Schedule::simd_blocks(vlen, {4})));
}

TEST(SimdBlocks, LanesWithinBlockAreConsecutive) {
  const NestSpec nest = testutil::triangular_lower();
  const Collapsed col = collapse(nest);
  const CollapsedEval cn = col.bind({{"N", 20}});
  nrc::run(
      cn, Schedule::simd_blocks(8, {1}),
      [&](int lanes, const i64* const* cols) {
        for (int l = 1; l < lanes; ++l) {
          const i64 a[] = {cols[0][l - 1], cols[1][l - 1]};
          const i64 b[] = {cols[0][l], cols[1][l]};
          EXPECT_EQ(cn.rank({b, 2}), cn.rank({a, 2}) + 1);
        }
      });
}

TEST(SimdBlocks, BlockNeverExceedsVlen) {
  const NestSpec nest = testutil::triangular_strict();
  const Collapsed col = collapse(nest);
  const CollapsedEval cn = col.bind({{"N", 19}});
  nrc::run(cn, Schedule::simd_blocks(4, {3}),
           [&](int lanes, const i64* const*) { EXPECT_LE(lanes, 4); });
}

TEST(SimdAbi, NamesTheCompiledLeg) {
  const std::string abi = simd::abi_name();
  EXPECT_TRUE(abi == "avx512" || abi == "avx2" || abi == "scalar") << abi;
  const std::string run_abi = simd::runtime_abi();
  EXPECT_TRUE(run_abi == "avx512" || run_abi == "avx2" || run_abi == "scalar")
      << run_abi;
  // The lane-group width follows the compiled leg.
  EXPECT_EQ(simd::kGroupLanes, abi == "avx512" ? 8 : 4);
  // runtime_abi can only narrow the compiled leg, never widen it.
  auto width = [](const std::string& a) { return a == "avx512" ? 2 : a == "avx2" ? 1 : 0; };
  EXPECT_LE(width(run_abi), width(abi)) << run_abi << " vs " << abi;
}

TEST(SimdBlocksChunked, CoversDomainForVariousChunks) {
  // Chunks shorter than, equal to and longer than a block, and the
  // single-chunk degenerate case, under both deals.
  const ParamMap p{{"N", 9}};
  const i64 total = collapse(testutil::tetrahedral_fig6()).bind(p).trip_count();
  for (const OmpSchedule omp : {OmpSchedule::Static, OmpSchedule::Dynamic}) {
    for (i64 chunk : {i64{1}, i64{5}, i64{8}, i64{16}, i64{64}, total}) {
      Schedule s = Schedule::simd_blocks_chunked(8, chunk, {3});
      s.omp = omp;
      EXPECT_TRUE(testutil::run_covers(testutil::tetrahedral_fig6(), p, s)) << s.describe();
    }
  }
}

TEST(SimdBlocks, ComputesSameSumAsSerial) {
  // A simd-style reduction over the block must reproduce the serial sum.
  const NestSpec nest = testutil::trapezoidal();
  const Collapsed col = collapse(nest);
  const ParamMap p{{"N", 15}, {"M", 4}};
  const CollapsedEval cn = col.bind(p);

  long double expect = 0.0L;
  walk_domain(nest, p, [&](std::span<const i64> t) {
    expect += static_cast<long double>(t[0] * 3 + t[1]);
  });

  std::mutex mu;
  long double got = 0.0L;
  nrc::run(
      cn, Schedule::simd_blocks(8, {4}),
      [&](int lanes, const i64* const* cols) {
        long double local = 0.0L;
#pragma omp simd reduction(+ : local)
        for (int l = 0; l < lanes; ++l)
          local += static_cast<long double>(cols[0][l] * 3 + cols[1][l]);
        std::lock_guard<std::mutex> lock(mu);
        got += local;
      });
  EXPECT_EQ(static_cast<double>(got), static_cast<double>(expect));
}

}  // namespace
}  // namespace nrc
