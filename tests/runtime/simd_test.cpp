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
  for (int vlen : {1, 2, 4, 8, 13, 64})
    EXPECT_TRUE(testutil::run_covers(testutil::triangular_strict(), {{"N", 26}},
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

TEST(SimdAbi, FillHelpersCoverTails) {
  // Lengths around both lane widths (4 and 8) exercise the vector body
  // and every masked-tail remainder (1..7 mod 8) of both fills.
  for (i64 n : {i64{0}, i64{1}, i64{2}, i64{3}, i64{4}, i64{5}, i64{6}, i64{7},
                i64{8}, i64{9}, i64{11}, i64{13}, i64{15}, i64{16}, i64{17}}) {
    std::vector<i64> dst(static_cast<size_t>(n) + 8, -777);
    simd::fill_broadcast(dst.data(), n, 42);
    for (i64 i = 0; i < n; ++i) EXPECT_EQ(dst[static_cast<size_t>(i)], 42) << n;
    EXPECT_EQ(dst[static_cast<size_t>(n)], -777) << n;  // no overrun

    std::fill(dst.begin(), dst.end(), -777);
    simd::fill_iota(dst.data(), n, -2);
    for (i64 i = 0; i < n; ++i) EXPECT_EQ(dst[static_cast<size_t>(i)], -2 + i) << n;
    EXPECT_EQ(dst[static_cast<size_t>(n)], -777) << n;
  }
  const std::string abi = simd::abi_name();
  EXPECT_TRUE(abi == "avx512" || abi == "avx2" || abi == "scalar") << abi;
  const std::string run_abi = simd::runtime_abi();
  EXPECT_TRUE(run_abi == "avx512" || run_abi == "avx2" || run_abi == "scalar")
      << run_abi;
  // The preferred lane-group width follows the compiled leg.
  EXPECT_EQ(simd::kGroupLanes, abi == "avx512" ? 8 : 4);
}

TEST(SimdBlocksChunked, CoversDomainForVariousChunks) {
  // Chunk sizes around trip_count()/4 exercise full lane groups,
  // partial tail groups and the single-chunk degenerate case.
  const ParamMap p{{"N", 9}};
  const i64 total = collapse(testutil::tetrahedral_fig6()).bind(p).trip_count();
  for (i64 chunk : {i64{1}, i64{5}, i64{16}, i64{64}, total})
    EXPECT_TRUE(testutil::run_covers(testutil::tetrahedral_fig6(), p,
                                     Schedule::simd_blocks_chunked(8, chunk, {3})));
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
