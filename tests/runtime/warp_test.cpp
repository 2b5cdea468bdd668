#include "pipeline/dispatch.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>
#include <set>

#include "../test_util.hpp"

// Big-allocation counter for WarpSim.HugeWarpSizeAllocatesOnlyForLiveLanes:
// counts allocations of 1 MiB and up while armed (the default operator
// new[] forwards here, so one replacement covers both forms).  Pure
// counting — every allocation still succeeds — so the other suites in
// this binary are unaffected.
namespace {
std::atomic<bool> g_count_big_allocs{false};
std::atomic<long long> g_big_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_big_allocs.load(std::memory_order_relaxed) && n >= (1u << 20))
    g_big_alloc_bytes.fetch_add(static_cast<long long>(n), std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace nrc {
namespace {

TEST(WarpSim, CoversDomainForVariousWarpSizes) {
  for (int W : {1, 2, 8, 32, 1000 /* > total: lanes beyond domain idle */})
    EXPECT_TRUE(testutil::run_covers(testutil::triangular_strict(), {{"N", 24}},
                                     Schedule::warp_sim(W, {4})));
}

TEST(WarpSim, LaneVisitsStrideWRanks) {
  // Lane l visits ranks l+1, l+1+W, l+1+2W, ... — the coalescing pattern
  // of §VI-B.
  const NestSpec nest = testutil::triangular_lower();
  const Collapsed col = collapse(nest);
  const CollapsedEval cn = col.bind({{"N", 16}});
  const int W = 8;
  std::mutex mu;
  std::map<i64, std::vector<i64>> ranks_by_lane;
  nrc::run(
      cn, Schedule::warp_sim(W, {2}),
      [&](std::span<const i64> idx) {
        const i64 r = cn.rank(idx);
        std::lock_guard<std::mutex> lock(mu);
        ranks_by_lane[(r - 1) % W].push_back(r);
      });
  for (auto& [lane, ranks] : ranks_by_lane) {
    std::sort(ranks.begin(), ranks.end());
    EXPECT_EQ(ranks.front(), lane + 1);
    for (size_t q = 1; q < ranks.size(); ++q)
      EXPECT_EQ(ranks[q], ranks[q - 1] + W) << "lane " << lane;
  }
}

TEST(WarpSim, ConsecutiveRanksAcrossLanesAtEachStep) {
  // At step s the warp as a whole covers ranks [sW+1, (s+1)W] — the
  // memory-coalescing property the scheme exists for.  Verified
  // implicitly by the stride test plus full coverage; here we just check
  // the first warp-load explicitly with W = total (single step).
  const Collapsed col = collapse(testutil::triangular_strict());
  const CollapsedEval cn = col.bind({{"N", 8}});
  const int W = static_cast<int>(cn.trip_count());
  std::mutex mu;
  std::set<i64> first_step;
  nrc::run(
      cn, Schedule::warp_sim(W, {4}),
      [&](std::span<const i64> idx) {
        std::lock_guard<std::mutex> lock(mu);
        first_step.insert(cn.rank(idx));
      });
  EXPECT_EQ(static_cast<i64>(first_step.size()), cn.trip_count());
  EXPECT_EQ(*first_step.begin(), 1);
  EXPECT_EQ(*first_step.rbegin(), cn.trip_count());
}

/// Evaluator wrapper that makes advance() fail on demand without
/// touching the tuple — the degradation detail::warp_lane_walk's resync
/// policy defends against.  advance() cannot fail mid-stride for a
/// model-conforming domain (the executor fuzzer sweeps every warp size
/// over every fuzz class without one), so the lane-drop regression is
/// pinned by injection: with the pre-fix `break` policy every injected
/// failure silently discarded the lane's remaining iterations.
struct FlakyAdvanceEval {
  const CollapsedEval* cn;
  i64 fail_every;                 ///< every fail_every-th advance fails
  mutable i64 calls = 0;

  bool advance(std::span<i64> idx, i64 n) const {
    if (++calls % fail_every == 0) return false;  // simulated mid-stride failure
    return cn->advance(idx, n);
  }
  void recover(i64 pc, std::span<i64> idx) const { cn->recover(pc, idx); }
};

TEST(WarpSim, LaneResyncsInsteadOfDroppingOnAdvanceFailure) {
  // A degenerate-class fuzz nest (single-point rows force an advance —
  // and thus an injected failure — on nearly every warp stride) with a
  // warp size that keeps several strides per lane.
  testutil::FuzzNest fc = testutil::make_fuzz_nest(testutil::FuzzClass::Degenerate, 3);
  for (u64 seed = 4; fc.expect_empty; ++seed)
    fc = testutil::make_fuzz_nest(testutil::FuzzClass::Degenerate, seed);
  CollapseOptions opts;
  ParamMap p = fc.fixed_params;
  p["N"] = testutil::kFuzzMaxN;
  const CollapsedEval cn = collapse(fc.nest, opts).bind(p);
  const i64 total = cn.trip_count();
  const size_t d = static_cast<size_t>(cn.depth());
  const auto ref = testutil::odometer_reference(cn);

  for (const i64 fail_every : {i64{1}, i64{2}, i64{3}}) {
    for (const i64 W : {i64{2}, i64{3}, i64{7}}) {
      testutil::SchemeCollector collector(ref.track_tuples);
      for (i64 lane = 0; lane < std::min<i64>(W, total); ++lane) {
        i64 idx[kMaxDepth];
        cn.recover(lane + 1, {idx, d});
        const FlakyAdvanceEval flaky{&cn, fail_every};
        detail::warp_lane_walk(flaky, lane, W, total, {idx, d},
                               [&](std::span<const i64> t) { collector.visit(t); });
      }
      EXPECT_TRUE(collector.compare(ref))
          << fc.repro() << "W=" << W << " fail_every=" << fail_every
          << " — lane dropped iterations instead of resyncing";
    }
  }
}

TEST(WarpSim, HugeWarpSizeAllocatesOnlyForLiveLanes) {
  // warp_size far beyond trip_count(): the staging tile must be sized
  // by the live lanes (min(W, total)), not by W — the unclamped tile
  // allocated depth * W * 8 bytes (64 MiB here, gigabytes for warp
  // sizes near INT_MAX) for a 66-iteration domain.
  const Collapsed col = collapse(testutil::triangular_strict());
  const CollapsedEval cn = col.bind({{"N", 12}});
  std::atomic<i64> visits{0};
  g_big_alloc_bytes = 0;
  g_count_big_allocs = true;
  nrc::run(cn, Schedule::warp_sim(1 << 22, {2}), [&](std::span<const i64>) { ++visits; });
  g_count_big_allocs = false;
  EXPECT_EQ(visits.load(), cn.trip_count());
  EXPECT_EQ(g_big_alloc_bytes.load(), 0)
      << "warp staging tile scales with warp_size instead of live lanes";
}

}  // namespace
}  // namespace nrc
