// The future-based miss path, fault-injected through the build hook:
// distinct keys on one shard build concurrently (no head-of-line),
// same-key misses build exactly once, a throwing build propagates to
// every waiter and leaves no poisoned entry, the symbolic table evicts
// LRU (not wholesale), and get_with_outcome attributes each request.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "../test_util.hpp"
#include "pipeline/plan_cache.hpp"
#include "support/error.hpp"

namespace nrc {
namespace {

TEST(PlanCacheAsync, DistinctKeysOnOneShardDoNotSerialize) {
  // One shard: both keys collide by construction.  The slow build is
  // held in flight at the hook; under the old build-under-the-shard-
  // lock design the fast get below would deadlock against it (and this
  // test would hang), with build futures it completes immediately.
  PlanCache cache(8, 1);
  const std::string slow_key =
      plan_cache_key(testutil::simplex_4d(), {{"N", 20}}, {});

  std::mutex mu;
  std::condition_variable cv;
  bool slow_entered = false, release_slow = false;
  cache.set_build_hook([&](const std::string& key) {
    if (key != slow_key) return;
    std::unique_lock<std::mutex> lock(mu);
    slow_entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release_slow; });
  });

  std::thread slow([&] { cache.get(testutil::simplex_4d(), {{"N", 20}}); });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return slow_entered; });
  }

  // The slow build holds no shard lock while in flight.
  const auto fast = cache.get(testutil::triangular_strict(), {{"N", 50}});
  EXPECT_EQ(fast->eval().trip_count(), 49 * 50 / 2);
  EXPECT_EQ(cache.stats().misses, 1);  // the slow build hasn't finished

  {
    std::lock_guard<std::mutex> lock(mu);
    release_slow = true;
  }
  cv.notify_all();
  slow.join();
  cache.set_build_hook(nullptr);

  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCacheAsync, SameKeyConcurrentMissesBuildExactlyOnce) {
  PlanCache cache(8, 1);
  std::atomic<int> builds{0};
  cache.set_build_hook([&](const std::string&) {
    ++builds;
    // Widen the window so every other thread reaches the entry while
    // the build is still in flight (correctness does not depend on it:
    // the entry is installed before the build starts).
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const CollapsePlan>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      got[static_cast<size_t>(t)] = cache.get(testutil::triangular_strict(), {{"N", 77}});
    });
  for (auto& th : threads) th.join();
  cache.set_build_hook(nullptr);

  EXPECT_EQ(builds.load(), 1);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(got[0].get(), got[static_cast<size_t>(t)].get());
  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, kThreads - 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheAsync, ThrowingBuildPropagatesToEveryWaiterAndUncaches) {
  PlanCache cache(8, 1);
  std::atomic<int> builds{0};
  cache.set_build_hook([&](const std::string&) {
    ++builds;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    throw SolveError("injected build failure");
  });

  constexpr int kThreads = 4;
  std::atomic<int> threw{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      try {
        cache.get(testutil::triangular_strict(), {{"N", 33}});
      } catch (const SolveError& e) {
        EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos);
        ++threw;
      }
    });
  for (auto& th : threads) th.join();

  // One build, every caller (builder and waiters alike) saw ITS
  // exception, and the poisoned entry is gone.
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(threw.load(), kThreads);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().misses, 0);  // counters move on success only

  // No poisoned entry: the next request retries and succeeds.
  cache.set_build_hook(nullptr);
  const auto plan = cache.get(testutil::triangular_strict(), {{"N", 33}});
  EXPECT_EQ(plan->eval().trip_count(), 32 * 33 / 2);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST(PlanCacheAsync, SymbolicTableEvictsLruNotWholesale) {
  // capacity 1 x 2 shards -> symbolic capacity 2.  Build three distinct
  // nests: the OLDEST symbolic artifact is evicted, the other two
  // survive (the pre-LRU behavior cleared the whole table).
  PlanCache cache(1, 2);
  const NestSpec a = testutil::triangular_strict();
  const NestSpec b = testutil::tetrahedral_fig6();
  const NestSpec c = testutil::simplex_4d();

  cache.get(a, {{"N", 10}});
  cache.get(b, {{"N", 10}});
  EXPECT_EQ(cache.stats().symbolic_evictions, 0);
  cache.get(c, {{"N", 10}});  // table holds [c, b]; a evicted
  EXPECT_EQ(cache.stats().symbolic_evictions, 1);

  // b survived: a new parameter set on it is a symbolic hit.
  EXPECT_EQ(cache.get_with_outcome(b, {{"N", 11}}).outcome, GetOutcome::SymbolicHit);
  // a was the LRU victim: a new parameter set rebuilds from scratch.
  EXPECT_EQ(cache.get_with_outcome(a, {{"N", 11}}).outcome, GetOutcome::ColdBuild);

  // The stats line renders the new counter.
  EXPECT_NE(cache.stats_line().find("symbolic)"), std::string::npos) << cache.stats_line();
}

TEST(PlanCacheAsync, GetWithOutcomeAttributesEveryRequest) {
  PlanCache cache(8, 2);
  const GetResult cold = cache.get_with_outcome(testutil::triangular_strict(), {{"N", 30}});
  EXPECT_EQ(cold.outcome, GetOutcome::ColdBuild);
  EXPECT_GT(cold.build_ns, 0);

  const GetResult hit = cache.get_with_outcome(testutil::triangular_strict(), {{"N", 30}});
  EXPECT_EQ(hit.outcome, GetOutcome::Hit);
  EXPECT_EQ(hit.plan.get(), cold.plan.get());

  const GetResult sym = cache.get_with_outcome(testutil::triangular_strict(), {{"N", 31}});
  EXPECT_EQ(sym.outcome, GetOutcome::SymbolicHit);
  EXPECT_GT(sym.build_ns, 0);

  // The thin wrapper serves the same shared instance.
  EXPECT_EQ(cache.get(testutil::triangular_strict(), {{"N", 30}}).get(), cold.plan.get());

  EXPECT_STREQ(get_outcome_name(GetOutcome::Hit), "hit");
  EXPECT_STREQ(get_outcome_name(GetOutcome::SymbolicHit), "symbolic");
  EXPECT_STREQ(get_outcome_name(GetOutcome::ColdBuild), "cold");
}

TEST(PlanCacheAsync, EvictedRebuildIsByteIdentical) {
  // One-entry cache: rebuilding an evicted key re-binds the surviving
  // symbolic artifact into a distinct plan that is byte-identical to the
  // evicted one: the same record, lowering and tuples.
  PlanCache cache(1, 1);
  const auto first = cache.get(testutil::triangular_strict(), {{"N", 40}});
  // Evict via a different parameterization of the SAME nest, so the
  // 1-entry symbolic table keeps the shared Collapsed alive.
  cache.get(testutil::triangular_strict(), {{"N", 41}});
  const auto got = cache.get_with_outcome(testutil::triangular_strict(), {{"N", 40}});
  const auto& rebuilt = got.plan;

  EXPECT_EQ(got.outcome, GetOutcome::SymbolicHit);
  EXPECT_NE(first.get(), rebuilt.get());
  EXPECT_EQ(first->serialize(), rebuilt->serialize());
  EXPECT_EQ(first->solver_kinds(), rebuilt->solver_kinds());
  for (int k = 0; k < first->eval().depth(); ++k)
    EXPECT_EQ(first->eval().guards_provably_f64(k), rebuilt->eval().guards_provably_f64(k));

  ASSERT_EQ(first->eval().trip_count(), rebuilt->eval().trip_count());
  i64 a[8], b[8];
  const size_t d = static_cast<size_t>(first->eval().depth());
  for (i64 pc = 1; pc <= first->eval().trip_count(); ++pc) {
    first->eval().recover(pc, {a, d});
    rebuilt->eval().recover(pc, {b, d});
    for (size_t k = 0; k < d; ++k) ASSERT_EQ(a[k], b[k]) << "pc=" << pc;
  }
}

}  // namespace
}  // namespace nrc
