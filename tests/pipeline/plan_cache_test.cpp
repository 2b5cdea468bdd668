// CollapsePlan + the sharded concurrent plan cache: build semantics,
// key construction, the concurrent one-build hammer, key aliasing, and
// eviction byte-identity against a cold plan.
#include <gtest/gtest.h>
#include <omp.h>

#include <set>
#include <thread>
#include <vector>

#include "../test_util.hpp"
#include "analysis/nest_analyzer.hpp"
#include "jit/jit_kernel.hpp"
#include "jit/toolchain.hpp"
#include "pipeline/plan.hpp"
#include "pipeline/plan_cache.hpp"

namespace nrc {
namespace {

// ------------------------------------------------------------ CollapsePlan

TEST(CollapsePlan, BuildRunsTheWholePipeline) {
  const auto plan = CollapsePlan::build(testutil::triangular_strict(), {{"N", 100}});
  EXPECT_EQ(plan->eval().trip_count(), 99 * 100 / 2);
  EXPECT_EQ(plan->params().at("N"), 100);
  const auto kinds = plan->solver_kinds();
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], LevelSolverKind::Quadratic);
  EXPECT_EQ(kinds[1], LevelSolverKind::InnermostLinear);
}

TEST(CollapsePlan, RunDispatchesOverThePlan) {
  const auto plan = CollapsePlan::build(testutil::tetrahedral_fig6(), {{"N", 9}});
  const auto ref = testutil::odometer_reference(plan->eval());
  EXPECT_TRUE(testutil::run_scheme_differential(plan->eval(), ref, [&](auto&& visit) {
    run(*plan, Schedule::chunked(7, {3}), visit);
  }));
  EXPECT_TRUE(testutil::run_scheme_differential(plan->eval(), ref, [&](auto&& visit) {
    run(*plan, plan->auto_schedule(), visit);
  }));
}

TEST(CollapsePlan, DescribeCarriesScheduleAndParams) {
  const auto plan = CollapsePlan::build(testutil::triangular_strict(), {{"N", 64}});
  const std::string d = plan->describe();
  EXPECT_NE(d.find("bound parameters: N=64"), std::string::npos) << d;
  EXPECT_NE(d.find("schedule (auto): "), std::string::npos) << d;
  // No cache line on a plan built outside a cache.
  EXPECT_EQ(d.find("plan cache:"), std::string::npos) << d;
}

TEST(CollapsePlan, CacheBuiltPlanDescribesCacheStats) {
  PlanCache cache(4, 2);
  const auto plan = cache.get(testutil::triangular_strict(), {{"N", 32}});
  const std::string d = plan->describe();
  EXPECT_NE(d.find("plan cache: "), std::string::npos) << d;
  EXPECT_NE(d.find("1 misses"), std::string::npos) << d;
}

TEST(CollapsePlan, DescribeIsSafeAfterTheBuildingCacheDies) {
  // Plans share ownership and may outlive the cache that built them;
  // describe() tracks the origin weakly, so after the cache's
  // destruction the stats line simply disappears (regression: a raw
  // back-pointer here was a use-after-free).
  std::shared_ptr<const CollapsePlan> plan;
  {
    PlanCache cache(4, 2);
    plan = cache.get(testutil::triangular_strict(), {{"N", 16}});
    EXPECT_NE(plan->describe().find("plan cache: "), std::string::npos);
  }
  const std::string d = plan->describe();
  EXPECT_EQ(d.find("plan cache: "), std::string::npos) << d;
  EXPECT_NE(d.find("schedule (auto): "), std::string::npos) << d;
}

/// describe() as it rendered before the memo: a fresh symbolic
/// artifact's report, the bound parameters, the live schedule, a plan
/// with no kernel compiled, and a certificate analyzed from scratch.
std::string fresh_describe(const CollapsePlan& plan) {
  std::string s = collapse(plan.nest(), plan.options()).describe();
  s += "bound parameters:";
  for (const auto& [name, v] : plan.params()) s += " " + name + "=" + std::to_string(v);
  s += " (trip count " + std::to_string(plan.eval().trip_count()) + ")\n";
  s += "schedule (auto): " + plan.auto_schedule().describe() + "\n";
  s += "jit: not compiled (plan->jit() / the jitrun verb compile on demand)\n";
  return s + analyze(plan).str();
}

TEST(CollapsePlan, DescribeMatchesAFreshRender) {
  const int saved = omp_get_max_threads();
  for (const auto& sc : testutil::closed_form_shapes()) {
    const ParamMap p = testutil::uniform_params(sc.nest, 9);
    if (!has_no_empty_ranges(sc.nest, p)) continue;  // outside the model
    const auto plan = CollapsePlan::build(sc.nest, p);
    EXPECT_EQ(plan->describe(), fresh_describe(*plan)) << sc.name;
    // The schedule line stays live: it follows the thread count.
    omp_set_num_threads(saved == 1 ? 3 : 1);
    EXPECT_EQ(plan->describe(), fresh_describe(*plan)) << sc.name;
    omp_set_num_threads(saved);
  }
  // A plan of the same structure through a cache shares the symbolic
  // text and adds only the live stats line.
  PlanCache cache(4, 2);
  const auto a = cache.get(testutil::tetrahedral_fig6(), {{"N", 9}});
  const auto b = cache.get(testutil::tetrahedral_fig6(), {{"N", 10}});
  EXPECT_EQ(a->describe(), fresh_describe(*a) + cache.stats_line() + "\n");
  EXPECT_EQ(b->describe(), fresh_describe(*b) + cache.stats_line() + "\n");
}

TEST(CollapsePlan, DescribeJitLineFollowsTheKernelCache) {
  if (!jit::toolchain_available()) GTEST_SKIP() << "no C toolchain: no kernel can compile";
  // A domain no other test compiles, so the process-global kernel
  // cache holds no kernel for it yet.
  const auto plan = CollapsePlan::build(testutil::triangular_strict(), {{"N", 4321}});
  EXPECT_NE(plan->describe().find("\njit: not compiled"), std::string::npos);
  ASSERT_TRUE(plan->jit()->compiled()) << plan->jit()->status();
  const std::string d = plan->describe();
  EXPECT_NE(d.find("\njit: kernel compiled"), std::string::npos) << d;
}

TEST(CollapsePlan, ConcurrentDescribesAgree) {
  // Neither the symbolic text nor the certificate exists before the
  // threads race to render them first.
  const auto plan = CollapsePlan::build(testutil::simplex_4d(), {{"N", 11}});
  constexpr int kThreads = 8;
  std::vector<std::string> seen(kThreads);
  std::vector<std::string> lint(kThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        seen[static_cast<size_t>(t)] = plan->describe();
        lint[static_cast<size_t>(t)] = plan->analyze().str();
      });
    for (auto& th : threads) th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<size_t>(t)], fresh_describe(*plan)) << "thread " << t;
    EXPECT_EQ(lint[static_cast<size_t>(t)], analyze(*plan).str()) << "thread " << t;
  }
}

TEST(CollapsePlan, BuildPropagatesBindFailures) {
  // The strict triangle is empty at N = 1: collapse() succeeds, bind()
  // must reject the domain.
  EXPECT_THROW(CollapsePlan::build(testutil::triangular_strict(), {{"N", 1}}),
               SpecError);
}

// --------------------------------------------------------------- cache keys

TEST(PlanCacheKey, DistinguishesNestParamsAndOptions) {
  const NestSpec tri = testutil::triangular_strict();
  const NestSpec tet = testutil::tetrahedral_fig6();
  CollapseOptions closed;
  CollapseOptions search_only;
  search_only.build_closed_form = false;
  std::set<std::string> keys{
      plan_cache_key(tri, {{"N", 10}}, closed),
      plan_cache_key(tri, {{"N", 11}}, closed),
      plan_cache_key(tri, {{"N", 10}}, search_only),
      plan_cache_key(tet, {{"N", 10}}, closed),
  };
  EXPECT_EQ(keys.size(), 4u);
  // Deterministic: the same inputs produce the same key.
  EXPECT_EQ(plan_cache_key(tri, {{"N", 10}}, closed),
            plan_cache_key(tri, {{"N", 10}}, closed));
}

// -------------------------------------------------------------- cache hits

TEST(PlanCache, RepeatedDomainsShareOnePlan) {
  PlanCache cache(8, 4);
  const NestSpec tri = testutil::triangular_strict();
  const auto a = cache.get(tri, {{"N", 50}});
  const auto b = cache.get(tri, {{"N", 50}});
  EXPECT_EQ(a.get(), b.get());  // the same immutable plan instance
  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCache, NewParamsOnKnownNestSkipSymbolicBuild) {
  PlanCache cache(8, 4);
  const NestSpec tri = testutil::triangular_strict();
  cache.get(tri, {{"N", 50}});
  cache.get(tri, {{"N", 60}});
  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.symbolic_hits, 1);  // the second miss reused the Collapsed
}

TEST(PlanCache, DistinctParameterKeysDoNotAlias) {
  PlanCache cache(32, 4);
  const NestSpec tri = testutil::triangular_strict();
  std::set<const CollapsePlan*> instances;
  for (i64 n = 2; n <= 12; ++n) {
    const auto plan = cache.get(tri, {{"N", n}});
    EXPECT_EQ(plan->eval().trip_count(), (n - 1) * n / 2) << n;
    instances.insert(plan.get());
  }
  EXPECT_EQ(instances.size(), 11u);
  // Re-getting every domain hits and returns the right plan again.
  for (i64 n = 2; n <= 12; ++n)
    EXPECT_EQ(cache.get(tri, {{"N", n}})->eval().trip_count(), (n - 1) * n / 2);
  EXPECT_EQ(cache.stats().hits, 11);
}

TEST(PlanCache, FailedBindsAreNotCached) {
  PlanCache cache(8, 1);
  const NestSpec tri = testutil::triangular_strict();
  EXPECT_THROW(cache.get(tri, {{"N", 1}}), SpecError);  // empty at N = 1
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_THROW(cache.get(tri, {{"N", 1}}), SpecError);  // still throws, still clean
  // The symbolic artifact survived the failed bind: a valid domain on
  // the same nest pays only bind().
  (void)cache.get(tri, {{"N", 10}});
  EXPECT_EQ(cache.stats().symbolic_hits, 1);
}

// ------------------------------------------------------- concurrent hammer
//
// N threads hammer the same (nest, params) key: the shard builds under
// its lock, so exactly ONE build may happen, every thread must receive
// the same immutable plan instance, and the counters must agree with
// the lookup count.  Runs under the tier1 label, so the CI ASan/UBSan
// leg executes this exact test with sanitizers on.

TEST(PlanCache, ConcurrentHammerBuildsOnce) {
  PlanCache cache(8, 4);
  const NestSpec tet = testutil::tetrahedral_fig6();
  constexpr int kThreads = 8;
  constexpr int kGetsPerThread = 50;

  std::vector<std::shared_ptr<const CollapsePlan>> first(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kGetsPerThread; ++i) {
        auto plan = cache.get(tet, {{"N", 40}});
        // Exercise the shared plan concurrently while hammering.
        i64 idx[kMaxDepth];
        plan->eval().recover(1 + (t * kGetsPerThread + i) %
                                     plan->eval().trip_count(),
                             {idx, static_cast<size_t>(plan->eval().depth())});
        if (i == 0) first[static_cast<size_t>(t)] = std::move(plan);
      }
    });
  }
  for (auto& th : pool) th.join();

  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(first[0].get(), first[static_cast<size_t>(t)].get());

  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1);  // exactly one build across all threads
  EXPECT_EQ(s.hits, static_cast<i64>(kThreads) * kGetsPerThread - 1);
  EXPECT_EQ(s.lookups(), static_cast<i64>(kThreads) * kGetsPerThread);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCache, ConcurrentDistinctKeysStayDistinct) {
  PlanCache cache(32, 4);
  const NestSpec tri = testutil::triangular_strict();
  constexpr int kThreads = 8;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < 25; ++i) {
        const i64 n = 2 + (t + i) % 10;
        const auto plan = cache.get(tri, {{"N", n}});
        EXPECT_EQ(plan->eval().trip_count(), (n - 1) * n / 2);
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(cache.size(), 10u);
  EXPECT_EQ(cache.stats().lookups(), 8 * 25);
}

// ---------------------------------------------------------------- eviction

/// Full recovery sweep of a plan's domain, for byte-identity checks.
std::vector<i64> full_recovery(const CollapsePlan& plan) {
  const CollapsedEval& cn = plan.eval();
  const size_t d = static_cast<size_t>(cn.depth());
  std::vector<i64> out;
  out.reserve(static_cast<size_t>(cn.trip_count()) * d);
  i64 idx[kMaxDepth];
  for (i64 pc = 1; pc <= cn.trip_count(); ++pc) {
    cn.recover(pc, {idx, d});
    out.insert(out.end(), idx, idx + d);
  }
  return out;
}

TEST(PlanCache, EvictionKeepsResultsByteIdenticalToAColdPlan) {
  // One single-slot shard: every new key evicts the previous plan.
  PlanCache cache(1, 1);
  const NestSpec tri = testutil::triangular_strict();
  const NestSpec tet = testutil::tetrahedral_fig6();

  const auto first = cache.get(tri, {{"N", 20}});
  const std::vector<i64> before = full_recovery(*first);

  cache.get(tet, {{"N", 10}});  // evicts the triangular plan
  EXPECT_GE(cache.stats().evictions, 1);
  EXPECT_EQ(cache.size(), 1u);

  // Re-get: a rebuilt plan (a fresh instance), byte-identical both to
  // the evicted plan's results and to a cold, cache-free build.
  const auto rebuilt = cache.get(tri, {{"N", 20}});
  EXPECT_NE(first.get(), rebuilt.get());
  EXPECT_EQ(full_recovery(*rebuilt), before);
  const auto cold = CollapsePlan::build(tri, {{"N", 20}});
  EXPECT_EQ(full_recovery(*cold), before);

  // The evicted shared_ptr stays valid for holders (shared ownership).
  EXPECT_EQ(first->eval().trip_count(), 19 * 20 / 2);
}

TEST(PlanCache, StatsLineRendersCounters) {
  PlanCache cache(4, 1);
  cache.get(testutil::triangular_strict(), {{"N", 8}});
  cache.get(testutil::triangular_strict(), {{"N", 8}});
  const std::string line = cache.stats_line();
  EXPECT_NE(line.find("plan cache: 1 hits / 1 misses"), std::string::npos) << line;
  EXPECT_NE(line.find("1 plans"), std::string::npos) << line;
}

TEST(PlanCache, ShardStatsSumToTotals) {
  PlanCache cache(8, 4);
  const NestSpec tri = testutil::triangular_strict();
  for (i64 n = 2; n <= 9; ++n) cache.get(tri, {{"N", n}});
  for (i64 n = 2; n <= 9; ++n) cache.get(tri, {{"N", n}});
  PlanCacheStats merged;
  for (const PlanCacheStats& s : cache.shard_stats()) merged += s;
  const PlanCacheStats total = cache.stats();
  EXPECT_EQ(merged.hits, total.hits);
  EXPECT_EQ(merged.misses, total.misses);
  EXPECT_EQ(merged.symbolic_hits, total.symbolic_hits);
  EXPECT_EQ(merged.evictions, total.evictions);
  EXPECT_EQ(total.hits, 8);
  EXPECT_EQ(total.misses, 8);
}

TEST(PlanCache, GlobalCacheIsOneInstance) {
  EXPECT_EQ(&plan_cache(), &plan_cache());
}

}  // namespace
}  // namespace nrc
