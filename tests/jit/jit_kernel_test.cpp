// JitKernel + KernelCache under hostile environments: a compiler that
// does not exist (NRC_JIT_CC=/nonexistent) must land a counted fallback
// kernel that still answers correctly; a corrupted disk-cache object
// must be rejected by its content hash and rebuilt, not dlopen'd; and
// same-key concurrent builds must compile exactly once, every other
// requester joining the first build's future.  The happy path
// (compile, run/fill differential against the odometer reference) and
// the end-to-end surface (plan->jit(), describe(), the nrcd jitrun
// verb and its stats counters, run/jitrun checksums against the
// odometer at one and four threads) ride in the same suite.
#include <gtest/gtest.h>

#include <dirent.h>
#include <omp.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../test_util.hpp"
#include "codegen/c_for_parser.hpp"
#include "jit/jit_kernel.hpp"
#include "jit/kernel_cache.hpp"
#include "jit/toolchain.hpp"
#include "pipeline/plan_cache.hpp"
#include "serve/protocol.hpp"
#include "support/error.hpp"

namespace nrc {
namespace {

/// Set one environment variable for the scope, restoring the previous
/// value (or unsetting) on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_old_)
      ::setenv(name_.c_str(), old_.c_str(), 1);
    else
      ::unsetenv(name_.c_str());
  }

 private:
  std::string name_, old_;
  bool had_old_ = false;
};

std::shared_ptr<const CollapsePlan> tri_plan(i64 n = 40) {
  return CollapsePlan::build(testutil::triangular_strict(), {{"N", n}});
}

/// Differential check: the kernel's visited multiset/checksum must
/// equal the sequential odometer reference.
void expect_matches_reference(const JitKernel& k, const char* what) {
  const testutil::DomainObservation ref = testutil::odometer_reference(k.plan().eval());
  testutil::SchemeCollector col(ref.track_tuples);
  k.run([&](std::span<const i64> idx) { col.visit(idx); });
  EXPECT_TRUE(col.compare(ref)) << what;
}

// ------------------------------------------------------------ happy path

TEST(JitKernel, CompileRunFillMatchReference) {
  if (!jit::toolchain_available()) GTEST_SKIP() << "no C toolchain";
  auto plan = tri_plan(40);
  JitOptions opt;
  opt.use_disk_cache = false;
  auto k = JitKernel::build(plan, Schedule::chunked(7), opt);
  ASSERT_TRUE(k->compiled()) << k->status();
  EXPECT_EQ(k->status(), "jit");
  EXPECT_TRUE(k->info().fallback_reason.empty());
  EXPECT_GT(k->info().compile_ns, 0);
  // The rendered TU folds the bound parameter to a literal.
  EXPECT_NE(k->source().find("40LL"), std::string::npos);
  expect_matches_reference(*k, "compiled run");

  // fill(): rank order must equal the library's recover().
  const size_t d = static_cast<size_t>(k->depth());
  std::vector<i64> buf(static_cast<size_t>(k->trip_count()) * d);
  ASSERT_EQ(k->fill(buf), k->trip_count());
  const CollapsedEval& cn = plan->eval();
  std::vector<i64> want(d);
  for (i64 pc = 1; pc <= k->trip_count(); ++pc) {
    cn.recover(pc, want);
    for (size_t j = 0; j < d; ++j)
      ASSERT_EQ(buf[static_cast<size_t>(pc - 1) * d + j], want[j]) << "pc=" << pc;
  }
  // An undersized buffer is refused, not overrun.
  std::vector<i64> small(buf.size() - 1);
  EXPECT_THROW(k->fill(small), SpecError);
}

// -------------------------------------------------- missing toolchain

TEST(JitKernel, MissingCompilerFallsBackAndStillAnswers) {
  ScopedEnv cc("NRC_JIT_CC", "/nonexistent/nrc-no-such-cc");
  JitOptions opt;
  opt.use_disk_cache = false;
  auto k = JitKernel::build(tri_plan(25), Schedule::per_thread(), opt);
  EXPECT_FALSE(k->compiled());
  EXPECT_NE(k->info().fallback_reason.find("no C toolchain"), std::string::npos)
      << k->status();
  expect_matches_reference(*k, "fallback run");

  // fill() routes through recover_block and stays correct too.
  const size_t d = static_cast<size_t>(k->depth());
  std::vector<i64> buf(static_cast<size_t>(k->trip_count()) * d);
  ASSERT_EQ(k->fill(buf), k->trip_count());
  const CollapsedEval& cn = k->plan().eval();
  std::vector<i64> want(d);
  cn.recover(1, want);
  for (size_t j = 0; j < d; ++j) EXPECT_EQ(buf[j], want[j]);
}

TEST(KernelCache, CountsAndCachesFallbackBuilds) {
  ScopedEnv cc("NRC_JIT_CC", "/nonexistent/nrc-no-such-cc");
  KernelCache cache(8, 2);
  JitOptions opt;
  opt.use_disk_cache = false;
  auto plan = tri_plan(12);
  auto k1 = cache.get(plan, Schedule::per_thread(), opt);
  EXPECT_FALSE(k1->compiled());
  KernelCacheStats st = cache.stats();
  EXPECT_EQ(st.misses, 1);
  EXPECT_EQ(st.fallbacks, 1);
  EXPECT_EQ(st.compiles, 0);
  // The fallback is cached: no second build attempt per request.
  auto k2 = cache.get(plan, Schedule::per_thread(), opt);
  EXPECT_EQ(k1.get(), k2.get());
  st = cache.stats();
  EXPECT_EQ(st.hits, 1);
  EXPECT_EQ(st.fallbacks, 1);
}

// ------------------------------------------------- disk-cache hostility

/// The single nrc-*.so entry in a cache dir ("" when absent).
std::string find_cached_so(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return "";
  std::string found;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() > 3 && name.compare(name.size() - 3, 3, ".so") == 0)
      found = dir + "/" + name;
  }
  ::closedir(d);
  return found;
}

TEST(JitKernel, CorruptDiskCacheEntryRejectedAndRebuilt) {
  if (!jit::toolchain_available()) GTEST_SKIP() << "no C toolchain";
  char templ[] = "/tmp/nrc_jit_cache_XXXXXX";
  ASSERT_NE(::mkdtemp(templ), nullptr);
  const std::string dir = templ;
  JitOptions opt;
  opt.cache_dir = dir;
  auto plan = tri_plan(30);
  const Schedule s = Schedule::per_thread();

  auto k1 = JitKernel::build(plan, s, opt);
  ASSERT_TRUE(k1->compiled()) << k1->status();
  EXPECT_FALSE(k1->info().from_disk);
  const std::string so = find_cached_so(dir);
  ASSERT_FALSE(so.empty()) << "compile did not populate the disk cache";

  auto k2 = JitKernel::build(plan, s, opt);
  ASSERT_TRUE(k2->compiled()) << k2->status();
  EXPECT_TRUE(k2->info().from_disk);
  EXPECT_EQ(k2->info().compile_ns, 0);
  expect_matches_reference(*k2, "disk-hit run");

  // Corrupt the cached object in place; the sidecar hash no longer
  // matches, so the next build must reject the entry and recompile —
  // and, critically, never dlopen the corrupt bytes.
  {
    std::ofstream out(so, std::ios::binary | std::ios::trunc);
    out << "this is not an ELF shared object";
  }
  auto k3 = JitKernel::build(plan, s, opt);
  ASSERT_TRUE(k3->compiled()) << k3->status();
  EXPECT_FALSE(k3->info().from_disk) << "corrupt entry served from disk";
  expect_matches_reference(*k3, "post-corruption rebuild");

  // The rebuild rewrote the entry, so the cache serves again.
  auto k4 = JitKernel::build(plan, s, opt);
  ASSERT_TRUE(k4->compiled()) << k4->status();
  EXPECT_TRUE(k4->info().from_disk);

  // A live kernel keeps answering even if the shared entry vanishes
  // out from under it (its mapping is a private unlinked temp).
  ::unlink(find_cached_so(dir).c_str());
  expect_matches_reference(*k4, "run after external cache delete");

  std::system(("rm -rf " + dir).c_str());
}

// ---------------------------------------------- concurrent exactly-once

TEST(KernelCache, ConcurrentSameKeyBuildsExactlyOnce) {
  KernelCache cache(8, 2);
  std::atomic<int> builds{0};
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  cache.set_build_hook([&](const std::string&) {
    builds.fetch_add(1);
    released.wait();
  });

  auto plan = tri_plan(18);
  JitOptions opt;
  opt.use_disk_cache = false;
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const JitKernel>> got(kThreads);
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&, t] { got[static_cast<size_t>(t)] =
                                 cache.get(plan, Schedule::per_thread(), opt); });
  // Let every thread reach the cache while the one build is blocked in
  // the hook, then release it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release.set_value();
  for (std::thread& t : ts) t.join();
  cache.set_build_hook(nullptr);

  EXPECT_EQ(builds.load(), 1);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(got[0].get(), got[static_cast<size_t>(t)].get());
  const KernelCacheStats st = cache.stats();
  EXPECT_EQ(st.misses, 1);
  EXPECT_EQ(st.hits, kThreads - 1);
  EXPECT_EQ(cache.size(), 1u);
}

// ----------------------------------------------------- key aliasing

TEST(KernelCache, KeyIgnoresThreadCountButNotEmissionStyle) {
  auto plan = tri_plan(12);
  RunConfig two;
  two.threads = 2;
  RunConfig eight;
  eight.threads = 8;
  // Thread-count-only differences execute the same generated code.
  EXPECT_EQ(KernelCache::kernel_key(*plan, Schedule::per_thread(two)),
            KernelCache::kernel_key(*plan, Schedule::per_thread(eight)));
  // Emission style and vlen change the code, so they change the key.
  EXPECT_NE(KernelCache::kernel_key(*plan, Schedule::per_thread()),
            KernelCache::kernel_key(*plan, Schedule::per_iteration()));
  EXPECT_NE(KernelCache::kernel_key(*plan, Schedule::simd_blocks(4)),
            KernelCache::kernel_key(*plan, Schedule::simd_blocks(8)));
  // Different plans never alias.
  EXPECT_NE(KernelCache::kernel_key(*plan, Schedule::per_thread()),
            KernelCache::kernel_key(*tri_plan(13), Schedule::per_thread()));
}

// ------------------------------------------------- end-to-end surface

TEST(JitSurface, PlanJitAndDescribe) {
  auto plan = tri_plan(20);
  auto k1 = plan->jit(Schedule::per_thread());
  ASSERT_NE(k1, nullptr);
  expect_matches_reference(*k1, "plan->jit() run");
  // Same plan + schedule: the global cache hands back the same kernel.
  EXPECT_EQ(plan->jit(Schedule::per_thread()).get(), k1.get());
  const std::string desc = plan->describe();
  EXPECT_NE(desc.find("jit:"), std::string::npos) << desc;
}

constexpr const char* kTriCFor =
    "for (i = 0; i < N - 1; i++)\n"
    "  for (j = i + 1; j < N; j++) {\n"
    "    /* body */;\n"
    "  }\n";

serve::Request tri_request(const std::string& verb, i64 n) {
  serve::Request r;
  r.verb = verb;
  r.params = {{"N", n}};
  r.nest_text = kTriCFor;
  return r;
}

TEST(JitSurface, ServeJitrunMatchesRunAndCountsInStats) {
  auto req = [](const std::string& verb) { return tri_request(verb, 30); };
  PlanCache cache(16, 2);
  const serve::Response run = serve::handle_request(cache, req("run"));
  ASSERT_TRUE(run.ok) << run.payload;
  const serve::Response jitrun = serve::handle_request(cache, req("jitrun"));
  ASSERT_TRUE(jitrun.ok) << jitrun.payload;
  // Identical first two lines (checksum + trip); jitrun adds its status.
  EXPECT_EQ(jitrun.payload.substr(0, run.payload.size()), run.payload);
  EXPECT_NE(jitrun.payload.find("\njit "), std::string::npos) << jitrun.payload;

  serve::Request stats;
  stats.verb = "stats";
  const serve::Response st = serve::handle_request(cache, stats);
  ASSERT_TRUE(st.ok);
  EXPECT_NE(st.payload.find("jit cache:"), std::string::npos) << st.payload;
}

/// The run reply recomputed sequentially: serve::tuple_mix summed over
/// the odometer walk (recover(1), then increment()).
std::string odometer_run_reply(const CollapsedEval& cn) {
  const i64 total = cn.trip_count();
  const size_t d = static_cast<size_t>(cn.depth());
  i64 idx[kMaxDepth];
  u64 sum = 0;
  cn.recover(1, {idx, d});
  for (i64 pc = 1; pc <= total; ++pc) {
    sum += serve::tuple_mix({idx, d});
    if (pc < total) cn.increment({idx, d});
  }
  return "checksum " + std::to_string(sum) + "\ntrip " + std::to_string(total) + "\n";
}

/// Restores the OpenMP default team size, so the other tests in this
/// binary see the default.
class ServeThreads : public ::testing::Test {
 protected:
  void TearDown() override { omp_set_num_threads(saved_threads_); }

 private:
  int saved_threads_ = omp_get_max_threads();
};

// The run and jitrun checksums sum per-thread partials; they must equal
// the sequential odometer sum whichever team runs the walk — the
// dispatcher's or a compiled kernel's (or its fallback), one thread or
// four.  Plain run never reaches the kernel cache; jitrun always does.
TEST_F(ServeThreads, RunAndJitrunChecksumsMatchTheOdometerAtOneAndFourThreads) {
  constexpr i64 kN = 60;
  const auto plan =
      CollapsePlan::build(parse_c_for_nest(kTriCFor).collapsed_nest(), {{"N", kN}});
  const std::string want = odometer_run_reply(plan->eval());

  PlanCache cache(16, 2);
  for (const int nt : {1, 4}) {
    omp_set_num_threads(nt);
    const std::string where = "threads=" + std::to_string(nt);

    const i64 before_run = kernel_cache().stats().lookups();
    const serve::Response run = serve::handle_request(cache, tri_request("run", kN));
    ASSERT_TRUE(run.ok) << where << ": " << run.payload;
    EXPECT_EQ(run.payload, want) << where;
    EXPECT_EQ(kernel_cache().stats().lookups(), before_run) << where;

    const i64 before_jitrun = kernel_cache().stats().lookups();
    const serve::Response jitrun = serve::handle_request(cache, tri_request("jitrun", kN));
    ASSERT_TRUE(jitrun.ok) << where << ": " << jitrun.payload;
    EXPECT_EQ(jitrun.payload.substr(0, want.size()), want) << where;
    EXPECT_NE(jitrun.payload.find("\njit "), std::string::npos) << where;
    EXPECT_GE(kernel_cache().stats().lookups(), before_jitrun + 1) << where;
  }
}

}  // namespace
}  // namespace nrc
