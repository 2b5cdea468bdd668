// Zero-heap-allocation guarantee of the recovery hot path.
//
// This suite replaces the global operator new/delete with counting
// versions (which is why it links into its own test executable) and
// asserts that recover(), recover_block(), recover_search() and the
// NewtonUnranker perform no allocation after bind-time setup — the
// property the §V chunked schemes rely on to keep per-chunk recovery
// overhead flat — and that neither does the tuple walk nrc::run drives
// a range scheme's body with.  The quartic solver allocates nothing
// even on a thread's first recovery.  It also holds the symbolic
// ranking build, a fresh bind and warm serve hits to allocation budgets.
#include <gtest/gtest.h>
#include <omp.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>

#include "../test_util.hpp"

namespace {
std::atomic<long long> g_allocations{0};
thread_local long long t_allocations = 0;  // this thread's share
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  ++t_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  ++t_allocations;
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace nrc {
namespace {

struct Case {
  std::string name;
  CollapsedEval cn;
};

std::vector<Case> engine_cases() {
  std::vector<Case> cases;
  cases.push_back({"triangular_quadratic",
                   collapse(testutil::triangular_strict()).bind({{"N", 300}})});
  cases.push_back({"tetrahedral_cubic",
                   collapse(testutil::tetrahedral_fig6()).bind({{"N", 40}})});
  // The guarded Ferrari, in both engine configurations: proven-f64
  // guards (the default) and the checked-i128 reference guards — each
  // must stay allocation-free.
  cases.push_back({"simplex_quartic", collapse(testutil::simplex_4d()).bind({{"N", 20}})});
  cases.push_back({"simplex_quartic_i128", collapse(testutil::simplex_4d()).bind({{"N", 20}})});
  cases.back().cn.set_f64_guards(false);
  cases.push_back({"quartic_shifted",
                   collapse(testutil::simplex_4d_shifted()).bind({{"N", 16}})});
  cases.push_back({"rectangular_division",
                   collapse(testutil::rectangular()).bind({{"N", 40}, {"M", 17}})});
  return cases;
}

TEST(NoAllocation, RecoverHotPath) {
  for (auto& c : engine_cases()) {
    i64 idx[kMaxDepth];
    const size_t d = static_cast<size_t>(c.cn.depth());
    RecoveryStats stats;
    c.cn.recover(1, {idx, d}, &stats);  // touch every lazy libc path once

    const i64 n = std::min<i64>(c.cn.trip_count(), 2000);
    const long long before = g_allocations.load();
    for (i64 pc = 1; pc <= n; ++pc) c.cn.recover(pc, {idx, d}, &stats);
    const long long after = g_allocations.load();
    EXPECT_EQ(after, before) << c.name << ": recover() allocated";
  }
}

TEST(NoAllocation, RecoverBlockHotPath) {
  for (auto& c : engine_cases()) {
    const size_t d = static_cast<size_t>(c.cn.depth());
    constexpr i64 kBlock = 128;
    std::vector<i64> out(kBlock * d);  // caller-owned buffer: not hot path
    c.cn.recover_block(1, kBlock, out);

    const long long before = g_allocations.load();
    for (i64 lo = 1; lo <= c.cn.trip_count(); lo += kBlock)
      c.cn.recover_block(lo, kBlock, out);
    const long long after = g_allocations.load();
    EXPECT_EQ(after, before) << c.name << ": recover_block() allocated";
  }
}

TEST(NoAllocation, LaneBlockWalkHotPath) {
  // The SIMD-block schemes' walk: one recovery per range, then SoA lane
  // blocks filled on the stack, for block and tuple bodies alike.
  const Schedule s = Schedule::simd_blocks_chunked(16, 64, {1});
  for (auto& c : engine_cases()) {
    i64 sum = 0;
    const auto block = [&sum](int lanes, const i64* const* cols) { sum += cols[0][lanes - 1]; };
    const auto tuple = [&sum](std::span<const i64> idx) { sum += idx.back(); };
    nrc::run(c.cn, s, block);  // warm-up: thread team, lazy paths
    nrc::run(c.cn, s, tuple);

    const long long before = g_allocations.load();
    nrc::run(c.cn, s, block);
    nrc::run(c.cn, s, tuple);
    const long long after = g_allocations.load();
    EXPECT_EQ(after, before) << c.name << ": the lane-block walk allocated";
    EXPECT_NE(sum, 0) << c.name;
  }
}

TEST(NoAllocation, FirstQuarticRecoveriesOnAFreshThread) {
  // No warm-up: the Ferrari estimate works on stack scratch, so a new
  // thread's very first recoveries allocate nothing.  Only this
  // thread's allocations count.
  const CollapsedEval cn = collapse(testutil::simplex_4d()).bind({{"N", 20}});
  const i64 n = std::min<i64>(cn.trip_count(), 500);
  long long allocated = -1;
  RecoveryStats stats;
  std::thread worker([&] {
    i64 idx[kMaxDepth];
    const size_t d = static_cast<size_t>(cn.depth());
    const long long before = t_allocations;
    for (i64 pc = 1; pc <= n; ++pc) cn.recover(pc, {idx, d}, &stats);
    allocated = t_allocations - before;
  });
  worker.join();
  EXPECT_EQ(allocated, 0) << "a fresh thread's recover() allocated";
  EXPECT_EQ(stats.levels(), 3 * n);
}

TEST(NoAllocation, SearchRecoveryHotPath) {
  for (auto& c : engine_cases()) {
    i64 idx[kMaxDepth];
    const size_t d = static_cast<size_t>(c.cn.depth());
    c.cn.recover_search(1, {idx, d});

    const i64 n = std::min<i64>(c.cn.trip_count(), 500);
    const long long before = g_allocations.load();
    for (i64 pc = 1; pc <= n; ++pc) c.cn.recover_search(pc, {idx, d});
    const long long after = g_allocations.load();
    EXPECT_EQ(after, before) << c.name << ": recover_search() allocated";
  }
}

TEST(NoAllocation, NewtonRecoveryHotPath) {
  const NestSpec nest = testutil::tetrahedral_fig6();
  const RankingSystem rs = build_ranking_system(nest);
  const NewtonUnranker nu(rs, {{"N", 40}});
  i64 idx[kMaxDepth];
  const size_t d = static_cast<size_t>(nu.depth());
  nu.recover(1, {idx, d});

  const long long before = g_allocations.load();
  for (i64 pc = 1; pc <= 500; ++pc) nu.recover(pc, {idx, d});
  const long long after = g_allocations.load();
  EXPECT_EQ(after, before) << "NewtonUnranker::recover() allocated";
}

TEST(NoAllocation, TupleWalkHotPath) {
  // The range schemes' tuple walk: the depth-specialised walks (2-4)
  // and the depth-generic one (5) keep the tuple on the stack.
  std::vector<Case> cases;
  cases.push_back({"triangular", collapse(testutil::triangular_strict()).bind({{"N", 300}})});
  cases.push_back({"tetrahedral", collapse(testutil::tetrahedral_fig6()).bind({{"N", 40}})});
  cases.push_back({"simplex_quartic", collapse(testutil::simplex_4d()).bind({{"N", 20}})});
  cases.push_back({"simplex_5d", collapse(testutil::simplex_5d()).bind({{"N", 12}})});
  const Schedule s = Schedule::per_thread({1});
  for (auto& c : cases) {
    i64 sum = 0;
    const auto body = [&sum](std::span<const i64> idx) { sum += idx.back(); };
    nrc::run(c.cn, s, body);  // warm-up: thread team, lazy paths

    const long long before = g_allocations.load();
    nrc::run(c.cn, s, body);
    const long long after = g_allocations.load();
    EXPECT_EQ(after, before) << c.name << ": the tuple walk allocated";
    EXPECT_NE(sum, 0) << c.name;
  }
}

TEST(AllocationBudget, RankingSystemBuild) {
  // The symbolic build is not allocation-free, but its count is
  // deterministic: flat term arrays with shared variable lists keep it
  // near the number of polynomials built.  The budgets sit a little
  // above the measured counts (simplex4 417, c4a 425), far below the
  // ~3,300 allocations of the string-keyed term maps they replaced.
  NestSpec c4a;
  c4a.param("N")
      .loop("i", aff::c(0), aff::v("N"))
      .loop("j", aff::v("i"), aff::v("N"))
      .loop("k", aff::v("j"), aff::v("N"))
      .loop("l", aff::v("k"), aff::v("N") + 1);
  const std::pair<const char*, NestSpec> nests[] = {{"simplex4", testutil::simplex_4d()},
                                                    {"c4a", c4a}};
  for (const auto& [name, nest] : nests) {
    (void)build_ranking_system(nest);  // first use: per-thread buffers, Faulhaber cache
    const long long before = t_allocations;
    const RankingSystem rs = build_ranking_system(nest);
    const long long used = t_allocations - before;
    EXPECT_LE(used, 470) << name;
    EXPECT_GT(used, 0) << name;
    RecordProperty(name, static_cast<int>(used));
  }
}

TEST(AllocationBudget, FreshBind) {
  // bind() lowers every call afresh into one compiled form per bound
  // polynomial and keeps no copy.  The budget sits a little above the
  // measured count (362); two heap arrays per compiled polynomial and a
  // kept copy of every bound evaluator read 408 and break it.
  const Collapsed col = collapse(testutil::simplex_4d());
  (void)col.bind({{"N", 30}});  // first use: per-thread buffers
  const long long before = t_allocations;
  const CollapsedEval ev = col.bind({{"N", 31}});
  const long long used = t_allocations - before;
  EXPECT_EQ(ev.solver_kind(0), LevelSolverKind::Quartic);
  EXPECT_LE(used, 375);
  RecordProperty("simplex4", static_cast<int>(used));
}

TEST(AllocationBudget, ServeHitsDoNotParse) {
  // A warm request through handle_request is looked up by its text and
  // never parsed.  Parsing the same text alone allocates more than any
  // of these hits does whole, so a hit that parsed would break its
  // budget.  The budgets sit a little above the measured counts
  // (describe 13, lint 6, run 8, jitrun 13 or, on the fallback kernel
  // of a host without a C toolchain, 16; parsing alone 46).  A warm
  // jitrun hit keys the kernel cache on the plan's record, rendered once
  // per plan; rendering it on every lookup reads 28.
  const std::string text =
      "for (i = 0; i < N; i++)\n"
      "  for (j = i; j < N; j++)\n"
      "    for (k = j; k < N; k++) { /* body */; }\n";
  const long long parse_before = t_allocations;
  (void)serve::parse_nest_text(text).collapsed_nest();
  const long long parse = t_allocations - parse_before;
  RecordProperty("parse", static_cast<int>(parse));

  const int threads = omp_get_max_threads();
  omp_set_num_threads(1);  // the run walk allocates on this thread only
  PlanCache cache(16, 2);
  const struct {
    const char* verb;
    long long budget;
  } verbs[] = {{"describe", 16}, {"lint", 8}, {"run", 10}, {"jitrun", 18}};
  for (const auto& [verb, budget] : verbs) {
    serve::Request req;
    req.verb = verb;
    req.params = {{"N", 20}};
    req.nest_text = text;
    (void)serve::handle_request(cache, req);  // prime: the build, lazy paths
    (void)serve::handle_request(cache, req);
    const long long before = t_allocations;
    const serve::Response resp = serve::handle_request(cache, req);
    const long long used = t_allocations - before;
    ASSERT_TRUE(resp.ok) << verb << ": " << resp.payload;
    EXPECT_EQ(resp.outcome, "hit") << verb;
    EXPECT_LE(used, budget) << verb;
    EXPECT_GT(parse, budget) << verb << ": the budget does not tell a hit from a parse";
    RecordProperty(verb, static_cast<int>(used));
  }
  omp_set_num_threads(threads);
}

TEST(NoAllocation, CounterItselfWorks) {
  // Sanity: the hook really observes allocations.
  const long long before = g_allocations.load();
  auto* p = new int(7);
  const long long after = g_allocations.load();
  delete p;
  EXPECT_GT(after, before);
}

}  // namespace
}  // namespace nrc
