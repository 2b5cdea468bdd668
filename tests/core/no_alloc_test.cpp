// Zero-heap-allocation guarantee of the recovery hot path.
//
// This suite replaces the global operator new/delete with counting
// versions (which is why it links into its own test executable) and
// asserts that recover(), recover_block(), recover_search(), the
// NewtonUnranker and the CompiledExpr interpreter perform no allocation
// after bind-time setup — the
// property the §V chunked schemes rely on to keep per-chunk recovery
// overhead flat — and that neither does the tuple walk nrc::run drives
// a range scheme's body with.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "../test_util.hpp"

namespace {
std::atomic<long long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
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
  // The guarded Ferrari, in all four engine configurations: proven-f64
  // guards (the default), the checked-i128 reference guards, the forced
  // per-point bytecode demotion path, and the bytecode ablation — every
  // one must stay allocation-free.
  cases.push_back({"simplex_quartic", collapse(testutil::simplex_4d()).bind({{"N", 20}})});
  cases.push_back({"simplex_quartic_i128", collapse(testutil::simplex_4d()).bind({{"N", 20}})});
  cases.back().cn.set_f64_guards(false);
  cases.push_back(
      {"simplex_quartic_demoted", collapse(testutil::simplex_4d()).bind({{"N", 20}})});
  cases.back().cn.force_quartic_demotion();
  cases.push_back(
      {"simplex_quartic_bytecode", collapse(testutil::simplex_4d()).bind({{"N", 20}})});
  cases.back().cn.use_bytecode_quartics();
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

TEST(NoAllocation, CompiledExprEval) {
  // The generic interpreter: the runtime fallback (recover_interpreted,
  // the quartic demotion's last resort) and branch calibration, which
  // evaluates every branch of a level in one program per point.
  for (const NestSpec& nest : {testutil::triangular_strict(), testutil::tetrahedral_fig6(),
                               testutil::simplex_4d()}) {
    const Collapsed col = collapse(nest);
    const ParamMap params{{"N", 20}};
    const CollapsedEval cn = col.bind(params);
    std::vector<i64> pt(col.slot_order().size(), 0);
    pt[pt.size() - 2] = 20;
    std::vector<CompiledExpr> roots;
    std::vector<LevelBranches> branches;
    for (const LevelFormula& lf : col.levels()) {
      if (lf.branch < 0) continue;
      roots.emplace_back(lf.root, col.slot_order());
      branches.push_back(compile_level_branches(lf, col.slot_order()));
    }
    ASSERT_FALSE(roots.empty()) << nest.str();
    std::vector<cld> out(12), values(512);
    i64 idx[kMaxDepth];
    const size_t d = static_cast<size_t>(cn.depth());
    auto eval_all = [&](i64 pc) {
      pt.back() = pc;
      for (const CompiledExpr& ce : roots) (void)ce.eval(pt);
      for (const LevelBranches& lb : branches)
        lb.program.eval(pt, CompiledExpr::kAllSlots, values,
                        std::span<cld>(out.data(), lb.roots.size()));
      cn.recover_interpreted(pc, {idx, d});
    };
    eval_all(1);  // warm-up: each thread's value buffer

    const i64 n = std::min<i64>(cn.trip_count(), 500);
    const long long before = g_allocations.load();
    for (i64 pc = 1; pc <= n; ++pc) eval_all(pc);
    const long long after = g_allocations.load();
    EXPECT_EQ(after, before) << nest.str() << ": CompiledExpr::eval allocated";
  }
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
