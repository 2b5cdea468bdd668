// Zero-heap-allocation guarantee of the recovery hot path.
//
// This suite replaces the global operator new/delete with counting
// versions (which is why it links into its own test executable) and
// asserts that recover(), recover_block(), recover_search() and the
// NewtonUnranker perform no allocation after bind-time setup — the
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

TEST(NoAllocation, RecoverBlockLanesHotPath) {
  // The lane-strided (SoA) batched path: SIMD fills over caller-owned
  // columns, no hidden scratch.
  for (auto& c : engine_cases()) {
    const size_t d = static_cast<size_t>(c.cn.depth());
    constexpr i64 kBlock = 128;
    std::vector<i64> out(d * kBlock);  // caller-owned buffer: not hot path
    c.cn.recover_block_lanes(1, kBlock, out, kBlock);

    const long long before = g_allocations.load();
    for (i64 lo = 1; lo <= c.cn.trip_count(); lo += kBlock)
      c.cn.recover_block_lanes(lo, kBlock, out, kBlock);
    const long long after = g_allocations.load();
    EXPECT_EQ(after, before) << c.name << ": recover_block_lanes() allocated";
  }
}

TEST(NoAllocation, LaneBatchedRecoveryHotPath) {
  // recover4 / recover_blocks4: lane-parallel solves (including the
  // 4-wide bytecode program on the quartic case) over stack scratch.
  for (auto& c : engine_cases()) {
    const size_t d = static_cast<size_t>(c.cn.depth());
    constexpr i64 kBlock = 32;
    std::vector<i64> tuples(4 * d);
    std::vector<i64> tiles(4 * d * kBlock);
    i64 rows[4];
    const i64 total = c.cn.trip_count();
    const i64 q = std::max<i64>(1, total / 4);
    const i64 pcs[4] = {1, std::min(q + 1, total), std::min(2 * q + 1, total), total};
    c.cn.recover4(pcs, tuples);
    c.cn.recover_blocks4(pcs, kBlock, tiles, kBlock, rows);

    const long long before = g_allocations.load();
    for (i64 lo = 1; lo + 3 <= std::min<i64>(total, 2000); lo += 4) {
      const i64 w[4] = {lo, lo + 1, lo + 2, lo + 3};
      c.cn.recover4(w, tuples);
    }
    c.cn.recover_blocks4(pcs, kBlock, tiles, kBlock, rows);
    const long long after = g_allocations.load();
    EXPECT_EQ(after, before) << c.name << ": lane-batched recovery allocated";
  }
}

TEST(NoAllocation, EightLaneRecoveryHotPath) {
  // recover8 / recover_blocks8: the wide-lane twins (native 512-bit
  // vectors on the AVX-512 leg, emulated elsewhere) over the same
  // stack scratch — no allocation on any leg.
  for (auto& c : engine_cases()) {
    const size_t d = static_cast<size_t>(c.cn.depth());
    constexpr i64 kBlock = 32;
    std::vector<i64> tuples(8 * d);
    std::vector<i64> tiles(8 * d * kBlock);
    i64 rows[8];
    const i64 total = c.cn.trip_count();
    const i64 q = std::max<i64>(1, total / 8);
    i64 pcs[8];
    for (int b = 0; b < 8; ++b) pcs[b] = std::min<i64>(static_cast<i64>(b) * q + 1, total);
    c.cn.recover8(pcs, tuples);
    c.cn.recover_blocks8(pcs, kBlock, tiles, kBlock, rows);

    const long long before = g_allocations.load();
    for (i64 lo = 1; lo + 7 <= std::min<i64>(total, 2000); lo += 8) {
      i64 w[8];
      for (int b = 0; b < 8; ++b) w[b] = lo + b;
      c.cn.recover8(w, tuples);
    }
    c.cn.recover_blocks8(pcs, kBlock, tiles, kBlock, rows);
    const long long after = g_allocations.load();
    EXPECT_EQ(after, before) << c.name << ": 8-lane recovery allocated";
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
