// The convenient root, chosen by interval.
//
// Each non-innermost level keeps the real root of its level equation
// that lies in the level's range [lb, ub] (core/real_solvers.hpp); the
// exact guard then pins the index.  On the paper kernels' nests, the
// serving shapes and cold families of the benchmark population, and a
// quartic whose bounds carry a growing shift, the unguarded estimate
// must land within half a step of the range and within one step of the
// true index, and the guarded recovery must match exact search without
// a single search fallback.
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "../test_util.hpp"
#include "codegen/dsl_parser.hpp"
#include "kernels/registry.hpp"

namespace nrc {
namespace {

NestSpec parse_nest(const std::string& text) {
  return parse_nest_program(text + "body { }\n").nest;
}

/// Sampled pcs of `cn` (every pc of a small domain; otherwise both ends
/// and ~1500 seeded draws).
std::vector<i64> sample_pcs(const CollapsedEval& cn, u64 seed) {
  const i64 total = cn.trip_count();
  std::vector<i64> pcs;
  if (total <= 1500) {
    for (i64 pc = 1; pc <= total; ++pc) pcs.push_back(pc);
    return pcs;
  }
  std::mt19937_64 rng(seed);
  pcs = {1, 2, total - 1, total};
  for (int i = 0; i < 1500; ++i) pcs.push_back(1 + static_cast<i64>(rng() % static_cast<u64>(total)));
  return pcs;
}

void expect_interval_roots(const CollapsedEval& cn, const std::string& tag) {
  const size_t d = static_cast<size_t>(cn.depth());
  std::vector<i64> ref(d), got(d), raw(d);
  RecoveryStats stats;
  for (const i64 pc : sample_pcs(cn, static_cast<u64>(cn.trip_count()))) {
    cn.recover_search(pc, ref);
    cn.recover(pc, got, &stats);
    ASSERT_EQ(got, ref) << tag << " pc=" << pc;
    ASSERT_TRUE(cn.recover_closed_raw(pc, raw)) << tag << " no root in range, pc=" << pc;
    // Compare level by level while the raw prefix is the true one.
    for (int k = 0; k + 1 < cn.depth(); ++k) {
      const size_t q = static_cast<size_t>(k);
      const i64 lb = cn.lower_bound(k, ref);
      const i64 ub = cn.upper_bound(k, ref);
      ASSERT_GE(raw[q], lb - 1) << tag << " level " << k << " pc=" << pc;
      ASSERT_LE(raw[q], ub) << tag << " level " << k << " pc=" << pc;
      ASSERT_LE(std::llabs(raw[q] - ref[q]), 1) << tag << " level " << k << " pc=" << pc;
      if (raw[q] != ref[q]) break;
    }
  }
  EXPECT_EQ(stats.fallback, 0) << tag;
}

TEST(IntervalRoot, ChosenRootLiesInRangeAndRecoversExactly) {
  // The paper kernels' nests, at the floor and the 1% problem size.
  for (const std::string& name : kernel_names()) {
    for (const double scale : {0.0, 0.01}) {
      auto k = make_kernel(name);
      k->prepare(scale);
      expect_interval_roots(collapse(k->collapsed_spec()).bind(k->bound_params()), name);
    }
  }
  // benchmark/population.cpp's serve_shapes() and cold_shapes() (the
  // cold families at their fixed shifts), as nest text.
  const std::vector<std::pair<const char*, const char*>> shapes = {
      {"tri", "params N\nloop i = 0 .. N - 1\nloop j = i + 1 .. N\n"},
      {"lower", "params N\nloop i = 0 .. N\nloop j = 0 .. i + 1\n"},
      {"tetra", "params N\nloop i = 0 .. N - 1\nloop j = 0 .. i + 1\nloop k = j .. i + 1\n"},
      {"simplex3", "params N\nloop i = 0 .. N\nloop j = i .. N\nloop k = j .. N\n"},
      {"simplex4", "params N\nloop i = 0 .. N\nloop j = i .. N\nloop k = j .. N\nloop l = k .. N\n"},
      {"simplex4sh",
       "params N\nloop i = 3 .. N + 3\nloop j = i - 2 .. N + 3\nloop k = j .. N + 4\n"
       "loop l = k .. N + 5\n"},
      {"rect", "params N M\nloop i = 0 .. N\nloop j = 0 .. M\n"},
      {"skew", "params T N\nloop i = 0 .. T\nloop j = i .. N + 2*i\n"},
      {"c2a", "params N\nloop i = 0 .. N\nloop j = i + 16 .. N + 32\n"},
      {"c2b", "params N\nloop i = 0 .. N\nloop j = 16 .. i + 1 + 32\n"},
      {"c3a", "params N\nloop i = 0 .. N\nloop j = i .. N + 4\nloop k = j .. N + 4 + 2\n"},
      {"c3b", "params N\nloop i = 0 .. N\nloop j = 0 .. i + 1\nloop k = j + 6 .. i + 1 + 12\n"},
      {"c4a", "params N\nloop i = 0 .. N\nloop j = i .. N\nloop k = j .. N\nloop l = k .. N + 1\n"},
      {"c4b",
       "params N\nloop i = 0 .. N\nloop j = i .. N + 1\nloop k = j .. N + 1\n"
       "loop l = k .. N + 1 + 0\n"},
  };
  for (const auto& [name, text] : shapes) {
    const Collapsed col = collapse(parse_nest(text));
    for (const i64 n : {9, 200})
      expect_interval_roots(col.bind(testutil::uniform_params(col.nest(), n)),
                            std::string(name) + " N=" + std::to_string(n));
  }
  // i=0..N, j=i..N+s, k=j..N+s, l=k..N+s over a shift sweep, out to the
  // shifts the old calibration rejected.
  for (const int s : {0, 1, 2, 3, 4, 6, 8, 12, 14, 16, 20, 32, 64}) {
    const std::string sh = std::to_string(s);
    const Collapsed col = collapse(parse_nest("params N\nloop i = 0 .. N\nloop j = i .. N + " +
                                              sh + "\nloop k = j .. N + " + sh +
                                              "\nloop l = k .. N + " + sh + "\n"));
    expect_interval_roots(col.bind({{"N", 9}}), "quartic s=" + sh);
  }
}

// Rank polynomials evaluated in long double must give the exact integer
// value on integer points of these magnitudes.
TEST(RankEval, LongDoubleEvalIsExactOnKernelRanks) {
  for (const std::string& name : kernel_names()) {
    auto k = make_kernel(name);
    k->prepare(0.0);
    const NestSpec nest = k->collapsed_spec();
    const ParamMap params = k->bound_params();
    const RankingSystem rs = build_ranking_system(nest);
    std::vector<std::string> slots = nest.loop_vars();
    for (const auto& p : nest.params()) slots.push_back(p);
    std::vector<i64> pt(slots.size(), 0);
    std::vector<long double> pt_ld(slots.size(), 0.0L);
    for (size_t s = 0; s < slots.size(); ++s)
      if (auto it = params.find(slots[s]); it != params.end()) pt[s] = it->second;

    std::vector<CompiledPoly> polys{CompiledPoly(rs.rank, slots)};
    for (const Polynomial& r : rs.prefix_rank) polys.emplace_back(r, slots);
    size_t checked = 0;
    walk_domain(nest, params, [&](std::span<const i64> p) {
      for (size_t q = 0; q < p.size(); ++q) pt[q] = p[q];
      for (size_t s = 0; s < pt.size(); ++s) pt_ld[s] = static_cast<long double>(pt[s]);
      for (const CompiledPoly& cp : polys) {
        ASSERT_EQ(cp.eval_ld(pt_ld), static_cast<long double>(cp.eval_i128(pt))) << name;
        ++checked;
      }
    });
    EXPECT_GT(checked, 0u) << name;
  }
}

}  // namespace
}  // namespace nrc
