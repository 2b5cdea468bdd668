// Pinned branch calibration.
//
// collapse() picks each level's convenient root branch by scoring every
// branch on a calibration domain (core/unrank_closed.cpp).  The tables
// below list the branch it picks on every level of the paper kernels'
// nests, the serving shapes and cold families of the benchmark
// population, and a quartic whose bounds carry a growing shift.  The
// branch choice decides the emitted code and every recovered tuple, so a
// change to how the scoring evaluates its formulas must leave these
// numbers exactly as they are (-1: the level is recovered by exact
// search).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../test_util.hpp"
#include "codegen/dsl_parser.hpp"
#include "kernels/registry.hpp"

namespace nrc {
namespace {

std::vector<int> chosen_branches(const NestSpec& nest) {
  const Collapsed col = collapse(nest);
  std::vector<int> out;
  for (const LevelFormula& lf : col.levels()) out.push_back(lf.branch);
  return out;
}

NestSpec parse_nest(const std::string& text) {
  return parse_nest_program(text + "body { }\n").nest;
}

struct Pinned {
  const char* name;
  const char* nest;
  std::vector<int> branches;
};

TEST(CalibrationPin, KernelNests) {
  const std::vector<std::pair<std::string, std::vector<int>>> expected = {
      {"correlation", {0, 0}},      {"correlation_tiled", {0, 0}}, {"covariance", {0, 0}},
      {"covariance_tiled", {0, 0}}, {"symm", {0, 0}},              {"syrk", {0, 0}},
      {"syr2k", {0, 0}},            {"trmm", {0, 0}},              {"skewstencil", {0, 0}},
      {"utma", {0, 0}},             {"ltmp", {0, 0}},
  };
  const std::vector<std::string> names = kernel_names();
  ASSERT_EQ(names.size(), expected.size());
  for (size_t i = 0; i < names.size(); ++i) {
    auto k = make_kernel(names[i]);
    k->prepare(0.01);
    EXPECT_EQ(names[i], expected[i].first);
    EXPECT_EQ(chosen_branches(k->collapsed_spec()), expected[i].second) << names[i];
  }
}

// benchmark/population.cpp's serve_shapes() and cold_shapes() (the cold
// families at their fixed shifts), as nest text.
TEST(CalibrationPin, ServeShapesAndColdFamilies) {
  const std::vector<Pinned> pinned = {
      {"tri", "params N\nloop i = 0 .. N - 1\nloop j = i + 1 .. N\n", {0, 0}},
      {"lower", "params N\nloop i = 0 .. N\nloop j = 0 .. i + 1\n", {0, 0}},
      {"tetra", "params N\nloop i = 0 .. N - 1\nloop j = 0 .. i + 1\nloop k = j .. i + 1\n",
       {0, 0, 0}},
      {"simplex3", "params N\nloop i = 0 .. N\nloop j = i .. N\nloop k = j .. N\n", {1, 0, 0}},
      {"simplex4",
       "params N\nloop i = 0 .. N\nloop j = i .. N\nloop k = j .. N\nloop l = k .. N\n",
       {5, 1, 0, 0}},
      {"simplex4sh",
       "params N\nloop i = 3 .. N + 3\nloop j = i - 2 .. N + 3\nloop k = j .. N + 4\n"
       "loop l = k .. N + 5\n",
       {1, 1, 0, 0}},
      {"rect", "params N M\nloop i = 0 .. N\nloop j = 0 .. M\n", {0, 0}},
      {"skew", "params T N\nloop i = 0 .. T\nloop j = i .. N + 2*i\n", {0, 0}},
      {"c2a", "params N\nloop i = 0 .. N\nloop j = i + 16 .. N + 32\n", {0, 0}},
      {"c2b", "params N\nloop i = 0 .. N\nloop j = 16 .. i + 1 + 32\n", {0, 0}},
      {"c3a", "params N\nloop i = 0 .. N\nloop j = i .. N + 4\nloop k = j .. N + 4 + 2\n",
       {1, 0, 0}},
      {"c3b", "params N\nloop i = 0 .. N\nloop j = 0 .. i + 1\nloop k = j + 6 .. i + 1 + 12\n",
       {0, 0, 0}},
      {"c4a",
       "params N\nloop i = 0 .. N\nloop j = i .. N\nloop k = j .. N\nloop l = k .. N + 1\n",
       {3, 1, 0, 0}},
      {"c4b",
       "params N\nloop i = 0 .. N\nloop j = i .. N + 1\nloop k = j .. N + 1\n"
       "loop l = k .. N + 1 + 0\n",
       {5, 1, 0, 0}},
  };
  for (const Pinned& p : pinned)
    EXPECT_EQ(chosen_branches(parse_nest(p.nest)), p.branches) << p.name;
}

// i=0..N, j=i..N+s, k=j..N+s, l=k..N+s: the calibration domain and the
// candidate counts grow with s.
TEST(CalibrationPin, QuarticShiftSweep) {
  for (int s = 0; s <= 16; ++s) {
    const std::string sh = std::to_string(s);
    const std::string text = "params N\nloop i = 0 .. N\nloop j = i .. N + " + sh +
                             "\nloop k = j .. N + " + sh + "\nloop l = k .. N + " + sh + "\n";
    EXPECT_EQ(chosen_branches(parse_nest(text)), (std::vector<int>{5, 1, 0, 0})) << "s=" << s;
  }
}

// The scoring evaluates the level formulas' polynomial leaves in long
// double; on integer points of these magnitudes that must be the exact
// integer value.
TEST(CalibrationPin, LongDoubleEvalIsExactOnKernelRanks) {
  for (const std::string& name : kernel_names()) {
    auto k = make_kernel(name);
    k->prepare(0.01);
    const NestSpec nest = k->collapsed_spec();
    const RankingSystem rs = build_ranking_system(nest);
    std::vector<std::string> slots = nest.loop_vars();
    for (const auto& p : nest.params()) slots.push_back(p);
    const ParamMap cal = default_calibration(nest);
    std::vector<i64> pt(slots.size(), 0);
    std::vector<long double> pt_ld(slots.size(), 0.0L);
    for (size_t s = 0; s < slots.size(); ++s)
      if (auto it = cal.find(slots[s]); it != cal.end()) pt[s] = it->second;

    std::vector<CompiledPoly> polys{CompiledPoly(rs.rank, slots)};
    for (const Polynomial& r : rs.prefix_rank) polys.emplace_back(r, slots);
    size_t checked = 0;
    walk_domain(nest, cal, [&](std::span<const i64> p) {
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
