// Ablation: micro-costs of the symbolic machinery at runtime — exact
// integer evaluation of ranking polynomials (the correction guard) and
// complex evaluation of the compiled root formulas, by degree.  These
// are the per-recovery costs that Fig. 10 aggregates.

#include <benchmark/benchmark.h>

#include "core/ranking.hpp"
#include "symbolic/compile.hpp"
#include "symbolic/root_formula.hpp"

using namespace nrc;

namespace {

struct Setup {
  std::vector<std::string> slots;
  CompiledPoly rank;
  CompiledExpr root;
  std::vector<i64> point;
};

/// Build rank polynomial + level-0 root formula for a simplex of the
/// given depth (level-0 equation degree == depth).
Setup make_setup(int depth) {
  NestSpec nest;
  nest.param("N");
  const char* vars[] = {"i", "j", "k", "l"};
  for (int d = 0; d < depth; ++d)
    nest.loop(vars[d], d == 0 ? aff::c(0) : aff::v(vars[d - 1]), aff::v("N"));
  const RankingSystem rs = build_ranking_system(nest);

  Setup s;
  s.slots = nest.loop_vars();
  s.slots.push_back("N");
  s.slots.push_back(kPcVar);
  s.rank = CompiledPoly(rs.rank, s.slots);

  const Polynomial eq = rs.prefix_rank[0] - Polynomial::variable(kPcVar);
  const auto coeffs = eq.coefficients_in("i");
  s.root = CompiledExpr(root_branch_exprs(std::span<const Polynomial>(coeffs))[0], s.slots);

  s.point.assign(s.slots.size(), 0);
  s.point[s.slots.size() - 2] = 1000;  // N
  s.point[s.slots.size() - 1] = 12345; // pc
  for (int d = 0; d < depth; ++d) s.point[static_cast<size_t>(d)] = 3 + d;
  return s;
}

void BM_RankEvalExactI128(benchmark::State& state) {
  const Setup s = make_setup(static_cast<int>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(s.rank.eval_i128(s.point));
  state.SetLabel("degree " + std::to_string(state.range(0)));
}

void BM_RootFormulaComplexEval(benchmark::State& state) {
  const Setup s = make_setup(static_cast<int>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(s.root.eval(s.point));
  state.SetLabel("degree " + std::to_string(state.range(0)));
}

}  // namespace

BENCHMARK(BM_RankEvalExactI128)->Arg(1)->Arg(2)->Arg(3)->Arg(4);
BENCHMARK(BM_RootFormulaComplexEval)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

BENCHMARK_MAIN();
