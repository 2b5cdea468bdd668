// Ablation: micro-costs of the symbolic machinery at runtime — exact
// integer evaluation of ranking polynomials (the correction guard) and
// the interval-selected real-arithmetic root estimate of a level
// equation, by degree.  These are the per-recovery costs that Fig. 10
// aggregates.

#include <benchmark/benchmark.h>

#include "core/ranking.hpp"
#include "core/real_solvers.hpp"
#include "core/unrank_closed.hpp"

using namespace nrc;

namespace {

struct Setup {
  std::vector<std::string> slots;
  CompiledPoly rank;
  std::vector<CompiledPoly> coeffs;  // level 0's A_0..A_deg, integer-scaled
  std::vector<i64> point;
  i64 lb = 0, ub = 0;                // level 0's range
};

/// Build the rank polynomial and level 0's equation for a simplex of the
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

  const LevelFormula lf = build_level_formulas(rs, 4)[0];
  i64 den = 1;
  for (const auto& a : lf.coeffs) den = lcm_i64(den, a.denominator_lcm());
  for (const auto& a : lf.coeffs) s.coeffs.emplace_back(a * Rational(den), s.slots);

  s.point.assign(s.slots.size(), 0);
  s.point[s.slots.size() - 2] = 1000;  // N
  s.point[s.slots.size() - 1] = 12345; // pc
  for (int d = 0; d < depth; ++d) s.point[static_cast<size_t>(d)] = 3 + d;
  s.ub = 1000;
  return s;
}

void BM_RankEvalExactI128(benchmark::State& state) {
  const Setup s = make_setup(static_cast<int>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(s.rank.eval_i128(s.point));
  state.SetLabel("degree " + std::to_string(state.range(0)));
}

/// Coefficients evaluated exactly, then the degree's estimator in long
/// double (the checked-i128 guard path).
void BM_LevelRootEstimate(benchmark::State& state) {
  const int degree = static_cast<int>(state.range(0));
  const Setup s = make_setup(degree);
  for (auto _ : state) {
    i128 A[5];
    for (int e = 0; e <= degree; ++e) A[e] = s.coeffs[static_cast<size_t>(e)].eval_i128(s.point);
    i64 est = 0;
    bool ok = false;
    if (degree == 2) {
      ok = quadratic_estimate<long double>(A, s.lb, s.ub, &est);
    } else if (degree == 3) {
      ok = cubic_estimate<long double>(A, s.lb, s.ub, &est);
    } else {
      ok = ferrari_estimate<long double>(A, s.lb, s.ub, &est);
    }
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(est);
  }
  state.SetLabel("degree " + std::to_string(degree));
}

}  // namespace

BENCHMARK(BM_RankEvalExactI128)->Arg(1)->Arg(2)->Arg(3)->Arg(4);
BENCHMARK(BM_LevelRootEstimate)->Arg(2)->Arg(3)->Arg(4);

BENCHMARK_MAIN();
