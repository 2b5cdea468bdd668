#include "core/unrank_closed.hpp"

#include <algorithm>
#include <cmath>

#include "math/roots.hpp"
#include "support/error.hpp"
#include "symbolic/root_formula.hpp"

namespace nrc {

std::vector<LevelFormula> build_level_formulas(const RankingSystem& rs, int max_degree) {
  const int c = rs.nest.depth();
  std::vector<LevelFormula> levels(static_cast<size_t>(c));
  const Polynomial pc_poly = Polynomial::variable(kPcVar);
  for (int k = 0; k < c; ++k) {
    LevelFormula& lf = levels[static_cast<size_t>(k)];
    const std::string& var = rs.nest.at(k).var;
    const Polynomial eq = rs.prefix_rank[static_cast<size_t>(k)] - pc_poly;
    lf.degree = eq.degree_in(var);
    if (lf.degree < 1)
      throw SolveError("level equation for '" + var +
                       "' is constant in its own variable; nest violates the model");
    if (lf.degree > max_degree) continue;  // exact-search recovery for this level
    lf.coeffs = eq.coefficients_in(var);
  }
  return levels;
}

ParamMap default_calibration(const NestSpec& spec) {
  if (spec.params().empty()) return {};
  // Smallest uniform assignment with a healthy, model-conforming domain.
  // The count stops past 4000 points, so a candidate far too large for
  // calibration is rejected after 4001 of them, not after its whole domain.
  constexpr i64 kMaxPoints = 4000;
  for (i64 v : {6, 8, 5, 7, 10, 12, 4, 16, 3, 24, 32, 2, 48, 64}) {
    ParamMap cal;
    for (const auto& p : spec.params()) cal[p] = v;
    const i64 n = count_domain_capped(spec, cal, kMaxPoints);
    if (n >= 4 && n <= kMaxPoints && has_no_empty_ranges(spec, cal)) return cal;
  }
  throw SolveError(
      "default_calibration: no uniform parameter assignment yields a usable "
      "calibration domain; pass CollapseOptions::calibration explicitly");
}

CalibrationRows calibration_rows(const RankingSystem& rs, const ParamMap& calibration,
                                 std::span<const std::string> slot_order) {
  CalibrationRows rows;
  rows.width = slot_order.size();
  std::vector<i64> row(rows.width, 0);
  for (size_t s = 0; s < rows.width; ++s)
    if (auto it = calibration.find(slot_order[s]); it != calibration.end()) row[s] = it->second;
  // Exact pc for every calibration point, via the rank polynomial.
  const CompiledPoly rank_cp(rs.rank, slot_order);
  walk_domain(rs.nest, calibration, [&](std::span<const i64> p) {
    std::copy(p.begin(), p.end(), row.begin());
    row.back() = narrow_i64(rank_cp.eval_i128(row));
    rows.data.insert(rows.data.end(), row.begin(), row.end());
  });
  if (rows.size() == 0)
    throw SolveError("select_convenient_branches: calibration domain is empty");
  return rows;
}

LevelBranches compile_level_branches(const LevelFormula& lf,
                                     std::span<const std::string> slot_order) {
  LevelBranches lb;
  lb.roots = root_branch_exprs(std::span<const Polynomial>(lf.coeffs));
  lb.program = CompiledExpr(lb.roots, slot_order);
  return lb;
}

int score_level_branches(const LevelBranches& lb, int level, const CalibrationRows& rows) {
  const size_t nb = lb.roots.size();
  std::vector<size_t> score(nb, 0);
  std::vector<cld> values(nb);
  std::vector<cld> program_values(lb.program.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    // The level-k formula reads only the outer indices, the parameters
    // and pc, so the point's own row is its input.  Consecutive rows share
    // the parameters and most of the prefix: only what reads a slot that
    // changed since the previous row is computed again.
    const std::span<const i64> row = rows.row(i);
    u64 changed = CompiledExpr::kAllSlots;
    if (i > 0) {
      changed = 0;
      const std::span<const i64> prev = rows.row(i - 1);
      for (size_t s = 0; s < row.size(); ++s)
        if (row[s] != prev[s]) changed |= u64{1} << std::min<size_t>(s, 63);
    }
    const i64 expected = row[static_cast<size_t>(level)];
    lb.program.eval(row, changed, program_values, values);
    for (size_t b = 0; b < nb; ++b) {
      const cld z = values[b];
      if (!std::isfinite(z.real()) || !std::isfinite(z.imag())) continue;
      const long double tol = 1e-6L * std::max<long double>(1.0L, std::abs(z.real()));
      if (std::abs(z.imag()) > tol) continue;
      // Nudge before flooring: the convenient root is an exact integer
      // when pc is the rank of an iteration whose level-k coordinate is
      // about to change, and FP noise must not push it below.
      const i64 got = static_cast<i64>(std::floor(z.real() + 1e-9L));
      if (got == expected) ++score[b];
    }
  }

  int best = -1;
  size_t best_score = 0;
  for (size_t b = 0; b < nb; ++b) {
    if (score[b] > best_score) {
      best_score = score[b];
      best = static_cast<int>(b);
    }
  }
  // Trust the branch only when it nails (almost) the whole calibration
  // domain; anything else indicates a model violation and exact search
  // is the safe recovery.
  return best_score * 2 > rows.size() ? best : -1;
}

void select_convenient_branches(std::vector<LevelFormula>& levels, const RankingSystem& rs,
                                const ParamMap& calibration,
                                std::span<const std::string> slot_order) {
  const CalibrationRows rows = calibration_rows(rs, calibration, slot_order);
  for (int k = 0; k < rs.nest.depth(); ++k) {
    LevelFormula& lf = levels[static_cast<size_t>(k)];
    if (lf.coeffs.empty()) continue;  // degree > max: search recovery
    LevelBranches lb = compile_level_branches(lf, slot_order);
    lf.branch = score_level_branches(lb, k, rows);
    lf.root = lf.branch >= 0 ? std::move(lb.roots[static_cast<size_t>(lf.branch)]) : Expr();
  }
}

}  // namespace nrc
