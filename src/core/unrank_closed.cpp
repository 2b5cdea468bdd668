#include "core/unrank_closed.hpp"

#include <cmath>

#include "math/roots.hpp"
#include "support/error.hpp"
#include "symbolic/compile.hpp"
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
  for (i64 v : {6, 8, 5, 7, 10, 12, 4, 16, 3, 24, 32, 2, 48, 64}) {
    ParamMap cal;
    for (const auto& p : spec.params()) cal[p] = v;
    const i64 n = count_domain_brute(spec, cal);
    if (n >= 4 && n <= 4000 && has_no_empty_ranges(spec, cal)) return cal;
  }
  throw SolveError(
      "default_calibration: no uniform parameter assignment yields a usable "
      "calibration domain; pass CollapseOptions::calibration explicitly");
}

void select_convenient_branches(std::vector<LevelFormula>& levels, const RankingSystem& rs,
                                const ParamMap& calibration,
                                std::span<const std::string> slot_order) {
  const int c = rs.nest.depth();
  const auto points = domain_points(rs.nest, calibration);
  if (points.empty())
    throw SolveError("select_convenient_branches: calibration domain is empty");

  // Exact pc for every calibration point, via the rank polynomial.
  const CompiledPoly rank_cp(rs.rank, slot_order);
  const size_t nslots = slot_order.size();
  std::vector<i64> base(nslots, 0);
  for (size_t s = 0; s < nslots; ++s) {
    auto it = calibration.find(slot_order[s]);
    if (it != calibration.end()) base[s] = it->second;
  }
  std::vector<i64> pcs(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    std::vector<i64> pt = base;
    for (int k = 0; k < c; ++k) pt[static_cast<size_t>(k)] = points[i][static_cast<size_t>(k)];
    pcs[i] = narrow_i64(rank_cp.eval_i128(pt));
  }

  const size_t pc_slot = nslots - 1;

  for (int k = 0; k < c; ++k) {
    LevelFormula& lf = levels[static_cast<size_t>(k)];
    if (lf.coeffs.empty()) continue;  // degree > max: search recovery

    // Every branch of the level in one value-numbered program: the
    // branches share their coefficient leaves and (Cardano, Ferrari) most
    // of their radicals, and one pass per point scores them all.
    const int nb = root_branch_count(lf.degree);
    std::vector<Expr> roots;
    roots.reserve(static_cast<size_t>(nb));
    for (int b = 0; b < nb; ++b)
      roots.push_back(root_branch_expr(std::span<const Polynomial>(lf.coeffs), b));
    const CompiledExpr compiled(roots, slot_order);

    std::vector<size_t> score(static_cast<size_t>(nb), 0);
    std::vector<cld> values(static_cast<size_t>(nb));
    for (size_t i = 0; i < points.size(); ++i) {
      std::vector<i64> pt = base;
      for (int q = 0; q < k; ++q) pt[static_cast<size_t>(q)] = points[i][static_cast<size_t>(q)];
      pt[pc_slot] = pcs[i];
      const i64 expected = points[i][static_cast<size_t>(k)];
      compiled.eval(pt, values);
      for (int b = 0; b < nb; ++b) {
        const cld z = values[static_cast<size_t>(b)];
        if (!std::isfinite(z.real()) || !std::isfinite(z.imag())) continue;
        const long double tol =
            1e-6L * std::max<long double>(1.0L, std::abs(z.real()));
        if (std::abs(z.imag()) > tol) continue;
        // Nudge before flooring: the convenient root is an exact integer
        // when pc is the rank of an iteration whose level-k coordinate is
        // about to change, and FP noise must not push it below.
        const i64 got = static_cast<i64>(std::floor(z.real() + 1e-9L));
        if (got == expected) ++score[static_cast<size_t>(b)];
      }
    }

    int best = -1;
    size_t best_score = 0;
    for (int b = 0; b < nb; ++b) {
      if (score[static_cast<size_t>(b)] > best_score) {
        best_score = score[static_cast<size_t>(b)];
        best = b;
      }
    }
    // Trust the branch only when it nails (almost) the whole calibration
    // domain; anything else indicates a model violation and exact search
    // is the safe recovery.
    if (best >= 0 && best_score * 2 > points.size()) {
      lf.branch = best;
      lf.root = roots[static_cast<size_t>(best)];
    } else {
      lf.branch = -1;
      lf.root = Expr();
    }
  }
}

}  // namespace nrc
