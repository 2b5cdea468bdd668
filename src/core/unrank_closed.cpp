#include "core/unrank_closed.hpp"

#include "support/error.hpp"

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

}  // namespace nrc
