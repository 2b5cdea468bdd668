#pragma once
// Closed-form unranking: the level equations (paper §IV).
//
// For each level k the equation
//
//   A(x) = prefix_rank[k](i_0, ..., i_{k-1}, x) - pc = 0
//
// is univariate in x with coefficients that are polynomials in the prefix
// indices, the parameters and pc.  Degrees up to 4 are invertible in
// closed form.  The rank does not decrease as x steps through the
// level's range [lb, ub], so A changes sign there exactly once: the
// *convenient* root of the paper is the real root inside [lb, ub], and
// floor of it recovers the original index for every pc.  The runtime
// solvers (core/real_solvers.hpp) select it by that interval at each
// point; nothing is calibrated at collapse time.

#include <vector>

#include "core/ranking.hpp"

namespace nrc {

/// Closed-form description of one level's recovery.
struct LevelFormula {
  int degree = 0;                  ///< degree of the level equation in i_k
  std::vector<Polynomial> coeffs;  ///< a0..a_deg over (i_0..i_{k-1}, params, pc);
                                   ///< empty: recovered by exact search
};

/// Build the level equations.  Levels whose degree exceeds `max_degree`
/// get an empty coefficient list (they will be recovered by exact
/// search).
std::vector<LevelFormula> build_level_formulas(const RankingSystem& rs, int max_degree);

}  // namespace nrc
