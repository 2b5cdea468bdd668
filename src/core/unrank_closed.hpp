#pragma once
// Closed-form unranking: the level equations and their convenient roots
// (paper §IV).
//
// For each level k the equation
//
//   prefix_rank[k](i_0, ..., i_{k-1}, x) - pc = 0
//
// is univariate in x with coefficients that are polynomials in the prefix
// indices, the parameters and pc.  Degrees up to 4 are invertible in
// closed form; among the root branches exactly one — the *convenient*
// root — recovers the original index as floor(Re(x)) for every pc
// (paper §IV-D proves uniqueness and pc-independence of the branch).
// Branch selection is therefore performed once, numerically, on a small
// calibration domain, and generalizes.

#include <vector>

#include "core/ranking.hpp"
#include "polyhedral/domain.hpp"
#include "symbolic/compile.hpp"
#include "symbolic/expr.hpp"

namespace nrc {

/// Closed-form description of one level's recovery.
struct LevelFormula {
  int degree = 0;                  ///< degree of the level equation in i_k
  std::vector<Polynomial> coeffs;  ///< a0..a_deg over (i_0..i_{k-1}, params, pc)
  int branch = -1;                 ///< selected convenient branch (-1: none)
  Expr root;                       ///< symbolic root (empty when branch < 0)
};

/// Build the level equations; `root`/`branch` stay unset.  Levels whose
/// degree exceeds `max_degree` get an empty coefficient list (they will
/// be recovered by exact search).
std::vector<LevelFormula> build_level_formulas(const RankingSystem& rs, int max_degree);

/// The calibration domain laid out for branch scoring: one slot-ordered
/// row per point (loop indices, calibration parameters, and at the last
/// slot the point's exact pc), in lexicographic order.
struct CalibrationRows {
  size_t width = 0;
  std::vector<i64> data;

  size_t size() const { return width == 0 ? 0 : data.size() / width; }
  std::span<const i64> row(size_t i) const { return {data.data() + i * width, width}; }
};

/// Enumerate the nest at `calibration`; throws SolveError when it is empty.
CalibrationRows calibration_rows(const RankingSystem& rs, const ParamMap& calibration,
                                 std::span<const std::string> slot_order);

/// Every root branch of one level, compiled into one value-numbered
/// program whose eval() scores them all in one pass per point.
struct LevelBranches {
  std::vector<Expr> roots;  ///< indexed by branch
  CompiledExpr program;
};

/// The branches of a level with coefficients (degree <= the closed-form cap).
LevelBranches compile_level_branches(const LevelFormula& lf,
                                     std::span<const std::string> slot_order);

/// The convenient branch of level `level`: the branch whose floor recovers
/// that level's index on the most calibration points, or -1 when none
/// recovers more than half of them.
int score_level_branches(const LevelBranches& lb, int level, const CalibrationRows& rows);

/// Numerically select the convenient branch for every level over the
/// whole calibration domain, and fill in `branch` and `root`.
/// A level whose best branch mis-recovers more than half of the
/// calibration points is disabled (branch = -1) rather than trusted.
/// `slot_order` is the variable layout used at runtime
/// (loop vars, params..., "pc").
void select_convenient_branches(std::vector<LevelFormula>& levels, const RankingSystem& rs,
                                const ParamMap& calibration,
                                std::span<const std::string> slot_order);

/// Heuristic calibration parameters: the smallest uniform assignment
/// giving a healthy, non-degenerate domain.  Returns an empty map for
/// parameter-free nests.  Throws SolveError when nothing suitable exists.
ParamMap default_calibration(const NestSpec& spec);

}  // namespace nrc
