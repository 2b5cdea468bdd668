#pragma once
// Ranking Ehrhart polynomials (paper §III).
//
// The ranking polynomial r(i0,...,i_{c-1}) maps each iteration tuple of
// the nest to its 1-based lexicographic rank.  It is a bijection onto
// [1, total] and is monotonically increasing with respect to the
// lexicographic order of the tuples — the two properties the collapsing
// transformation rests on.

#include <vector>

#include "core/count.hpp"
#include "polyhedral/lexmin.hpp"
#include "polyhedral/nest.hpp"

namespace nrc {

/// The full symbolic description of a nest's ranking.
struct RankingSystem {
  NestSpec nest;  ///< validated collapsed sub-nest

  /// S_k for k = 0..depth: the points of loops k..depth-1, a polynomial
  /// in loop variables 0..k-1 and the parameters (S_depth == 1).
  std::vector<Polynomial> subtree;

  /// r(i0..i_{c-1}): rank polynomial over loop vars + params.
  Polynomial rank;

  /// prefix_rank[k] = r with loops k+1.. substituted by their parametric
  /// lexicographic minima; this is the polynomial whose root in variable
  /// i_k the level-k recovery needs (paper §IV-A).  prefix_rank[c-1]
  /// is `rank` itself.
  std::vector<Polynomial> prefix_rank;

  /// Total trip count in the parameters: subtree[0], which equals
  /// r(lexmax) (cross-checked by the test suite).
  Polynomial total;
};

/// Build the ranking system.  Throws SpecError for invalid nests and
/// nests using the reserved variable name "pc".
RankingSystem build_ranking_system(const NestSpec& spec);

/// The reserved name of the collapsed single-loop iterator.
inline constexpr const char* kPcVar = "pc";

}  // namespace nrc
