#pragma once
// Symbolic point counting for affine loop nests.
//
// subtree_counts returns the family of Ehrhart polynomials S_k counting
// the iterations of the sub-nest below each level; S_0 is the nest's
// total trip-count polynomial in the parameters (paper §III: "the exact
// number of iterations of a parameterized loop nest").  Both are read off
// the ranking system, which builds them bottom-up with Faulhaber sums.

#include <vector>

#include "math/polynomial.hpp"
#include "polyhedral/nest.hpp"

namespace nrc {

/// S[k] for k = 0..depth: the number of points of loops k..depth-1 as a
/// polynomial in loop variables 0..k-1 and the parameters.
/// S[depth] == 1; S[0] is the total count (parameters only).
/// Valid under the Fig. 5 model precondition (no empty ranges); throws
/// SpecError where build_ranking_system does.
std::vector<Polynomial> subtree_counts(const NestSpec& spec);

/// Total trip count of the nest as a polynomial in its parameters.
Polynomial count_polynomial(const NestSpec& spec);

}  // namespace nrc
