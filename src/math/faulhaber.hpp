#pragma once
// Faulhaber (power-sum) polynomials and symbolic summation.
//
// This module is the replacement for PolyLib/barvinok Ehrhart counting in
// the model handled by the paper (Fig. 5: perfectly nested loops with
// affine bounds in outer iterators and parameters).  For such nests every
// point count is a nested sum of polynomials over affine ranges, which
// closed-forms exactly through the discrete antiderivative
//
//     F_p(x) = sum_{t=0}^{x} t^p       (degree p+1, integer-valued on Z,
//                                       F_p(-1) = 0 by construction)
//
// composed with the affine bounds.  All arithmetic is exact rational.

#include <string>
#include <vector>

#include "math/polynomial.hpp"

namespace nrc {

/// The Faulhaber polynomial F_p as a univariate polynomial in variable
/// "x" (cached; thread-safe after first use of each degree).
/// F_0(x) = x + 1 (we use the convention 0^0 = 1).
const Polynomial& faulhaber(unsigned p);

/// The discrete antiderivative of P in `var`, as the coefficients G of
/// Q(x) = sum_m G[m] * x^m (Polynomial::horner evaluates it):
/// sum_{var = lo}^{hi} P = Q(hi) - Q(lo - 1) for `lo` and `hi` not
/// involving `var`.
std::vector<Polynomial> antiderivative(const Polynomial& P, const std::string& var);

}  // namespace nrc
