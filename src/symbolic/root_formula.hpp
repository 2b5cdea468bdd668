#pragma once
// Symbolic closed-form roots of polynomial equations, degrees 1..4.
//
// Given the coefficients of a level equation (polynomials in the prefix
// indices, the parameters and pc), build the expression trees of its root
// branches.  Branch indices follow exactly the numbering of math/roots.hpp
// so that a branch validated numerically identifies the same formula in
// generated code.

#include <span>
#include <vector>

#include "symbolic/expr.hpp"

namespace nrc {

/// Every root branch of a[deg]·x^deg + ... + a[0] = 0, indexed as
/// root_branch_value() numbers them.  `coeffs` = {a0 .. a_deg} (low to
/// high), degree 1..4; throws DegreeError for other degrees.  The
/// branches share every node they have in common (coefficients, Cardano
/// radicals, Ferrari's resolvent), so one CompiledExpr over all of them
/// evaluates each shared value once.
std::vector<Expr> root_branch_exprs(std::span<const Expr> coeffs);

/// Same over coefficient polynomials: one Expr::poly leaf per coefficient.
std::vector<Expr> root_branch_exprs(std::span<const Polynomial> coeffs);

/// One root branch; throws SolveError for an invalid branch.
Expr root_branch_expr(std::span<const Expr> coeffs, int branch);

}  // namespace nrc
