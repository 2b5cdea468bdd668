#include "symbolic/root_formula.hpp"

#include <vector>

#include "math/roots.hpp"
#include "support/error.hpp"

namespace nrc {
namespace {

Expr k(i64 n) { return Expr::constant(n); }
Expr frac(i64 n, i64 d) { return Expr::constant(Rational(n, d)); }

// Each builder returns every branch of its degree.  The branches share
// the nodes they have in common (the coefficients, Cardano's radicals,
// Ferrari's depressed quartic and resolvent), so one compiled program
// evaluates those once per point; within one branch the DAG is the one
// a single-branch build would give.

std::vector<Expr> linear_roots(std::span<const Expr> a) { return {-a[0] / a[1]}; }

std::vector<Expr> quadratic_roots(std::span<const Expr> a) {
  const Expr s = (a[1] * a[1] - k(4) * a[2] * a[0]).sqrt();
  return {(-a[1] + s) / (k(2) * a[2]), (-a[1] - s) / (k(2) * a[2])};
}

// Cardano on the monic cubic x^3 + b x^2 + c x + d; mirrors
// math/roots.cpp::cardano (generic path; the u->0 degeneration is handled
// at evaluation time by the exact-search fallback).  Branch j rotates u
// by the j-th cube root of unity.
std::vector<Expr> cardano_exprs(const Expr& b, const Expr& c, const Expr& d) {
  const Expr p = c - b * b * frac(1, 3);
  const Expr q = b * b * b * frac(2, 27) - b * c * frac(1, 3) + d;
  const Expr delta = q * q * frac(1, 4) + p * p * p * frac(1, 27);
  const Expr u = ((-q) * frac(1, 2) + delta.sqrt()).cbrt();
  std::vector<Expr> out;
  for (int branch = 0; branch < 3; ++branch) {
    const Expr uk = u * Expr::cis(branch, 3);
    const Expr t = uk - p / (k(3) * uk);
    out.push_back(t - b * frac(1, 3));
  }
  return out;
}

std::vector<Expr> cubic_roots(std::span<const Expr> a) {
  return cardano_exprs(a[2] / a[3], a[1] / a[3], a[0] / a[3]);
}

// Ferrari; mirrors math/roots.cpp::root_quartic, branch = 4*resolvent + quad.
std::vector<Expr> quartic_roots(std::span<const Expr> a) {
  const Expr b = a[3] / a[4];
  const Expr c = a[2] / a[4];
  const Expr d = a[1] / a[4];
  const Expr e = a[0] / a[4];

  const Expr p = c - b * b * frac(3, 8);
  const Expr q = d - b * c * frac(1, 2) + b * b * b * frac(1, 8);
  const Expr r = e - b * d * frac(1, 4) + b * b * c * frac(1, 16) - b * b * b * b * frac(3, 256);

  // Resolvent cubic w^3 + 2p w^2 + (p^2 - 4r) w - q^2 = 0 (monic).
  std::vector<Expr> out;
  for (const Expr& w : cardano_exprs(k(2) * p, p * p - k(4) * r, -(q * q))) {
    const Expr alpha = w.sqrt();
    const Expr beta = (p + w - q / alpha) * frac(1, 2);
    const Expr gamma = (p + w + q / alpha) * frac(1, 2);
    const Expr sb = (alpha * alpha - k(4) * beta).sqrt();
    const Expr sg = (alpha * alpha - k(4) * gamma).sqrt();
    for (const Expr& y : {(-alpha + sb) * frac(1, 2), (-alpha - sb) * frac(1, 2),
                          (alpha + sg) * frac(1, 2), (alpha - sg) * frac(1, 2)})
      out.push_back(y - b * frac(1, 4));
  }
  return out;
}

}  // namespace

std::vector<Expr> root_branch_exprs(std::span<const Expr> coeffs) {
  const int degree = static_cast<int>(coeffs.size()) - 1;
  switch (degree) {
    case 1:
      return linear_roots(coeffs);
    case 2:
      return quadratic_roots(coeffs);
    case 3:
      return cubic_roots(coeffs);
    case 4:
      return quartic_roots(coeffs);
    default:
      throw DegreeError("root_branch_exprs: unsupported degree " + std::to_string(degree));
  }
}

std::vector<Expr> root_branch_exprs(std::span<const Polynomial> coeffs) {
  std::vector<Expr> es;
  es.reserve(coeffs.size());
  for (const auto& p : coeffs) es.push_back(Expr::poly(p));
  return root_branch_exprs(std::span<const Expr>(es));
}

Expr root_branch_expr(std::span<const Expr> coeffs, int branch) {
  const int degree = static_cast<int>(coeffs.size()) - 1;
  if (branch < 0 || branch >= root_branch_count(degree))
    throw SolveError("root_branch_expr: branch out of range for degree " +
                     std::to_string(degree));
  return root_branch_exprs(coeffs)[static_cast<size_t>(branch)];
}

}  // namespace nrc
