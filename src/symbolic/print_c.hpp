#pragma once
// C source rendering of polynomials and of the library's root
// estimators.
//
// The emitter prints each level equation's coefficients with
// print_poly_c and recovers degree 2-4 levels through the
// real-arithmetic estimators of real_solver_helpers_c() — the library's
// own closed forms — instead of the paper's sqrt (Fig. 3) and C99
// complex cpow/creal (Fig. 7) expressions.

#include <map>
#include <string>

#include "math/polynomial.hpp"

namespace nrc {

struct CPrintOptions {
  /// Cast inserted before each integer variable occurrence, e.g. "(double)".
  std::string var_cast = "(double)";
  /// Cast applied to variables in integer_arith polynomials instead of
  /// var_cast; empty (the default) keeps plain integer arithmetic.  The
  /// emitter sets "(nrc_wide)" so guard/coefficient evaluation runs in
  /// __int128 where available (S-shifted nests overflow 64 bits).
  std::string int_var_cast;
  /// Variable renamings (library name -> C identifier).
  std::map<std::string, std::string> rename;
};

/// Render a polynomial as a C expression.  Rational coefficients are
/// emitted over the polynomial's common denominator so the expression
/// stays in integer arithmetic until a final division:
///   (2*i*N + 2*j - i*i - 3*i) / 2   -- with casts per CPrintOptions.
/// When `integer_arith` is true the division uses C integer division
/// (exact for integer-valued polynomials such as trip counts) and each
/// variable takes `int_var_cast` instead of `var_cast` — empty by
/// default, i.e. plain integer arithmetic.
std::string print_poly_c(const Polynomial& p, const CPrintOptions& opt = {},
                         bool integer_arith = false);

/// C99 transliteration of the interval-selected root estimators in
/// core/real_solvers.hpp at double precision: `nrc_quad_est` always,
/// `nrc_cubic_est` and `nrc_ferrari_est` when `max_degree` >= 3.  Each
/// part sits in its own preprocessor guard so several emitted functions
/// can share one copy per translation unit.  The generated code performs
/// exactly the library's operations in the library's order (magic
/// constants are rendered as hexadecimal double literals of the
/// library's values), so on the same coefficient set and level range a
/// compiled helper and quadratic_estimate<double> / cubic_estimate<double>
/// / ferrari_estimate<double> return byte-identical estimates.  The
/// estimators return 0 when no root lies in the range; callers start
/// their exact correction from a bound.  Requires <math.h>; no C99
/// complex anywhere.
std::string real_solver_helpers_c(int max_degree);

}  // namespace nrc
