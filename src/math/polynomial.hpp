#pragma once
// Multivariate polynomials over exact rationals.
//
// This is the construction-time workhorse of the library: ranking Ehrhart
// polynomials, trip-count polynomials and level-equation coefficients are
// all nrc::Polynomial values.  Construction happens once per collapse, so
// the representation favours clarity (ordered term map) over raw speed;
// the runtime hot paths use CompiledPoly, which resolves variables to
// dense slots and evaluates exactly in __int128.

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "math/monomial.hpp"
#include "math/rational.hpp"

namespace nrc {

/// Sparse multivariate polynomial with Rational coefficients.
class Polynomial {
 public:
  /// The zero polynomial.
  Polynomial() = default;
  /// Constant polynomial.
  Polynomial(const Rational& c);  // NOLINT(google-explicit-constructor)
  Polynomial(i64 c) : Polynomial(Rational(c)) {}  // NOLINT(google-explicit-constructor)

  /// The polynomial consisting of a single variable.
  static Polynomial variable(const std::string& name);

  bool is_zero() const { return terms_.empty(); }
  bool is_constant() const;
  /// Constant term (coefficient of the 1 monomial).
  Rational constant_term() const;

  Polynomial operator-() const;
  Polynomial operator+(const Polynomial& o) const;
  Polynomial operator-(const Polynomial& o) const;
  Polynomial operator*(const Polynomial& o) const;
  Polynomial operator*(const Rational& s) const;
  Polynomial operator/(const Rational& s) const;

  Polynomial& operator+=(const Polynomial& o) { return *this = *this + o; }
  Polynomial& operator-=(const Polynomial& o) { return *this = *this - o; }
  Polynomial& operator*=(const Polynomial& o) { return *this = *this * o; }

  bool operator==(const Polynomial& o) const { return terms_ == o.terms_; }

  /// p^e for non-negative integer e (p^0 == 1).
  Polynomial pow(unsigned e) const;

  /// Degree in a specific variable (-1 convention: zero polynomial has
  /// degree 0 here for simplicity — callers treat it as constant).
  int degree_in(const std::string& var) const;
  int total_degree() const;

  /// All variables mentioned by the polynomial.
  std::set<std::string> variables() const;

  /// Coefficients viewed as a univariate polynomial in `var`:
  /// result[e] is the coefficient polynomial of var^e (result has size
  /// degree_in(var)+1; zero polynomial yields {0}).
  std::vector<Polynomial> coefficients_in(const std::string& var) const;

  /// Substitute `var` := `value` (a polynomial), returning the result.
  Polynomial substitute(const std::string& var, const Polynomial& value) const;

  /// Partial derivative with respect to `var`.
  Polynomial derivative(const std::string& var) const;

  /// Exact evaluation with rational variable values.
  Rational eval(const std::map<std::string, Rational>& vals) const;

  /// Exact integer evaluation (values looked up by name).  The polynomial
  /// must be integer-valued at the point; throws SolveError otherwise.
  i128 eval_i128(const std::map<std::string, i64>& vals) const;

  /// Least common multiple of all coefficient denominators (>= 1).
  i64 denominator_lcm() const;

  const std::map<Monomial, Rational>& terms() const { return terms_; }

  /// Human-readable rendering, e.g. "1/2*i^2 + 3/2*i + 1".
  std::string str() const;

 private:
  void add_term(const Monomial& m, const Rational& c);

  std::map<Monomial, Rational> terms_;  // no zero coefficients stored
};

/// A polynomial pre-bound to a dense variable ordering for fast, exact
/// evaluation on integer points.  Terms are stored with integer
/// coefficients over a common denominator; evaluation accumulates in
/// __int128 with overflow checks and performs one exact division at the
/// end (ranking polynomials are integer-valued on integer points).
class CompiledPoly {
 public:
  CompiledPoly() = default;

  /// `order` maps slot index -> variable name.  Every variable of `p`
  /// must appear in `order`; unused slots are permitted.
  CompiledPoly(const Polynomial& p, std::span<const std::string> order);

  /// Exact integer value at the point; throws on overflow / inexactness.
  i128 eval_i128(std::span<const i64> point) const;

  /// Floating evaluation (long double), e.g. for Newton's derivative.
  long double eval_ld(std::span<const long double> point) const;

  i64 denominator() const { return den_; }
  bool empty() const { return terms_.empty(); }

  /// Bit s set when a term reads slot s (slots from 64 on share bit 63).
  u64 slot_mask() const;

 private:
  struct Term {
    i64 scaled_num = 0;         // coefficient * (den_/coeff_den)
    std::uint32_t first, last;  // its factors: factors_[first, last)
  };
  std::vector<Term> terms_;
  std::vector<std::pair<int, int>> factors_;  // (slot, exponent), term by term
  i64 den_ = 1;
};

}  // namespace nrc
