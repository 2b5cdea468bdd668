#pragma once
// Multivariate polynomials over exact rationals.
//
// This is the construction-time workhorse of the library: ranking Ehrhart
// polynomials, trip-count polynomials and level-equation coefficients are
// all nrc::Polynomial values, built on every cold collapse and folded on
// every bind.  A polynomial holds the sorted list of the variables it
// mentions (immutable, and shared by the polynomials built over the same
// list); each term is a key packing the term's total degree and one
// exponent byte per listed variable into 64-bit words, and all keys sit
// in one flat array beside the coefficients.  Keys compare as integers
// in the term order and multiply by a bytewise add, so sums merge and
// products sort keys in reused per-thread buffers, and no term costs a
// node, a string or a vector of its own.  There is no global name table:
// names live only as long as the polynomials that use them.  The runtime
// hot paths use CompiledPoly, which resolves variables to dense slots and
// evaluates exactly, in checked __int128 or in proven-exact double.

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "math/rational.hpp"

namespace nrc {

/// Sparse multivariate polynomial with Rational coefficients.
///
/// Terms are kept in graded order: lower total degree first, then by the
/// monomial's factor list (variable name, exponent), compared as a list.
/// str(), print_poly_c() and CompiledPoly all walk this order.
class Polynomial {
 public:
  /// The zero polynomial.
  Polynomial() = default;
  /// Constant polynomial.
  Polynomial(const Rational& c);  // NOLINT(google-explicit-constructor)
  Polynomial(i64 c) : Polynomial(Rational(c)) {}  // NOLINT(google-explicit-constructor)

  /// The polynomial consisting of a single variable.
  static Polynomial variable(const std::string& name);

  bool is_zero() const { return coefs_.empty(); }
  bool is_constant() const { return is_zero() || (num_terms() == 1 && term_degree(0) == 0); }
  /// Constant term (coefficient of the 1 monomial).
  Rational constant_term() const;

  Polynomial operator-() const;
  Polynomial operator+(const Polynomial& o) const;
  Polynomial operator-(const Polynomial& o) const;
  Polynomial operator*(const Polynomial& o) const;
  Polynomial operator*(const Rational& s) const;
  Polynomial operator/(const Rational& s) const;

  // In place: the result reuses this polynomial's buffers.
  Polynomial& operator+=(const Polynomial& o) { return add_scaled(o, Rational(1)); }
  Polynomial& operator-=(const Polynomial& o) { return add_scaled(o, Rational(-1)); }
  /// *this += k * o.
  Polynomial& add_scaled(const Polynomial& o, const Rational& k) {
    sum(*this, o, k, *this);
    return *this;
  }
  Polynomial& operator*=(const Polynomial& o) {
    product(*this, o, *this);
    return *this;
  }

  bool operator==(const Polynomial& o) const {
    return coefs_ == o.coefs_ && keys_ == o.keys_ && vars() == o.vars();
  }

  /// p^e for non-negative integer e (p^0 == 1).
  Polynomial pow(unsigned e) const;

  /// Degree in a specific variable (-1 convention: zero polynomial has
  /// degree 0 here for simplicity — callers treat it as constant).
  int degree_in(const std::string& var) const;
  int total_degree() const { return is_zero() ? 0 : term_degree(num_terms() - 1); }

  /// All variables mentioned by the polynomial.
  std::set<std::string> variables() const { return {vars().begin(), vars().end()}; }

  /// Coefficients viewed as a univariate polynomial in `var`:
  /// result[e] is the coefficient polynomial of var^e (result has size
  /// degree_in(var)+1; zero polynomial yields {0}).
  std::vector<Polynomial> coefficients_in(const std::string& var) const;

  /// Substitute `var` := `value` (a polynomial), returning the result.
  Polynomial substitute(const std::string& var, const Polynomial& value) const;

  /// sum_e coeffs[e] * x^e, by Horner's rule.
  static Polynomial horner(const std::vector<Polynomial>& coeffs, const Polynomial& x);

  /// Partial derivative with respect to `var`.
  Polynomial derivative(const std::string& var) const;

  /// Exact evaluation with rational variable values.
  Rational eval(const std::map<std::string, Rational>& vals) const;

  /// Exact integer evaluation (values looked up by name).  The polynomial
  /// must be integer-valued at the point; throws SolveError otherwise.
  i128 eval_i128(const std::map<std::string, i64>& vals) const;

  /// Least common multiple of all coefficient denominators (>= 1).
  i64 denominator_lcm() const;

  // Term view, in term order: term t has coefficient coef(t) and raises
  // vars()[v] to exponent(t, v) (0 when absent).  Every listed variable
  // occurs in some term.
  const std::vector<std::string>& vars() const;
  size_t num_terms() const { return coefs_.size(); }
  const Rational& coef(size_t t) const { return coefs_[t]; }
  int exponent(size_t t, size_t v) const { return byte_at(t, v + 1); }
  int term_degree(size_t t) const { return byte_at(t, 0); }

  /// Human-readable rendering, e.g. "1/2*i^2 + 3/2*i + 1".
  std::string str() const;

  /// A variable list, shared by the polynomials built over it (null when
  /// empty).
  using Names = std::shared_ptr<const std::vector<std::string>>;

 private:
  size_t nvars() const { return vars_ ? vars_->size() : 0; }
  /// Field i of term t's key (0: the total degree, 1 + v: the exponent
  /// of vars_[v]); the key stores each field minus one (see the .cpp).
  int byte_at(size_t t, size_t i) const {
    const u64 word = keys_[t * ((nvars() + 8) / 8) + i / 8];
    return static_cast<std::uint8_t>((word >> (56 - 8 * (i % 8))) + 1);
  }
  int var_index(const std::string& var) const;  ///< -1 when absent
  template <class T, class Map>
  std::vector<T> values_of(const Map& vals, const char* who) const;
  /// Take the given terms, then (prune) drop the variables they no longer
  /// mention.
  void set_terms(const Names& vars, const std::vector<u64>& keys,
                 const std::vector<Rational>& coefs, bool prune);
  /// out := a + k * b and out := a * b; `out` may be an operand.
  static void sum(const Polynomial& a, const Polynomial& b, const Rational& k, Polynomial& out);
  static void product(const Polynomial& a, const Polynomial& b, Polynomial& out);

  Names vars_;                     // sorted by name
  std::vector<u64> keys_;          // (nvars() + 8) / 8 words per term
  std::vector<Rational> coefs_;    // no zero coefficients stored
};

/// A polynomial pre-bound to a dense variable ordering for fast, exact
/// evaluation on integer points.  Coefficients are scaled to integers
/// over a common denominator and each monomial is expanded into the
/// slots of its factors (x^2*y reads slots x, x, y), so an evaluation is
/// one multiply-add stream followed by one exact division (ranking
/// polynomials are integer-valued on integer points).  The stream runs
/// in three arithmetics:
///   * eval_i128: checked __int128, exact; throws on overflow;
///   * eval_f64: plain double, bit-equal to eval_i128 at points of the
///     box enable_f64() proved (every intermediate an integer far below
///     2^53, where double arithmetic on integers is exact);
///   * eval_ld: long double, for Newton's derivative.
class CompiledPoly {
 public:
  CompiledPoly() = default;

  /// `order` maps slot index -> variable name.  Every variable of `p`
  /// must appear in `order` (SpecError otherwise); unused slots are
  /// permitted.  Throws OverflowError when a scaled coefficient leaves
  /// the i64 range.
  CompiledPoly(const Polynomial& p, std::span<const std::string> order);

  /// Exact integer value at the point; throws on overflow / inexactness.
  i128 eval_i128(std::span<const i64> point) const {
    i128 acc = 0;
    for_each_term([&](i64 coef, const i64* f, const i64* end) {
      i128 v = coef;
      for (; f < end; ++f) v = checked_mul(v, point[static_cast<size_t>(*f)]);
      acc = checked_add(acc, v);
    });
    return exact_div(acc, den_);
  }

  /// Worst-case |value| of the stream's intermediates (each partial
  /// product, factor by factor, and each partial sum, in term order,
  /// before the final exact division) over points with
  /// lo[s] <= point[s] <= hi[s].
  double value_bound(const double* lo, const double* hi) const;

  /// Prove eval_f64() exact over the box [lo, hi]: every intermediate
  /// stays below 1e15, an order of magnitude of margin under 2^53.
  void enable_f64(const double* lo, const double* hi) { f64_ = value_bound(lo, hi) < 1.0e15; }
  /// True when enable_f64() proved its box.
  bool exact_f64() const { return f64_; }

  /// The stream in plain double arithmetic: eval_i128's value, bit for
  /// bit, when exact_f64() and the point lies in the proven box (every
  /// intermediate, and the final division's quotient, is then an
  /// integer below 2^53).
  double eval_f64(std::span<const i64> point) const {
    double acc = 0.0;
    for_each_term([&](i64 coef, const i64* f, const i64* end) {
      double v = static_cast<double>(coef);
      for (; f < end; ++f) v *= static_cast<double>(point[static_cast<size_t>(*f)]);
      acc += v;
    });
    return acc / static_cast<double>(den_);
  }

  /// Floating evaluation (long double), e.g. for Newton's derivative.
  long double eval_ld(std::span<const long double> point) const;

 private:
  /// fn(coef, f, end) per term, in term order: the coefficient times
  /// den_ and the term's factor slots [f, end).
  template <class Fn>
  void for_each_term(Fn&& fn) const {
    for (const i64 *p = code_.data(), *end = p + code_.size(); p < end; p += 2 + p[1])
      fn(p[0], p + 2, p + 2 + p[1]);
  }

  std::vector<i64> code_;  // per term: coefficient, factor count, slots
  i64 den_ = 1;
  bool f64_ = false;
};

}  // namespace nrc
