#pragma once
// FlatPoly — bind-time specialization of low-degree integer-valued
// polynomials into straight-line multiply-add streams.
//
// CompiledPoly::eval_i128 is exact but generic: per term it walks a
// heap-allocated (slot, exponent) vector and calls ipow_checked per
// factor.  The exact-guard coefficients A_e and the per-level rank
// polynomials the recovery hot path evaluates are tiny after parameter
// folding — a handful of terms of total degree <= 4 — so bind() lowers
// them here: every monomial becomes at most kMaxFactors slot reads
// multiplied into the coefficient, stored in a fixed inline array.
// Evaluation is the same checked i128 arithmetic (identical exactness
// and overflow behaviour), just without the power loop and pointer
// chasing.  Polynomials that don't fit (too many terms, degree beyond
// kMaxFactors, coefficients outside the exact i64 range) leave usable()
// false and the caller keeps the CompiledPoly path.
//
// On top of that, enable_f64() proves an *exact double* evaluation:
// given conservative per-slot magnitude bounds, if every intermediate
// of the multiply-add stream stays below 2^50, then all intermediates
// are integers below 2^53 — where IEEE double arithmetic on integers
// is exact — and eval_f64() returns the same value eval_i128() would,
// as plain (vectorizable, FMA-friendly) double math.  The recovery
// solvers run their proven-exact guard arithmetic through this path.

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <string>

#include "math/polynomial.hpp"
#include "support/int128.hpp"

namespace nrc {

class FlatPoly {
 public:
  static constexpr int kMaxTerms = 32;
  static constexpr int kMaxFactors = 4;  ///< total-degree cap per monomial

  FlatPoly() = default;

  /// Attempt the specialization of `p` over the slot layout `order`.
  /// Never throws; a polynomial that doesn't fit yields usable() false.
  static FlatPoly build(const Polynomial& p, std::span<const std::string> order) {
    FlatPoly f;
    i64 den = 1;
    try {
      den = p.denominator_lcm();
    } catch (const OverflowError&) {
      return f;
    }
    // Too many terms, or a degree beyond the flat cap.
    if (p.num_terms() > static_cast<size_t>(kMaxTerms) || p.total_degree() > kMaxFactors)
      return f;
    const auto& vars = p.vars();
    int n = 0;
    for (size_t i = 0; i < p.num_terms(); ++i) {
      Term t;
      try {
        const Rational scaled = p.coef(i) * Rational(den);
        if (!scaled.is_integer()) return f;  // scaling overflowed into inexactness
        t.c = scaled.num();
      } catch (const OverflowError&) {
        return f;
      }
      int nf = 0;
      for (size_t v = 0; v < vars.size(); ++v) {
        const int exp = p.exponent(i, v);
        if (exp == 0) continue;
        const auto it = std::find(order.begin(), order.end(), vars[v]);
        if (it == order.end()) return f;  // unbound variable
        for (int e = 0; e < exp; ++e) t.s[nf++] = static_cast<signed char>(it - order.begin());
      }
      f.t_[static_cast<size_t>(n++)] = t;
    }
    f.den_ = den;
    f.n_ = n;
    return f;
  }

  bool usable() const { return n_ >= 0; }

  /// Exact integer value at the point; throws on overflow / inexactness
  /// exactly like CompiledPoly::eval_i128.
  i128 eval_i128(const i64* pt) const {
    i128 acc = 0;
    for (int i = 0; i < n_; ++i) {
      const Term& t = t_[static_cast<size_t>(i)];
      i128 v = t.c;
      for (int fct = 0; fct < kMaxFactors && t.s[fct] >= 0; ++fct)
        v = checked_mul(v, pt[static_cast<int>(t.s[fct])]);
      acc = checked_add(acc, v);
    }
    return exact_div(acc, den_);
  }

  /// Worst-case |value| of the evaluation's intermediates (before the
  /// final exact division) over points with |pt[s]| <= slot_bound[s].
  /// Partial products use max(bound, 1) so prefixes are covered too.
  double value_bound(const double* slot_bound) const {
    double sum = 0.0;
    double worst = 0.0;
    for (int i = 0; i < n_; ++i) {
      const Term& t = t_[static_cast<size_t>(i)];
      double v = std::fabs(static_cast<double>(t.c));
      for (int fct = 0; fct < kMaxFactors && t.s[fct] >= 0; ++fct)
        v *= std::max(slot_bound[static_cast<int>(t.s[fct])], 1.0);
      worst = std::max(worst, v);
      sum += v;
      worst = std::max(worst, sum);
    }
    return worst;
  }

  /// Enable eval_f64() when every intermediate provably stays below
  /// 1e15 for points within slot_bound — an order of magnitude of
  /// margin under the 2^53 exact-integer limit of double.
  void enable_f64(const double* slot_bound) {
    f64_ = usable() && value_bound(slot_bound) < 1.0e15;
  }

  /// True when eval_f64() is proven bit-exact.
  bool exact_f64() const { return f64_; }

  /// Exact evaluation in plain double arithmetic (requires exact_f64():
  /// all intermediates are integers below 2^53, so every operation —
  /// including the final division by the denominator, whose quotient is
  /// an integer — is exact).
  double eval_f64(const i64* pt) const {
    double acc = 0.0;
    for (int i = 0; i < n_; ++i) {
      const Term& t = t_[static_cast<size_t>(i)];
      double v = static_cast<double>(t.c);
      for (int fct = 0; fct < kMaxFactors && t.s[fct] >= 0; ++fct)
        v *= static_cast<double>(pt[static_cast<int>(t.s[fct])]);
      acc += v;
    }
    return acc / static_cast<double>(den_);
  }

 private:
  struct Term {
    i64 c = 0;
    signed char s[kMaxFactors] = {-1, -1, -1, -1};  // slot per factor; -1 ends
  };
  std::array<Term, kMaxTerms> t_{};
  int n_ = -1;
  i64 den_ = 1;
  bool f64_ = false;
};

}  // namespace nrc
