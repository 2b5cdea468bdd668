// Representation-independent checks of Polynomial: seeded random
// polynomials in up to six variables and of total degree <= 4, checked
// by exact evaluation at random integer points, and the str() of a fixed
// list of such polynomials.  CompiledPoly is checked against Polynomial
// on seeded polynomials of up to 60 terms and degree 8, coefficients up
// to the i64 edge included: its checked-i128, proven-double and bound
// paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "math/polynomial.hpp"

namespace nrc {
namespace {

/// splitmix64: a self-contained stream, so the fixed polynomials below
/// do not depend on the standard library's distributions.
struct Rng {
  u64 s;
  u64 next() {
    u64 z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  i64 in(i64 lo, i64 hi) { return lo + static_cast<i64>(next() % static_cast<u64>(hi - lo + 1)); }
};

const std::vector<std::string>& names() {
  static const std::vector<std::string> v = {"N", "a", "b", "i", "j", "pc"};
  return v;
}

/// A random polynomial over up to six variables: up to `terms` monomials
/// of total degree <= `deg`, small rational coefficients.
Polynomial random_poly(Rng& rng, int terms, int deg) {
  Polynomial p;
  const int n = static_cast<int>(rng.in(0, terms));
  for (int t = 0; t < n; ++t) {
    Polynomial m(Rational(rng.in(-6, 6), rng.in(1, 4)));
    const int d = static_cast<int>(rng.in(0, deg));
    for (int k = 0; k < d; ++k)
      m *= Polynomial::variable(names()[static_cast<size_t>(rng.in(0, 5))]);
    p += m;
  }
  return p;
}

using Point = std::map<std::string, Rational>;

Point random_point(Rng& rng) {
  Point x;
  for (const auto& v : names()) x[v] = Rational(rng.in(-4, 4));
  return x;
}

TEST(PolynomialProperty, ArithmeticAgreesWithEvaluation) {
  Rng rng{7};
  for (int round = 0; round < 300; ++round) {
    const Polynomial p = random_poly(rng, 6, 2);
    const Polynomial q = random_poly(rng, 6, 2);
    for (int k = 0; k < 4; ++k) {
      const Point x = random_point(rng);
      EXPECT_EQ((p * q).eval(x), p.eval(x) * q.eval(x));
      EXPECT_EQ((p + q).eval(x), p.eval(x) + q.eval(x));
      EXPECT_EQ((p - q).eval(x), p.eval(x) - q.eval(x));
    }
  }
}

TEST(PolynomialProperty, SubstituteAgreesWithEvaluation) {
  Rng rng{8};
  for (int round = 0; round < 300; ++round) {
    const Polynomial p = random_poly(rng, 7, 4);
    const std::string& v = names()[static_cast<size_t>(rng.in(0, 5))];
    // A constant, a variable, or a small polynomial of degree <= 1.
    const int kind = static_cast<int>(rng.in(0, 2));
    const std::string& w = names()[static_cast<size_t>(rng.in(0, 5))];
    const Polynomial value = kind == 0   ? Polynomial(Rational(rng.in(-9, 9), rng.in(1, 3)))
                             : kind == 1 ? Polynomial::variable(w)
                                         : random_poly(rng, 3, 1);
    const Polynomial s = p.substitute(v, value);
    if (value.degree_in(v) == 0) EXPECT_EQ(s.degree_in(v), 0);
    for (int k = 0; k < 4; ++k) {
      Point x = random_point(rng);
      const Rational at = s.eval(x);
      x[v] = value.eval(x);
      EXPECT_EQ(at, p.eval(x));
    }
  }
}

TEST(PolynomialProperty, CoefficientsRecompose) {
  Rng rng{9};
  for (int round = 0; round < 300; ++round) {
    const Polynomial p = random_poly(rng, 7, 4);
    const std::string& v = names()[static_cast<size_t>(rng.in(0, 5))];
    const auto cs = p.coefficients_in(v);
    ASSERT_EQ(cs.size(), static_cast<size_t>(p.degree_in(v)) + 1);
    Polynomial back;
    for (size_t e = 0; e < cs.size(); ++e) {
      EXPECT_EQ(cs[e].degree_in(v), 0);
      back += cs[e] * Polynomial::variable(v).pow(static_cast<unsigned>(e));
    }
    EXPECT_EQ(back, p);
    EXPECT_EQ(Polynomial::horner(cs, Polynomial::variable(v)), p);
  }
}

TEST(PolynomialProperty, DerivativeIsTheNewtonSeriesOfDifferences) {
  // For degree <= 4 in v:  p' = D1 - D2/2 + D3/3 - D4/4,  Dk the k-th
  // forward difference in v with step 1, exactly.
  Rng rng{10};
  for (int round = 0; round < 300; ++round) {
    const Polynomial p = random_poly(rng, 7, 4);
    const std::string& v = names()[static_cast<size_t>(rng.in(0, 5))];
    const Polynomial dp = p.derivative(v);
    for (int k = 0; k < 3; ++k) {
      Point x = random_point(rng);
      const Rational base = x[v];
      std::vector<Rational> f;
      for (int j = 0; j <= 4; ++j) {
        x[v] = base + Rational(j);
        f.push_back(p.eval(x));
      }
      x[v] = base;
      Rational series(0);
      for (int order = 1; order <= 4; ++order) {
        std::vector<Rational> d(f.begin(), f.begin() + order + 1);
        for (int step = 0; step < order; ++step)
          for (int m = 0; m + 1 < static_cast<int>(d.size()) - step; ++m) d[m] = d[m + 1] - d[m];
        series += d[0] * Rational(order % 2 == 1 ? 1 : -1, order);
      }
      EXPECT_EQ(dp.eval(x), series);
    }
  }
}

TEST(PolynomialProperty, StrOfAFixedList) {
  // Strings rendered by the map-of-monomials representation this one
  // replaced: term order and rendering are part of every output.
  Rng rng{2024};
  std::vector<Polynomial> ps;
  for (int k = 0; k < 6; ++k) ps.push_back(random_poly(rng, 7, 4));
  const std::vector<Polynomial> fixed = {
      ps[0], ps[1], ps[2], ps[3], ps[4], ps[5], ps[0] * ps[1], ps[2] - ps[3],
      ps[4].substitute("a", ps[5]), ps[1].derivative("i"), ps[3].coefficients_in("b").back(),
      (ps[5] + Polynomial(1)).pow(2)};
  const std::vector<std::string> expected = {
      "5/4*i^3*pc - 1/4*N^2*j - 5/3*b + 13/3",
      "3/2*N^2*a*pc + 5/2*N*i^2*j - 3/2*b^2*j + b*pc^2 - 3*N*j - 22/3",
      "0",
      "-2*j",
      "-1/4*N*b*j*pc + 1/2*b*j*pc - 1/2*j - 2*i - 6*a + 3/2",
      "-5/2*a^2*pc^2 + 5/3*a*b*j*pc - 2*N*b^2 - 3*b^2 - 3/4*i + 2",
      "15/8*N^2*a*i^3*pc^2 + 25/8*N*i^5*j*pc - 15/8*b^2*i^3*j*pc + 5/4*b*i^3*pc^3 -"
      " 3/8*N^4*a*j*pc - 5/8*N^3*i^2*j^2 + 3/8*N^2*b^2*j^2 - 1/4*N^2*b*j*pc^2 -"
      " 15/4*N*i^3*j*pc + 3/4*N^3*j^2 - 5/2*N^2*a*b*pc - 25/6*N*b*i^2*j - 55/6*i^3*pc +"
      " 5/2*b^3*j - 5/3*b^2*pc^2 + 13/2*N^2*a*pc + 65/6*N*i^2*j - 13/2*b^2*j + 13/3*b*pc^2"
      " + 11/6*N^2*j + 5*N*b*j - 13*N*j + 110/9*b - 286/9",
      "2*j",
      "15*a^2*pc^2 - 10*a*b*j*pc - 1/4*N*b*j*pc + 1/2*b*j*pc + 12*N*b^2 + 18*b^2 - 1/2*j +"
      " 5/2*i - 21/2",
      "5*N*i*j",
      "-2*j",
      "25/4*a^4*pc^4 - 25/3*a^3*b*j*pc^3 + 25/9*a^2*b^2*j^2*pc^2 + 10*N*a^2*b^2*pc^2 -"
      " 20/3*N*a*b^3*j*pc + 15*a^2*b^2*pc^2 - 10*a*b^3*j*pc + 4*N^2*b^4 + 15/4*a^2*i*pc^2"
      " - 5/2*a*b*i*j*pc + 12*N*b^4 + 9*b^4 - 15*a^2*pc^2 + 10*a*b*j*pc + 3*N*b^2*i +"
      " 9/2*b^2*i - 12*N*b^2 + 9/16*i^2 - 18*b^2 - 9/2*i + 9",
  };
  ASSERT_EQ(fixed.size(), expected.size());
  for (size_t k = 0; k < fixed.size(); ++k) EXPECT_EQ(fixed[k].str(), expected[k]) << k;
}

// ------------------------------------------------------------ CompiledPoly

/// Slot layout for the compiled polynomials: the variables in another
/// order than the polynomial's own, and one slot no term reads.
const std::vector<std::string>& slot_order() {
  static const std::vector<std::string> v = {"pc", "j", "unused", "i", "b", "a", "N"};
  return v;
}

/// A polynomial for the compiled-form checks: up to `terms` monomials of
/// degree up to `deg`; a quarter of the rounds draw coefficients near
/// the i64 edge, integer or over a small denominator.  Arithmetic that
/// overflows while summing is redrawn.
Polynomial random_wide_poly(Rng& rng, int terms, int deg) {
  for (;;) {
    try {
      const bool edge = rng.in(0, 3) == 0;
      Polynomial p;
      const int n = static_cast<int>(rng.in(1, terms));
      for (int t = 0; t < n; ++t) {
        const i64 num = edge ? (rng.in(0, 1) ? 1 : -1) *
                                   (std::numeric_limits<i64>::max() - rng.in(0, 1000))
                             : rng.in(-9, 9);
        Polynomial m(Rational(num, edge ? rng.in(1, 3) : rng.in(1, 4)));
        const int d = static_cast<int>(rng.in(0, deg));
        for (int k = 0; k < d; ++k)
          m *= Polynomial::variable(names()[static_cast<size_t>(rng.in(0, 5))]);
        p += m;
      }
      return p;
    } catch (const OverflowError&) {
    }
  }
}

/// A point over slot_order(): mostly small values, sometimes values
/// large enough that a degree-8 term leaves i128.
std::vector<i64> random_slots(Rng& rng) {
  const i64 mag = rng.in(0, 3) == 0 ? (i64{1} << rng.in(8, 40)) : 5;
  std::vector<i64> pt;
  for (size_t s = 0; s < slot_order().size(); ++s) pt.push_back(rng.in(-mag, mag));
  return pt;
}

std::map<std::string, i64> by_name(const std::vector<i64>& pt) {
  std::map<std::string, i64> m;
  for (size_t s = 0; s < pt.size(); ++s) m[slot_order()[s]] = pt[s];
  return m;
}

/// The largest |intermediate| of the compiled stream at `x`, in its
/// documented order: per term (term order) the scaled coefficient times
/// each factor of each variable (variable order), then the running sum.
/// Long double, so a stream past i128 reads as a value >= 2^127.
long double stream_peak(const Polynomial& p, const std::map<std::string, i64>& x) {
  const long double den = static_cast<long double>(p.denominator_lcm());
  long double peak = 0.0L;
  long double sum = 0.0L;
  for (size_t t = 0; t < p.num_terms(); ++t) {
    long double v = static_cast<long double>(p.coef(t).num()) * (den / p.coef(t).den());
    peak = std::max(peak, std::fabs(v));
    for (size_t k = 0; k < p.vars().size(); ++k)
      for (int e = 0; e < p.exponent(t, k); ++e) {
        v *= static_cast<long double>(x.at(p.vars()[k]));
        peak = std::max(peak, std::fabs(v));
      }
    sum += v;
    peak = std::max(peak, std::fabs(sum));
  }
  return peak;
}

enum class Outcome { Value, Overflow, Inexact };

template <class F>
Outcome outcome_of(F&& f, i128* value) {
  try {
    *value = f();
    return Outcome::Value;
  } catch (const OverflowError&) {
    return Outcome::Overflow;
  } catch (const SolveError&) {
    return Outcome::Inexact;
  }
}

TEST(CompiledPolyProperty, EvalI128AgreesWithPolynomialOrOverflows) {
  Rng rng{11};
  int wide = 0, deep = 0, values = 0, overflows = 0, refused = 0;
  for (int round = 0; round < 600; ++round) {
    const Polynomial p = random_wide_poly(rng, 60, 8);
    wide += p.num_terms() > 32;
    deep += p.total_degree() > 4;
    CompiledPoly cp;
    try {
      cp = CompiledPoly(p, slot_order());
    } catch (const OverflowError&) {
      ++refused;  // a scaled coefficient left i64: checked below
      bool leaves = false;
      const i64 den = p.denominator_lcm();
      for (size_t t = 0; t < p.num_terms(); ++t) {
        const i128 scaled = i128{p.coef(t).num()} * (den / p.coef(t).den());
        leaves |= scaled > std::numeric_limits<i64>::max() ||
                  scaled < std::numeric_limits<i64>::min();
      }
      EXPECT_TRUE(leaves) << p.str();
      continue;
    }
    for (int k = 0; k < 6; ++k) {
      const std::vector<i64> pt = random_slots(rng);
      const auto named = by_name(pt);
      i128 got = 0, want = 0;
      const Outcome g = outcome_of([&] { return cp.eval_i128(pt); }, &got);
      const Outcome w = outcome_of([&] { return p.eval_i128(named); }, &want);
      const long double peak = stream_peak(p, named);
      if (g == Outcome::Value) {
        ++values;
        // Polynomial raises each power on its own, so a zero factor
        // before a power past i128 overflows there and not here.
        if (w == Outcome::Value) EXPECT_TRUE(got == want) << p.str();
        else EXPECT_EQ(w, Outcome::Overflow) << p.str();
        EXPECT_LT(peak, 0x1p127L) << p.str();
      } else if (g == Outcome::Overflow) {
        ++overflows;
        EXPECT_EQ(w, Outcome::Overflow) << p.str();
        EXPECT_GE(peak, 0x1p126L) << p.str();  // a true overflow, not a false alarm
      } else {
        EXPECT_EQ(w, Outcome::Inexact) << p.str();  // not integer-valued here
      }
    }
  }
  // Every kind of case must occur, or the checks above prove nothing.
  EXPECT_GT(wide, 0);
  EXPECT_GT(deep, 0);
  EXPECT_GT(values, 0);
  EXPECT_GT(overflows, 0);
  EXPECT_GT(refused, 0);
}

TEST(CompiledPolyProperty, ValueBoundCoversTheStreamAndProvesF64) {
  Rng rng{12};
  int proven = 0, unproven = 0;
  for (int round = 0; round < 600; ++round) {
    // Integer coefficients: the polynomial is integer-valued everywhere,
    // so every point of the box has an exact value to compare.
    Polynomial p = random_wide_poly(rng, 60, 8);
    try {
      p = p * Rational(p.denominator_lcm());
    } catch (const OverflowError&) {
      continue;
    }
    CompiledPoly cp;
    try {
      cp = CompiledPoly(p, slot_order());
    } catch (const OverflowError&) {
      continue;
    }
    // A box per slot, signed and asymmetric, sometimes wide.
    std::vector<double> lo, hi;
    const i64 mag = rng.in(0, 2) == 0 ? 100000 : 6;
    for (size_t s = 0; s < slot_order().size(); ++s) {
      const i64 a = rng.in(-mag, mag);
      const i64 b = rng.in(-mag, mag);
      lo.push_back(static_cast<double>(std::min(a, b)));
      hi.push_back(static_cast<double>(std::max(a, b)));
    }
    const double bound = cp.value_bound(lo.data(), hi.data());
    cp.enable_f64(lo.data(), hi.data());
    EXPECT_EQ(cp.exact_f64(), bound < 1.0e15);
    ++(cp.exact_f64() ? proven : unproven);
    for (int k = 0; k < 8; ++k) {
      std::vector<i64> pt;
      for (size_t s = 0; s < slot_order().size(); ++s)
        pt.push_back(rng.in(static_cast<i64>(lo[s]), static_cast<i64>(hi[s])));
      const auto named = by_name(pt);
      const long double peak = stream_peak(p, named);
      EXPECT_LE(peak, static_cast<long double>(bound) * (1.0L + 1e-12L)) << p.str();
      if (!cp.exact_f64()) continue;
      const i128 exact = cp.eval_i128(pt);
      const double f = cp.eval_f64(pt);
      EXPECT_EQ(f, static_cast<double>(exact)) << p.str();
      EXPECT_TRUE(static_cast<i128>(f) == exact) << p.str();
    }
  }
  EXPECT_GT(proven, 0);
  EXPECT_GT(unproven, 0);
}

}  // namespace
}  // namespace nrc
