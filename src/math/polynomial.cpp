#include "math/polynomial.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace nrc {

Polynomial::Polynomial(const Rational& c) {
  if (!c.is_zero()) terms_.emplace(Monomial(), c);
}

Polynomial Polynomial::variable(const std::string& name) {
  Polynomial p;
  p.terms_.emplace(Monomial::var(name), Rational(1));
  return p;
}

bool Polynomial::is_constant() const {
  return terms_.empty() || (terms_.size() == 1 && terms_.begin()->first.is_constant());
}

Rational Polynomial::constant_term() const {
  auto it = terms_.find(Monomial());
  return it == terms_.end() ? Rational() : it->second;
}

void Polynomial::add_term(const Monomial& m, const Rational& c) {
  if (c.is_zero()) return;
  auto [it, inserted] = terms_.emplace(m, c);
  if (!inserted) {
    it->second += c;
    if (it->second.is_zero()) terms_.erase(it);
  }
}

Polynomial Polynomial::operator-() const {
  Polynomial r;
  for (const auto& [m, c] : terms_) r.terms_.emplace(m, -c);
  return r;
}

Polynomial Polynomial::operator+(const Polynomial& o) const {
  Polynomial r = *this;
  for (const auto& [m, c] : o.terms_) r.add_term(m, c);
  return r;
}

Polynomial Polynomial::operator-(const Polynomial& o) const {
  Polynomial r = *this;
  for (const auto& [m, c] : o.terms_) r.add_term(m, -c);
  return r;
}

Polynomial Polynomial::operator*(const Polynomial& o) const {
  Polynomial r;
  for (const auto& [ma, ca] : terms_)
    for (const auto& [mb, cb] : o.terms_) r.add_term(ma * mb, ca * cb);
  return r;
}

Polynomial Polynomial::operator*(const Rational& s) const {
  Polynomial r;
  if (s.is_zero()) return r;
  for (const auto& [m, c] : terms_) r.terms_.emplace(m, c * s);
  return r;
}

Polynomial Polynomial::operator/(const Rational& s) const {
  if (s.is_zero()) throw SpecError("Polynomial: division by zero scalar");
  return *this * (Rational(1) / s);
}

Polynomial Polynomial::pow(unsigned e) const {
  Polynomial r(Rational(1));
  Polynomial base = *this;
  while (e > 0) {
    if (e & 1u) r *= base;
    e >>= 1u;
    if (e > 0) base *= base;
  }
  return r;
}

int Polynomial::degree_in(const std::string& var) const {
  int d = 0;
  for (const auto& [m, c] : terms_) d = std::max(d, m.exponent(var));
  return d;
}

int Polynomial::total_degree() const {
  int d = 0;
  for (const auto& [m, c] : terms_) d = std::max(d, m.total_degree());
  return d;
}

std::set<std::string> Polynomial::variables() const {
  std::set<std::string> vs;
  for (const auto& [m, c] : terms_)
    for (const auto& [v, e] : m.factors()) vs.insert(v);
  return vs;
}

std::vector<Polynomial> Polynomial::coefficients_in(const std::string& var) const {
  std::vector<Polynomial> coeffs(static_cast<size_t>(degree_in(var)) + 1);
  for (const auto& [m, c] : terms_) {
    const int e = m.exponent(var);
    coeffs[static_cast<size_t>(e)].add_term(m.without(var), c);
  }
  return coeffs;
}

Polynomial Polynomial::substitute(const std::string& var, const Polynomial& value) const {
  const auto coeffs = coefficients_in(var);
  // Horner over the substituted value.
  Polynomial r;
  for (size_t e = coeffs.size(); e-- > 0;) {
    r = r * value + coeffs[e];
  }
  return r;
}

Polynomial Polynomial::derivative(const std::string& var) const {
  Polynomial r;
  for (const auto& [m, c] : terms_) {
    const int e = m.exponent(var);
    if (e == 0) continue;
    Monomial dm = m.without(var);
    if (e > 1) dm = dm * Monomial::var(var, e - 1);
    r.add_term(dm, c * Rational(e));
  }
  return r;
}

Rational Polynomial::eval(const std::map<std::string, Rational>& vals) const {
  Rational acc(0);
  for (const auto& [m, c] : terms_) {
    Rational t = c;
    for (const auto& [v, e] : m.factors()) {
      auto it = vals.find(v);
      if (it == vals.end()) throw SpecError("Polynomial::eval: missing value for " + v);
      for (int k = 0; k < e; ++k) t *= it->second;
    }
    acc += t;
  }
  return acc;
}

i128 Polynomial::eval_i128(const std::map<std::string, i64>& vals) const {
  const i64 den = denominator_lcm();
  i128 acc = 0;
  for (const auto& [m, c] : terms_) {
    i128 t = checked_mul(static_cast<i128>(c.num()), den / c.den());
    for (const auto& [v, e] : m.factors()) {
      auto it = vals.find(v);
      if (it == vals.end()) throw SpecError("Polynomial::eval_i128: missing value for " + v);
      t = checked_mul(t, ipow_checked(it->second, static_cast<unsigned>(e)));
    }
    acc = checked_add(acc, t);
  }
  return exact_div(acc, den);
}

i64 Polynomial::denominator_lcm() const {
  i64 l = 1;
  for (const auto& [m, c] : terms_) l = lcm_i64(l, c.den());
  return l;
}

std::string Polynomial::str() const {
  if (terms_.empty()) return "0";
  std::string s;
  // Render highest-degree terms first for readability.
  for (auto it = terms_.rbegin(); it != terms_.rend(); ++it) {
    const auto& [m, c] = *it;
    Rational shown = c;
    if (s.empty()) {
      if (c.num() < 0) {
        s += "-";
        shown = -c;
      }
    } else {
      s += c.num() >= 0 ? " + " : " - ";
      if (c.num() < 0) shown = -c;
    }
    if (m.is_constant()) {
      s += shown.str();
    } else if (shown == Rational(1)) {
      s += m.str();
    } else {
      s += shown.str() + "*" + m.str();
    }
  }
  return s;
}

CompiledPoly::CompiledPoly(const Polynomial& p, std::span<const std::string> order) {
  den_ = p.denominator_lcm();
  terms_.reserve(p.terms().size());
  size_t nfactors = 0;
  for (const auto& [m, c] : p.terms()) nfactors += m.factors().size();
  factors_.reserve(nfactors);
  for (const auto& [m, c] : p.terms()) {
    const auto first = static_cast<std::uint32_t>(factors_.size());
    for (const auto& [v, e] : m.factors()) {
      auto it = std::find(order.begin(), order.end(), v);
      if (it == order.end())
        throw SpecError("CompiledPoly: variable " + v + " missing from slot order");
      factors_.emplace_back(static_cast<int>(it - order.begin()), e);
    }
    terms_.push_back({checked_mul_i64(c.num(), den_ / c.den()), first,
                      static_cast<std::uint32_t>(factors_.size())});
  }
}

i128 CompiledPoly::eval_i128(std::span<const i64> point) const {
  i128 acc = 0;
  for (const auto& t : terms_) {
    i128 v = t.scaled_num;
    for (std::uint32_t f = t.first; f < t.last; ++f) {
      const i64 x = point[static_cast<size_t>(factors_[f].first)];
      const int e = factors_[f].second;
      v = checked_mul(v, e == 1 ? i128{x} : ipow_checked(x, static_cast<unsigned>(e)));
    }
    acc = checked_add(acc, v);
  }
  return exact_div(acc, den_);
}

double CompiledPoly::value_bound(const double* slot_bound) const {
  double sum = 0.0;
  double worst = 0.0;
  for (const auto& t : terms_) {
    // Factors below 1 in magnitude would shrink the product: bounding
    // each by max(bound, 1) covers every partial product too.
    double v = std::fabs(static_cast<double>(t.scaled_num));
    for (std::uint32_t f = t.first; f < t.last; ++f)
      v *= std::pow(std::max(slot_bound[factors_[f].first], 1.0), factors_[f].second);
    sum += v;
    worst = std::max({worst, v, sum});
  }
  return worst;
}

u64 CompiledPoly::slot_mask() const {
  u64 mask = 0;
  for (const auto& [slot, exp] : factors_) mask |= u64{1} << std::min(slot, 63);
  return mask;
}

long double CompiledPoly::eval_ld(std::span<const long double> point) const {
  long double acc = 0.0L;
  for (const auto& t : terms_) {
    long double v = static_cast<long double>(t.scaled_num);
    for (std::uint32_t f = t.first; f < t.last; ++f) {
      // x^exp by repeated multiplication: exact, and so equal to std::pow,
      // whenever the power fits the 64-bit mantissa.
      const long double x = point[static_cast<size_t>(factors_[f].first)];
      long double xp = x;
      for (int e = 1; e < factors_[f].second; ++e) xp *= x;
      v *= xp;
    }
    acc += v;
  }
  return acc / static_cast<long double>(den_);
}

}  // namespace nrc
