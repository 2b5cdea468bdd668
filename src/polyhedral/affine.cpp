#include "polyhedral/affine.hpp"

#include "support/error.hpp"

namespace nrc {

AffineExpr AffineExpr::variable(const std::string& name, i64 coef) {
  AffineExpr a;
  if (coef != 0) a.coefs_.emplace(name, coef);
  return a;
}

i64 AffineExpr::coefficient(const std::string& name) const {
  auto it = coefs_.find(name);
  return it == coefs_.end() ? 0 : it->second;
}

AffineExpr AffineExpr::operator+(const AffineExpr& o) const {
  AffineExpr r = *this;
  r.cst_ = checked_add_i64(r.cst_, o.cst_);
  for (const auto& [v, c] : o.coefs_) {
    const i64 nc = checked_add_i64(r.coefficient(v), c);
    if (nc == 0) {
      r.coefs_.erase(v);
    } else {
      r.coefs_[v] = nc;
    }
  }
  return r;
}

AffineExpr AffineExpr::operator-() const { return *this * -1; }

AffineExpr AffineExpr::operator-(const AffineExpr& o) const { return *this + (-o); }

AffineExpr AffineExpr::operator*(i64 s) const {
  AffineExpr r;
  if (s == 0) return r;
  r.cst_ = checked_mul_i64(cst_, s);
  for (const auto& [v, c] : coefs_) r.coefs_.emplace(v, checked_mul_i64(c, s));
  return r;
}

std::set<std::string> AffineExpr::variables() const {
  std::set<std::string> vs;
  for (const auto& [v, c] : coefs_) vs.insert(v);
  return vs;
}

i64 AffineExpr::eval(const std::map<std::string, i64>& vals) const {
  i64 acc = cst_;
  for (const auto& [v, c] : coefs_) {
    auto it = vals.find(v);
    if (it == vals.end()) throw SpecError("AffineExpr::eval: missing value for " + v);
    acc = checked_add_i64(acc, checked_mul_i64(c, it->second));
  }
  return acc;
}

Polynomial AffineExpr::to_poly() const {
  Polynomial p{Rational(cst_)};
  for (const auto& [v, c] : coefs_) p.add_scaled(Polynomial::variable(v), Rational(c));
  return p;
}

std::string AffineExpr::str() const {
  std::string s;
  for (const auto& [v, c] : coefs_) {
    if (s.empty()) {
      if (c == -1) {
        s += "-";
      } else if (c != 1) {
        s += std::to_string(c) + "*";
      }
      s += v;
    } else {
      s += c >= 0 ? " + " : " - ";
      const i64 ac = c >= 0 ? c : -c;
      if (ac != 1) s += std::to_string(ac) + "*";
      s += v;
    }
  }
  if (s.empty()) return std::to_string(cst_);
  if (cst_ > 0) s += " + " + std::to_string(cst_);
  if (cst_ < 0) s += " - " + std::to_string(-cst_);
  return s;
}

}  // namespace nrc
