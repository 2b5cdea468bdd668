#include "math/faulhaber.hpp"

#include <deque>
#include <mutex>
#include <vector>

namespace nrc {
namespace {

/// Exact Lagrange interpolation through integer points (x_i, y_i).
Polynomial lagrange(const std::vector<i64>& xs, const std::vector<Rational>& ys) {
  const Polynomial x = Polynomial::variable("x");
  Polynomial acc;
  for (size_t i = 0; i < xs.size(); ++i) {
    Polynomial basis(Rational(1));
    Rational denom(1);
    for (size_t j = 0; j < xs.size(); ++j) {
      if (j == i) continue;
      basis *= (x - Polynomial(Rational(xs[j])));
      denom *= Rational(xs[i] - xs[j]);
    }
    acc += basis * (ys[i] / denom);
  }
  return acc;
}

Polynomial build_faulhaber(unsigned p) {
  // F_p has degree p+1, so p+2 points pin it down.  Use x = -1 .. p with
  // the recurrence F(-1) = 0, F(k) = F(k-1) + k^p  (0^0 == 1).
  std::vector<i64> xs;
  std::vector<Rational> ys;
  Rational running(0);
  xs.push_back(-1);
  ys.push_back(running);
  for (i64 k = 0; k <= static_cast<i64>(p); ++k) {
    Rational kp(1);
    for (unsigned e = 0; e < p; ++e) kp *= Rational(k);
    running += kp;  // k^p with 0^0 = 1 handled by the empty product
    xs.push_back(k);
    ys.push_back(running);
  }
  return lagrange(xs, ys);
}

}  // namespace

const Polynomial& faulhaber(unsigned p) {
  static std::mutex mu;
  static std::deque<Polynomial> cache;  // growing it keeps returned references valid
  std::lock_guard<std::mutex> lock(mu);
  while (cache.size() <= p) cache.push_back(build_faulhaber(static_cast<unsigned>(cache.size())));
  return cache[p];
}

std::vector<Polynomial> antiderivative(const Polynomial& P, const std::string& var) {
  // With P = sum_e c_e * var^e, Q(x) = sum_e c_e * F_e(x), so
  // G[m] = sum_e c_e * [x^m]F_e.  F_e has degree e + 1.
  const auto coeffs = P.coefficients_in(var);
  std::vector<Polynomial> G(coeffs.size() + 1);
  for (size_t e = 0; e < coeffs.size(); ++e) {
    if (coeffs[e].is_zero()) continue;
    const Polynomial& F = faulhaber(static_cast<unsigned>(e));
    for (size_t t = 0; t < F.num_terms(); ++t)
      G[static_cast<size_t>(F.term_degree(t))].add_scaled(coeffs[e], F.coef(t));
  }
  return G;
}

}  // namespace nrc
