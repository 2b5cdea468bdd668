#pragma once
// Real-arithmetic closed-form root estimates for the recovery engine
// (degrees 2, 3 and 4), selected by interval.
//
// A level equation A(t) = R(prefix, t) - pc has one sign change on the
// level's range [lb, ub]: the rank R does not decrease as t steps from
// lb to ub (each step adds a sub-nest count >= 0), A(lb) <= 0 and
// A(ub) > 0.  The level index is the last t with A(t) <= 0, so the
// convenient root of the paper's §IV is the largest real root inside
// [lb, ub] — no calibrated branch index is needed, and the choice holds
// at every parameter size.  The estimators compute every real root in a
// numerically stable way and keep that one:
//
//   * quadratics use the cancellation-free pair q, c/q of x^2 + b x + c,
//     q = -(b + sign(b) sqrt(disc)) / 2 (a level's own quadratic needs
//     only the upward crossing, the one root where A' = +sqrt(disc)),
//   * cubics with three real roots use the trigonometric (Viete) form;
//     with one real root, Cardano takes the cube root of the radicand
//     that does not cancel, -q/2 - sign(q) sqrt(delta), and adds its
//     partner -p/(3u) — through -q/(u^2 + v^2 + p/3) when p > 0, where
//     u + v itself would cancel,
//   * quartics (Ferrari) factor through the largest real root of the
//     resolvent cubic (always >= 0, polished by one Newton step so a
//     tiny root keeps its relative accuracy) into two real quadratics,
//     each solved as above; a zero resolvent root is the biquadratic
//     y^4 + p y^2 + r, solved through y^2.
//
// A root counts when it lies within half a step of [lb, ub]; when none
// does, or the formula degenerates (zero leading coefficient, non-finite
// values), the estimate functions return false and the caller falls
// back to exact binary search.  Every estimate feeds the exact integer guard,
// so an estimate a few ulps off never produces a wrong tuple.
//
// Everything is templated on the evaluation type F (long double for the
// checked-i128 guard path, double for the proven-exact-f64 one) and on
// the coefficient type TA (i128 or double).  print_c.cpp's
// real_solver_helpers_c() is the same code in C at double precision.

#include <cmath>
#include <type_traits>

#include "support/int128.hpp"

namespace nrc {

/// Floor of the largest of the n candidate roots within half a step of
/// the level range [lb, ub]; false when none lies there (non-finite
/// candidates never do).
template <class F>
bool pick_root(const F* roots, int n, i64 lb, i64 ub, i64* est) {
  const F lo = static_cast<F>(lb) - F(0.5);
  const F hi = static_cast<F>(ub) + F(0.5);
  bool found = false;
  F best = lo;
  for (int i = 0; i < n; ++i) {
    if (roots[i] >= lo && roots[i] <= hi && (!found || roots[i] > best)) {
      best = roots[i];
      found = true;
    }
  }
  if (!found) return false;
  *est = static_cast<i64>(std::floor(best + F(1e-9L)));
  return true;
}

/// Real roots of the monic x^2 + b x + c: both, without cancellation.
/// Returns their number (0 when the discriminant is negative).
template <class F>
int quadratic_roots(F b, F c, F* r) {
  const F disc = b * b - F(4) * c;
  if (!(disc >= F(0))) return 0;
  r[0] = -(b + std::copysign(std::sqrt(disc), b)) / F(2);
  r[1] = c / r[0];  // r[0] == 0 only for the double root 0
  return 2;
}

/// Real roots of the monic cubic x^3 + b x^2 + c x + d.  Returns their
/// number: 3 (trigonometric form) or 1 (stable Cardano).
template <class F>
int cubic_roots(F b, F c, F d, F* r) {
  const F p = c - b * b / F(3);
  const F q = F(2) * b * b * b / F(27) - b * c / F(3) + d;
  const F delta = q * q / F(4) + p * p * p / F(27);
  const F shift = b / F(3);
  if (delta < F(0)) {
    // Three real roots: 2m cos(phi/3 - 2 pi k/3), m = sqrt(-p/3).
    constexpr F kR3o2 = F(0.86602540378443864676372317075293618L);  // sqrt(3)/2
    const F m = std::sqrt(-p / F(3));
    const F phi = std::atan2(std::sqrt(-delta), -q / F(2));
    const F c0 = std::cos(phi / F(3));
    const F s0 = std::sin(phi / F(3));
    r[0] = F(2) * m * c0 - shift;
    r[1] = F(2) * m * (-c0 / F(2) - s0 * kR3o2) - shift;
    r[2] = F(2) * m * (-c0 / F(2) + s0 * kR3o2) - shift;
    return 3;
  }
  // One real root u + v, u^3 the radicand that does not cancel, u*v = -p/3.
  const F sq = std::sqrt(delta);
  const F u = std::cbrt(q > F(0) ? -q / F(2) - sq : -q / F(2) + sq);
  F y = F(0);  // u == 0: q == p == 0, the triple root 0
  if (u != F(0)) {
    const F v = -p / (F(3) * u);
    y = p > F(0) ? -q / (u * u + v * v + p / F(3)) : u + v;
  }
  r[0] = y - shift;
  return 1;
}

/// Interval-selected estimate for A2 t^2 + A1 t + A0 <= 0.  The
/// discriminant is exact for i128 coefficients (checked) and computed in
/// double for double ones.  A rises through the level's root, and of
/// the two roots only (-A1 + sqrt(disc)) / (2 A2) has A' = +sqrt(disc)
/// >= 0, so that one alone is computed, in the form that does not
/// cancel.
template <class F, class TA>
bool quadratic_estimate(const TA* A, i64 lb, i64 ub, i64* est) {
  F disc;
  if constexpr (std::is_same_v<TA, double>)
    disc = A[1] * A[1] - 4.0 * A[2] * A[0];
  else
    disc = static_cast<F>(
        checked_sub(checked_mul(A[1], A[1]), checked_mul(checked_mul(4, A[2]), A[0])));
  const F a0 = static_cast<F>(A[0]);
  const F a1 = static_cast<F>(A[1]);
  const F a2 = static_cast<F>(A[2]);
  if (a2 == F(0) || !(disc >= F(0))) return false;
  const F s = std::sqrt(disc);
  const F r = a1 > F(0) ? F(-2) * a0 / (a1 + s) : (s - a1) / (F(2) * a2);
  return pick_root(&r, 1, lb, ub, est);
}

/// Interval-selected Cardano/Viete estimate for A3 t^3 + ... + A0 <= 0.
template <class F, class TA>
bool cubic_estimate(const TA* A, i64 lb, i64 ub, i64* est) {
  if (A[3] == 0) return false;
  const F a3 = static_cast<F>(A[3]);
  F r[3];
  const int n = cubic_roots<F>(static_cast<F>(A[2]) / a3, static_cast<F>(A[1]) / a3,
                               static_cast<F>(A[0]) / a3, r);
  return pick_root(r, n, lb, ub, est);
}

/// Interval-selected Ferrari estimate for A4 t^4 + ... + A0 <= 0.  The
/// depressed quartic y^4 + p y^2 + q y + r (t = y - b/4) factors as
/// (y^2 + alpha y + beta)(y^2 - alpha y + gamma) with alpha^2 = w, the
/// largest root of the resolvent w^3 + 2p w^2 + (p^2 - 4r) w - q^2, and
/// beta, gamma = (p + w)/2 -+ q/(2 alpha).
template <class F, class TA>
bool ferrari_estimate(const TA* A, i64 lb, i64 ub, i64* est) {
  if (A[4] == 0) return false;
  const F a4 = static_cast<F>(A[4]);
  const F b = static_cast<F>(A[3]) / a4;
  const F c = static_cast<F>(A[2]) / a4;
  const F d = static_cast<F>(A[1]) / a4;
  const F e = static_cast<F>(A[0]) / a4;
  const F p = c - b * b * (F(3) / F(8));
  const F q = d - b * c / F(2) + b * b * b / F(8);
  const F r = e - b * d / F(4) + b * b * c / F(16) - b * b * b * b * (F(3) / F(256));

  const F c2 = F(2) * p;
  const F c1 = p * p - F(4) * r;
  const F c0 = -(q * q);
  F w3[3];
  const int nw = cubic_roots<F>(c2, c1, c0, w3);
  F w = F(0);
  for (int i = 0; i < nw; ++i)
    if (w3[i] > w) w = w3[i];
  // One Newton step on the resolvent: a small root comes out of the
  // shifted Cardano form with only absolute accuracy.
  const F fw = ((w + c2) * w + c1) * w + c0;
  const F dfw = (F(3) * w + F(2) * c2) * w + c1;
  if (dfw != F(0)) w -= fw / dfw;

  F y[4];
  int n = 0;
  if (w > F(0)) {
    const F alpha = std::sqrt(w);
    const F h = (p + w) / F(2);
    const F g = q / (F(2) * alpha);
    n = quadratic_roots(alpha, h - g, y);
    n += quadratic_roots(-alpha, h + g, y + n);
  } else {
    // Biquadratic: y^2 = z for each real z >= 0 of z^2 + p z + r.
    F z[2];
    const int nz = quadratic_roots(p, r, z);
    for (int i = 0; i < nz; ++i) {
      if (!(z[i] >= F(0))) continue;
      y[n++] = std::sqrt(z[i]);
      y[n++] = -std::sqrt(z[i]);
    }
  }
  for (int i = 0; i < n; ++i) y[i] -= b / F(4);
  return pick_root(y, n, lb, ub, est);
}

}  // namespace nrc
