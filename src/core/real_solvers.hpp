#pragma once
// Guarded real-arithmetic closed-form root estimates for the recovery
// engine (degrees 3 and 4).
//
// The level solvers in CollapsedEval only need floor(Re(x)) of the
// *selected convenient branch* of a level equation — and they sit behind
// the exact integer correction guard, so an estimate may be off by a few
// ulps without ever producing a wrong tuple.  That licence lets both the
// cubic (Cardano/Viete) and the quartic (Ferrari) run without any
// std::complex arithmetic:
//
//   * a Cardano branch value is computed as an explicit (re, im) pair:
//     three-real-root cubics (negative discriminant) take the Viete
//     trigonometric form, one-real-root cubics read the branch off
//     tables of cos/sin of multiples of pi/3 (the rotation the principal
//     complex cube root introduces for a negative real radicand),
//   * the Ferrari resolvent cubic reuses that Cardano path, and the two
//     principal complex square roots of the quadratic-factor stage
//     unfold into their real-arithmetic closed forms
//     Re(csqrt(z)) = sqrt((|z| + Re z)/2),
//     Im(csqrt(z)) = sign(Im z) * sqrt((|z| - Re z)/2),
//     so a complex resolvent root (the conjugate-pair branches the
//     calibration routinely selects) costs two hypots instead of a
//     ~90-instruction complex root formula.
//
// Degenerate configurations (leading coefficient zero, w == 0 divisions,
// the u -> 0 Cardano degeneration) surface as non-finite values and make
// the estimate functions return false; the caller demotes those points
// to the level's complex root formula, behind the same exact guard.
//
// Everything is templated on the evaluation type F (long double for the
// checked-i128 guard path, double for the proven-exact-f64 one) and on
// the coefficient type TA (i128 or double).

#include <cmath>

#include "support/int128.hpp"

namespace nrc {

/// Complex value of Cardano branch `branch` of the monic cubic
/// x^3 + b x^2 + c x + d, as an explicit real pair.  Algebraically
/// identical to the branch-k complex formula
/// u*cis(k,3) - p/(3*u*cis(k,3)) - b/3 that the symbolic root encodes
/// (u the principal cube root of -q/2 + csqrt(delta)); no complex
/// arithmetic anywhere.  The u -> 0 degeneration surfaces as a
/// non-finite value.
template <class F>
struct CardanoBranch {
  F re = F(0);
  F im = F(0);
};

template <class F>
CardanoBranch<F> cardano_branch(F b, F c, F d, int branch) {
  const F p = c - b * b / F(3);
  const F q = F(2) * b * b * b / F(27) - b * c / F(3) + d;
  const F delta = q * q / F(4) + p * p * p / F(27);
  constexpr F k2Pi3 = F(2.0943951023931954923084289221863353L);
  CardanoBranch<F> out;
  if (delta < F(0)) {
    // Three real roots: u = m*cis(phi/3), |u|^2 = -p/3, and the k-th
    // root collapses to 2*m*cos(phi/3 + 2*pi*k/3).  (The seed's solver
    // divided the whole phase by 3 — cos((phi + 2*pi*k/3)/3) — which is
    // wrong for branches 1 and 2; the exact guard silently absorbed it
    // as a search fallback, and the calibrated nests all picked branch
    // 0.  The Ferrari resolvent exercises every branch, so the phase is
    // now correct and branches 1/2 estimate exactly.)
    const F m = std::sqrt(-p / F(3));
    const F phi = std::atan2(std::sqrt(-delta), -q / F(2));
    out.re = F(2) * m * std::cos(phi / F(3) + k2Pi3 * static_cast<F>(branch)) -
             b / F(3);
  } else {
    // One real root: the radicand v is real, so u = m*cis(theta) with
    // theta a multiple of pi/3 (shifted by pi/3 when v < 0, from the
    // principal cube root of a negative real).  With |u| = m,
    // u_k - p/(3 u_k) = (m - p/(3m))*cos(theta) + i*(m + p/(3m))*sin(theta).
    const F v = -q / F(2) + std::sqrt(delta);
    const F m = std::cbrt(std::fabs(v));
    constexpr F kR3o2 = F(0.86602540378443864676372317075293618L);  // sqrt(3)/2
    static constexpr F kCosPos[3] = {F(1), F(-0.5), F(-0.5)};    // v >= 0
    static constexpr F kSinPos[3] = {F(0), kR3o2, -kR3o2};
    static constexpr F kCosNeg[3] = {F(0.5), F(-1), F(0.5)};     // v < 0
    static constexpr F kSinNeg[3] = {kR3o2, F(0), -kR3o2};
    const F cosw = v < F(0) ? kCosNeg[branch] : kCosPos[branch];
    const F sinw = v < F(0) ? kSinNeg[branch] : kSinPos[branch];
    const F po3m = p / (F(3) * m);  // m == 0 degenerates to inf: guard
    out.re = (m - po3m) * cosw - b / F(3);
    out.im = (m + po3m) * sinw;
  }
  return out;
}

/// True when `root` can be floored into the i64 index range.
template <class F>
inline bool index_range_finite(F root) {
  return std::isfinite(root) && root >= F(-9.2e18L) && root <= F(9.2e18L);
}

/// Real-arithmetic Cardano/Viete estimate for A3*t^3 + ... + A0 <= 0,
/// evaluated in long double on i128 coefficients or in double on
/// exact-double ones (the exact guard absorbs the precision
/// difference).  Only Re of the branch is needed for the
/// floor.  Returns false when the formula degenerates here (A3 == 0,
/// non-finite, or out of the index range).
template <class F, class TA>
bool cubic_estimate(const TA* A, int branch, i64* est) {
  if (A[3] == 0) return false;
  const F a3 = static_cast<F>(A[3]);
  const CardanoBranch<F> cb =
      cardano_branch<F>(static_cast<F>(A[2]) / a3, static_cast<F>(A[1]) / a3,
                        static_cast<F>(A[0]) / a3, branch);
  if (!index_range_finite(cb.re)) return false;
  *est = static_cast<i64>(std::floor(cb.re + F(1e-9L)));
  return true;
}

/// Guarded real-arithmetic Ferrari estimate for A4*t^4 + ... + A0 <= 0,
/// branch = 4*(resolvent Cardano branch) + quadratic-factor branch —
/// the same branch family as math/roots.cpp::root_quartic and the
/// symbolic quartic_root, so the estimate tracks the branch the
/// calibration selected.  The resolvent root w (complex for the
/// conjugate-pair Cardano branches) flows through the chain as an
/// explicit (re, im) pair:
///
///   alpha = csqrt(w):   ar = sqrt((|w| + wr)/2),
///                       ai = sign(wi) * sqrt((|w| - wr)/2),
///   q/alpha           = q * conj(alpha) / |w|,
///   beta, gamma       = (p + w -+ q/alpha)/2,
///   D = alpha^2 - 4*{beta,gamma} = w - 4*{beta,gamma},
///   Re(y)             = (-+ar +- sqrt((|D| + Dr)/2)) / 2,
///
/// and the recovered estimate is floor(Re(y) - b/4 + eps).  Returns
/// false when the formula degenerates (A4 == 0, w == 0 divisions,
/// non-finite, out of the index range); the caller then demotes the
/// point to the level's root formula.
template <class F, class TA>
bool ferrari_estimate(const TA* A, int branch, i64* est) {
  if (A[4] == 0) return false;
  const F a4 = static_cast<F>(A[4]);
  const F b = static_cast<F>(A[3]) / a4;
  const F c = static_cast<F>(A[2]) / a4;
  const F d = static_cast<F>(A[1]) / a4;
  const F e = static_cast<F>(A[0]) / a4;

  // Depressed quartic y^4 + p y^2 + q y + r (x = y - b/4).
  const F p = c - b * b * (F(3) / F(8));
  const F q = d - b * c / F(2) + b * b * b / F(8);
  const F r = e - b * d / F(4) + b * b * c / F(16) - b * b * b * b * (F(3) / F(256));

  const int rb = branch / 4;  // resolvent Cardano branch, 0..2
  const int qb = branch % 4;  // quadratic-factor branch, 0..3

  // Resolvent cubic w^3 + 2p w^2 + (p^2 - 4r) w - q^2 = 0 (monic).
  const CardanoBranch<F> w =
      cardano_branch<F>(F(2) * p, p * p - F(4) * r, -(q * q), rb);

  // alpha = csqrt(w), principal (Re >= 0, Im carries sign(Im w)).
  const F aw = std::hypot(w.re, w.im);
  const F ar = std::sqrt((aw + w.re) / F(2));
  const F ai = std::copysign(std::sqrt((aw - w.re) / F(2)), w.im);
  // q / alpha = q * conj(alpha) / |alpha|^2, |alpha|^2 = |w|.
  const F qar = q * ar / aw;  // w == 0 degenerates to NaN: caught below
  const F qai = -q * ai / aw;
  // D = alpha^2 - 4*{beta,gamma} = w - 2*(p + w +- q/alpha).
  const F sg = qb < 2 ? F(-1) : F(1);
  const F Dr = w.re - F(2) * (p + w.re + sg * qar);
  const F Di = -w.im - F(2) * sg * qai;
  const F sr = std::sqrt((std::hypot(Dr, Di) + Dr) / F(2));  // Re(csqrt(D))
  const F y = ((qb < 2 ? -ar : ar) + ((qb & 1) ? -sr : sr)) / F(2);

  const F root = y - b / F(4);
  if (!index_range_finite(root)) return false;
  *est = static_cast<i64>(std::floor(root + F(1e-9L)));
  return true;
}

}  // namespace nrc
