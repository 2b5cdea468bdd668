#include "math/roots.hpp"

#include <cmath>

#include "support/error.hpp"

namespace nrc {
namespace {

constexpr long double kPi = 3.14159265358979323846264338327950288L;

cld cis(long double k, long double n) {
  const long double a = 2.0L * kPi * k / n;
  return {std::cos(a), std::sin(a)};
}

cld root_linear(std::span<const cld> a) { return -a[0] / a[1]; }

cld root_quadratic(std::span<const cld> a, int branch) {
  const cld s = std::sqrt(a[1] * a[1] - 4.0L * a[2] * a[0]);
  return branch == 0 ? (-a[1] + s) / (2.0L * a[2]) : (-a[1] - s) / (2.0L * a[2]);
}

// Cardano on the monic cubic x^3 + b x^2 + c x + d.
cld cardano(const cld& b, const cld& c, const cld& d, int branch) {
  const cld p = c - b * b / 3.0L;
  const cld q = 2.0L * b * b * b / 27.0L - b * c / 3.0L + d;
  const cld delta = q * q / 4.0L + p * p * p / 27.0L;
  cld u = principal_cbrt(-q / 2.0L + std::sqrt(delta));
  if (std::abs(u) < 1e-30L) {
    // Degenerate: u == 0 implies p == 0 (triple root of the depressed
    // cubic); take the direct cube root of -q instead.
    const cld t = principal_cbrt(-q) * cis(static_cast<long double>(branch), 3.0L);
    return t - b / 3.0L;
  }
  const cld uk = u * cis(static_cast<long double>(branch), 3.0L);
  const cld t = uk - p / (3.0L * uk);
  return t - b / 3.0L;
}

cld root_cubic(std::span<const cld> a, int branch) {
  return cardano(a[2] / a[3], a[1] / a[3], a[0] / a[3], branch);
}

// Ferrari on the monic quartic x^4 + b x^3 + c x^2 + d x + e via the
// factorization (y^2 + alpha y + beta)(y^2 - alpha y + gamma) of the
// depressed quartic y^4 + p y^2 + q y + r, where w = alpha^2 solves the
// resolvent cubic  w^3 + 2p w^2 + (p^2 - 4r) w - q^2 = 0.
cld root_quartic(std::span<const cld> a, int branch) {
  const cld b = a[3] / a[4];
  const cld c = a[2] / a[4];
  const cld d = a[1] / a[4];
  const cld e = a[0] / a[4];

  const cld p = c - 3.0L * b * b / 8.0L;
  const cld q = d - b * c / 2.0L + b * b * b / 8.0L;
  const cld r = e - b * d / 4.0L + b * b * c / 16.0L - 3.0L * b * b * b * b / 256.0L;

  const int resolvent_branch = branch / 4;  // 0..2
  const int quad_branch = branch % 4;       // 0..3

  const cld w = cardano(2.0L * p, p * p - 4.0L * r, -q * q, resolvent_branch);
  const cld alpha = std::sqrt(w);
  // q == 0 (biquadratic) makes alpha == 0 and the division below blow up;
  // the caller falls back to exact search when a non-finite value comes
  // back, which mirrors the behaviour of the generated C code.
  const cld beta = (p + w - q / alpha) / 2.0L;
  const cld gamma = (p + w + q / alpha) / 2.0L;

  cld y;
  switch (quad_branch) {
    case 0:
      y = (-alpha + std::sqrt(alpha * alpha - 4.0L * beta)) / 2.0L;
      break;
    case 1:
      y = (-alpha - std::sqrt(alpha * alpha - 4.0L * beta)) / 2.0L;
      break;
    case 2:
      y = (alpha + std::sqrt(alpha * alpha - 4.0L * gamma)) / 2.0L;
      break;
    default:
      y = (alpha - std::sqrt(alpha * alpha - 4.0L * gamma)) / 2.0L;
      break;
  }
  return y - b / 4.0L;
}

}  // namespace

cld principal_cbrt(const cld& z) {
  // Polar form of the principal branch (arg/3 stays in (-pi/3, pi/3]):
  // the same branch cpow(z, 1/3) picks in the generated C code, at
  // roughly half the cost.  The single shared implementation keeps
  // branch calibration and the quartic demotion bit-identical.
  if (z == cld{0.0L, 0.0L}) return {0.0L, 0.0L};
  const long double m = std::cbrt(std::hypot(z.real(), z.imag()));
  const long double a = std::atan2(z.imag(), z.real()) / 3.0L;
  return {m * std::cos(a), m * std::sin(a)};
}

int root_branch_count(int degree) {
  switch (degree) {
    case 1:
      return 1;
    case 2:
      return 2;
    case 3:
      return 3;
    case 4:
      return 12;
    default:
      throw DegreeError("root_branch_count: unsupported degree " + std::to_string(degree));
  }
}

cld root_branch_value(std::span<const cld> coeffs, int branch) {
  const int degree = static_cast<int>(coeffs.size()) - 1;
  if (branch < 0 || branch >= root_branch_count(degree))
    throw SolveError("root_branch_value: branch out of range");
  switch (degree) {
    case 1:
      return root_linear(coeffs);
    case 2:
      return root_quadratic(coeffs, branch);
    case 3:
      return root_cubic(coeffs, branch);
    case 4:
      return root_quartic(coeffs, branch);
    default:
      throw DegreeError("root_branch_value: unsupported degree " + std::to_string(degree));
  }
}

std::vector<cld> all_root_branches(std::span<const cld> coeffs) {
  const int degree = static_cast<int>(coeffs.size()) - 1;
  std::vector<cld> out;
  const int n = root_branch_count(degree);
  out.reserve(static_cast<size_t>(n));
  for (int b = 0; b < n; ++b) out.push_back(root_branch_value(coeffs, b));
  return out;
}

}  // namespace nrc
