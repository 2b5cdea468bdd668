#include "symbolic/print_c.hpp"

#include <cstdio>

namespace nrc {
namespace {

std::string var_ref(const std::string& name, const CPrintOptions& opt,
                    const std::string& cast) {
  auto it = opt.rename.find(name);
  const std::string& id = it == opt.rename.end() ? name : it->second;
  if (!cast.empty()) return cast + id;
  return id;
}

/// Term t's monomial as a product of variable references.
std::string monomial_c(const Polynomial& p, size_t t, const CPrintOptions& opt,
                       const std::string& cast) {
  std::string s;
  for (size_t v = 0; v < p.vars().size(); ++v) {
    for (int k = 0; k < p.exponent(t, v); ++k) {
      if (!s.empty()) s += "*";
      s += var_ref(p.vars()[v], opt, cast);
    }
  }
  return s;
}

}  // namespace

std::string print_poly_c(const Polynomial& p, const CPrintOptions& opt, bool integer_arith) {
  if (p.is_zero()) return "0";
  const i64 den = p.denominator_lcm();
  std::string body;
  for (size_t t = p.num_terms(); t-- > 0;) {
    const Rational& c = p.coef(t);
    // Scaled integer coefficient over the common denominator.
    const i64 num = c.num() * (den / c.den());
    i64 shown = num;
    if (body.empty()) {
      if (num < 0) {
        body += "-";
        shown = -num;
      }
    } else {
      body += num >= 0 ? " + " : " - ";
      if (num < 0) shown = -num;
    }
    const std::string mono =
        monomial_c(p, t, opt, integer_arith ? opt.int_var_cast : opt.var_cast);
    if (p.term_degree(t) == 0) {
      body += std::to_string(shown);
    } else if (shown == 1) {
      body += mono;
    } else {
      body += std::to_string(shown) + "*" + mono;
    }
  }
  if (den == 1) return "(" + body + ")";
  if (integer_arith) return "((" + body + ") / " + std::to_string(den) + ")";
  return "((" + body + ") / " + std::to_string(den) + ".0)";
}

namespace {

/// Hexadecimal double literal of `v` — bit-exact in any C99 compiler,
/// immune to the double-rounding a decimal literal could pick up going
/// through a long double parse.
std::string hex_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

}  // namespace

std::string real_solver_helpers_c(int max_degree) {
  // The constants below are the double values of the long double
  // literals in core/real_solvers.hpp (the F = double instantiations
  // the proven-f64 guard path runs), rendered as hex floats so the C side parses
  // the identical bits.
  const std::string r3o2 = hex_double(static_cast<double>(0.86602540378443864676372317075293618L));
  const std::string eps = hex_double(static_cast<double>(1e-9L));
  std::string s;
  s += "#ifndef NRC_QUAD_SOLVER_C\n";
  s += "#define NRC_QUAD_SOLVER_C\n";
  s += "/* Real-arithmetic root estimators, the C transliteration of the\n";
  s += " * library's core/real_solvers.hpp at double precision.  An estimate is\n";
  s += " * the floor of the largest real root within half a step of the level\n";
  s += " * range [lb, ub]; it feeds an exact integer correction guard.  A 0\n";
  s += " * return means no root lies in the range and the caller starts its\n";
  s += " * correction from a bound.  No C99 complex anywhere. */\n";
  s += "static int nrc_pick_root(const double *r, int n, long long lb, long long ub,\n";
  s += "                         long long *est) {\n";
  s += "  const double lo = (double)lb - 0.5;\n";
  s += "  const double hi = (double)ub + 0.5;\n";
  s += "  int found = 0;\n";
  s += "  double best = lo;\n";
  s += "  int i;\n";
  s += "  for (i = 0; i < n; i++) {\n";
  s += "    if (r[i] >= lo && r[i] <= hi && (!found || r[i] > best)) {\n";
  s += "      best = r[i];\n";
  s += "      found = 1;\n";
  s += "    }\n";
  s += "  }\n";
  s += "  if (!found) return 0;\n";
  s += "  *est = (long long)floor(best + " + eps + ");\n";
  s += "  return 1;\n";
  s += "}\n";
  s += "/* A2 t^2 + A1 t + A0: the upward crossing, (-A1 + sqrt(disc)) / (2 A2),\n";
  s += " * in the form that does not cancel. */\n";
  s += "static int nrc_quad_est(double a0, double a1, double a2, long long lb, long long ub,\n";
  s += "                        long long *est) {\n";
  s += "  const double disc = a1 * a1 - 4.0 * a2 * a0;\n";
  s += "  double sq, r;\n";
  s += "  if (a2 == 0.0 || !(disc >= 0.0)) return 0;\n";
  s += "  sq = sqrt(disc);\n";
  s += "  r = a1 > 0.0 ? -2.0 * a0 / (a1 + sq) : (sq - a1) / (2.0 * a2);\n";
  s += "  return nrc_pick_root(&r, 1, lb, ub, est);\n";
  s += "}\n";
  s += "#endif /* NRC_QUAD_SOLVER_C */\n";
  if (max_degree < 3) return s;
  s += "#ifndef NRC_REAL_SOLVERS_C\n";
  s += "#define NRC_REAL_SOLVERS_C\n";
  s += "/* Cardano/Viete and Ferrari. */\n";
  s += "static int nrc_quad_roots(double b, double c, double *r) {\n";
  s += "  const double disc = b * b - 4.0 * c;\n";
  s += "  if (!(disc >= 0.0)) return 0;\n";
  s += "  r[0] = -(b + copysign(sqrt(disc), b)) / 2.0;\n";
  s += "  r[1] = c / r[0];\n";
  s += "  return 2;\n";
  s += "}\n";
  s += "static int nrc_cubic_roots(double b, double c, double d, double *r) {\n";
  s += "  const double p = c - b * b / 3.0;\n";
  s += "  const double q = 2.0 * b * b * b / 27.0 - b * c / 3.0 + d;\n";
  s += "  const double delta = q * q / 4.0 + p * p * p / 27.0;\n";
  s += "  const double shift = b / 3.0;\n";
  s += "  if (delta < 0.0) {\n";
  s += "    const double m = sqrt(-p / 3.0);\n";
  s += "    const double phi = atan2(sqrt(-delta), -q / 2.0);\n";
  s += "    const double c0 = cos(phi / 3.0);\n";
  s += "    const double s0 = sin(phi / 3.0);\n";
  s += "    r[0] = 2.0 * m * c0 - shift;\n";
  s += "    r[1] = 2.0 * m * (-c0 / 2.0 - s0 * " + r3o2 + ") - shift;\n";
  s += "    r[2] = 2.0 * m * (-c0 / 2.0 + s0 * " + r3o2 + ") - shift;\n";
  s += "    return 3;\n";
  s += "  } else {\n";
  s += "    const double sq = sqrt(delta);\n";
  s += "    const double u = cbrt(q > 0.0 ? -q / 2.0 - sq : -q / 2.0 + sq);\n";
  s += "    double y = 0.0;\n";
  s += "    if (u != 0.0) {\n";
  s += "      const double v = -p / (3.0 * u);\n";
  s += "      y = p > 0.0 ? -q / (u * u + v * v + p / 3.0) : u + v;\n";
  s += "    }\n";
  s += "    r[0] = y - shift;\n";
  s += "    return 1;\n";
  s += "  }\n";
  s += "}\n";
  s += "static int nrc_cubic_est(double a0, double a1, double a2, double a3,\n";
  s += "                         long long lb, long long ub, long long *est) {\n";
  s += "  double r[3];\n";
  s += "  int n;\n";
  s += "  if (a3 == 0.0) return 0;\n";
  s += "  n = nrc_cubic_roots(a2 / a3, a1 / a3, a0 / a3, r);\n";
  s += "  return nrc_pick_root(r, n, lb, ub, est);\n";
  s += "}\n";
  s += "static int nrc_ferrari_est(double A0, double A1, double A2, double A3,\n";
  s += "                           double A4, long long lb, long long ub, long long *est) {\n";
  s += "  double b, c, d, e, p, q, r, c2, c1, c0, fw, dfw;\n";
  s += "  double w = 0.0;\n";
  s += "  double w3[3], y[4], z[2];\n";
  s += "  int nw, nz, i;\n";
  s += "  int n = 0;\n";
  s += "  if (A4 == 0.0) return 0;\n";
  s += "  b = A3 / A4;\n";
  s += "  c = A2 / A4;\n";
  s += "  d = A1 / A4;\n";
  s += "  e = A0 / A4;\n";
  s += "  /* Depressed quartic y^4 + p y^2 + q y + r (x = y - b/4). */\n";
  s += "  p = c - b * b * (3.0 / 8.0);\n";
  s += "  q = d - b * c / 2.0 + b * b * b / 8.0;\n";
  s += "  r = e - b * d / 4.0 + b * b * c / 16.0 - b * b * b * b * (3.0 / 256.0);\n";
  s += "  /* Largest root w >= 0 of the resolvent w^3 + 2p w^2 + (p^2 - 4r) w - q^2,\n";
  s += "   * polished by one Newton step. */\n";
  s += "  c2 = 2.0 * p;\n";
  s += "  c1 = p * p - 4.0 * r;\n";
  s += "  c0 = -(q * q);\n";
  s += "  nw = nrc_cubic_roots(c2, c1, c0, w3);\n";
  s += "  for (i = 0; i < nw; i++)\n";
  s += "    if (w3[i] > w) w = w3[i];\n";
  s += "  fw = ((w + c2) * w + c1) * w + c0;\n";
  s += "  dfw = (3.0 * w + 2.0 * c2) * w + c1;\n";
  s += "  if (dfw != 0.0) w -= fw / dfw;\n";
  s += "  if (w > 0.0) {\n";
  s += "    /* (y^2 + alpha y + beta)(y^2 - alpha y + gamma), alpha^2 = w. */\n";
  s += "    const double alpha = sqrt(w);\n";
  s += "    const double h = (p + w) / 2.0;\n";
  s += "    const double g = q / (2.0 * alpha);\n";
  s += "    n = nrc_quad_roots(alpha, h - g, y);\n";
  s += "    n += nrc_quad_roots(-alpha, h + g, y + n);\n";
  s += "  } else {\n";
  s += "    /* Biquadratic: y^2 = z for each real z >= 0 of z^2 + p z + r. */\n";
  s += "    nz = nrc_quad_roots(p, r, z);\n";
  s += "    for (i = 0; i < nz; i++) {\n";
  s += "      if (!(z[i] >= 0.0)) continue;\n";
  s += "      y[n++] = sqrt(z[i]);\n";
  s += "      y[n++] = -sqrt(z[i]);\n";
  s += "    }\n";
  s += "  }\n";
  s += "  for (i = 0; i < n; i++) y[i] -= b / 4.0;\n";
  s += "  return nrc_pick_root(y, n, lb, ub, est);\n";
  s += "}\n";
  s += "#endif /* NRC_REAL_SOLVERS_C */\n";
  return s;
}

}  // namespace nrc
