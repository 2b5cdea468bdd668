#include "symbolic/print_c.hpp"

#include <cstdio>

#include "support/error.hpp"

namespace nrc {
namespace {

std::string var_ref(const std::string& name, const CPrintOptions& opt,
                    const std::string& cast) {
  auto it = opt.rename.find(name);
  const std::string& id = it == opt.rename.end() ? name : it->second;
  if (!cast.empty()) return cast + id;
  return id;
}

std::string monomial_c(const Monomial& m, const CPrintOptions& opt,
                       const std::string& cast) {
  std::string s;
  for (const auto& [v, e] : m.factors()) {
    for (int k = 0; k < e; ++k) {
      if (!s.empty()) s += "*";
      s += var_ref(v, opt, cast);
    }
  }
  return s;
}

}  // namespace

std::string print_poly_c(const Polynomial& p, const CPrintOptions& opt, bool integer_arith) {
  if (p.is_zero()) return "0";
  const i64 den = p.denominator_lcm();
  std::string body;
  for (auto it = p.terms().rbegin(); it != p.terms().rend(); ++it) {
    const auto& [m, c] = *it;
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
        monomial_c(m, opt, integer_arith ? opt.int_var_cast : opt.var_cast);
    if (m.is_constant()) {
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

std::string render(const ExprPtr& n, const CPrintOptions& opt) {
  if (!n) throw SolveError("print_c: empty expression");
  switch (n->op) {
    case ExprOp::Const: {
      const Rational& c = n->cval;
      if (c.is_integer()) {
        return c.num() < 0 ? "(" + std::to_string(c.num()) + ")" : std::to_string(c.num());
      }
      return "(" + std::to_string(c.num()) + ".0/" + std::to_string(c.den()) + ".0)";
    }
    case ExprOp::Cis:
      // e^{2*pi*I*k/n}; only meaningful in complex mode.
      return "cexp(2.0*M_PI*I*" + std::to_string(n->cis_k) + ".0/" + std::to_string(n->cis_n) +
             ".0)";
    case ExprOp::Poly:
      return print_poly_c(n->poly, opt);
    case ExprOp::Add:
      return "(" + render(n->a, opt) + " + " + render(n->b, opt) + ")";
    case ExprOp::Sub:
      return "(" + render(n->a, opt) + " - " + render(n->b, opt) + ")";
    case ExprOp::Mul:
      return "(" + render(n->a, opt) + " * " + render(n->b, opt) + ")";
    case ExprOp::Div:
      return "(" + render(n->a, opt) + " / " + render(n->b, opt) + ")";
    case ExprOp::Neg:
      return "(-" + render(n->a, opt) + ")";
    case ExprOp::Sqrt:
      return (opt.complex_mode ? "csqrt(" : "sqrt(") + render(n->a, opt) + ")";
    case ExprOp::Cbrt:
      if (opt.complex_mode) return "cpow(" + render(n->a, opt) + ", 1.0/3.0)";
      return "cbrt(" + render(n->a, opt) + ")";
  }
  throw SolveError("print_c: unknown op");
}

}  // namespace

std::string print_c(const Expr& e, const CPrintOptions& opt) { return render(e.ptr(), opt); }

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

std::string real_solver_helpers_c() {
  // The constants below are the double values of the long double
  // literals in core/real_solvers.hpp (the F = double instantiations
  // the proven-f64 guard path runs), rendered as hex floats so the C side parses
  // the identical bits.
  const std::string k2pi3 = hex_double(static_cast<double>(2.0943951023931954923084289221863353L));
  const std::string r3o2 = hex_double(static_cast<double>(0.86602540378443864676372317075293618L));
  const std::string eps = hex_double(static_cast<double>(1e-9L));
  const std::string lim_lo = hex_double(static_cast<double>(-9.2e18L));
  const std::string lim_hi = hex_double(static_cast<double>(9.2e18L));
  std::string s;
  s += "#ifndef NRC_REAL_SOLVERS_C\n";
  s += "#define NRC_REAL_SOLVERS_C\n";
  s += "/* Guarded real-arithmetic root estimators (Cardano/Viete and Ferrari),\n";
  s += " * the C transliteration of the library's core/real_solvers.hpp at double\n";
  s += " * precision.  Estimates feed floor() + an exact integer correction guard;\n";
  s += " * a 0 return means the formula degenerated here and the caller must fall\n";
  s += " * back to its demotion guard.  No C99 complex arithmetic anywhere. */\n";
  s += "static double nrc_cardano_re(double b, double c, double d, int branch,\n";
  s += "                             double *im) {\n";
  s += "  const double p = c - b * b / 3.0;\n";
  s += "  const double q = 2.0 * b * b * b / 27.0 - b * c / 3.0 + d;\n";
  s += "  const double delta = q * q / 4.0 + p * p * p / 27.0;\n";
  s += "  double re, iv = 0.0;\n";
  s += "  if (delta < 0.0) {\n";
  s += "    const double m = sqrt(-p / 3.0);\n";
  s += "    const double phi = atan2(sqrt(-delta), -q / 2.0);\n";
  s += "    re = 2.0 * m * cos(phi / 3.0 + " + k2pi3 + " * (double)branch) - b / 3.0;\n";
  s += "  } else {\n";
  s += "    const double v = -q / 2.0 + sqrt(delta);\n";
  s += "    const double m = cbrt(fabs(v));\n";
  s += "    static const double cpos[3] = {1.0, -0.5, -0.5};\n";
  s += "    static const double spos[3] = {0.0, " + r3o2 + ", -" + r3o2 + "};\n";
  s += "    static const double cneg[3] = {0.5, -1.0, 0.5};\n";
  s += "    static const double sneg[3] = {" + r3o2 + ", 0.0, -" + r3o2 + "};\n";
  s += "    const double cosw = v < 0.0 ? cneg[branch] : cpos[branch];\n";
  s += "    const double sinw = v < 0.0 ? sneg[branch] : spos[branch];\n";
  s += "    const double po3m = p / (3.0 * m);\n";
  s += "    re = (m - po3m) * cosw - b / 3.0;\n";
  s += "    iv = (m + po3m) * sinw;\n";
  s += "  }\n";
  s += "  *im = iv;\n";
  s += "  return re;\n";
  s += "}\n";
  s += "static int nrc_est_in_range(double root) {\n";
  s += "  return isfinite(root) && root >= " + lim_lo + " && root <= " + lim_hi + ";\n";
  s += "}\n";
  s += "static int nrc_cubic_est(double a0, double a1, double a2, double a3,\n";
  s += "                         int branch, long long *est) {\n";
  s += "  double im;\n";
  s += "  double re;\n";
  s += "  if (a3 == 0.0) return 0;\n";
  s += "  re = nrc_cardano_re(a2 / a3, a1 / a3, a0 / a3, branch, &im);\n";
  s += "  if (!nrc_est_in_range(re)) return 0;\n";
  s += "  *est = (long long)floor(re + " + eps + ");\n";
  s += "  return 1;\n";
  s += "}\n";
  s += "static int nrc_ferrari_est(double A0, double A1, double A2, double A3,\n";
  s += "                           double A4, int branch, long long *est) {\n";
  s += "  if (A4 == 0.0) return 0;\n";
  s += "  {\n";
  s += "    const double b = A3 / A4;\n";
  s += "    const double c = A2 / A4;\n";
  s += "    const double d = A1 / A4;\n";
  s += "    const double e = A0 / A4;\n";
  s += "    /* Depressed quartic y^4 + p y^2 + q y + r (x = y - b/4). */\n";
  s += "    const double p = c - b * b * (3.0 / 8.0);\n";
  s += "    const double q = d - b * c / 2.0 + b * b * b / 8.0;\n";
  s += "    const double r = e - b * d / 4.0 + b * b * c / 16.0 -\n";
  s += "                     b * b * b * b * (3.0 / 256.0);\n";
  s += "    const int rb = branch / 4;\n";
  s += "    const int qb = branch % 4;\n";
  s += "    /* Resolvent cubic w^3 + 2p w^2 + (p^2 - 4r) w - q^2 = 0. */\n";
  s += "    double wi;\n";
  s += "    const double wr = nrc_cardano_re(2.0 * p, p * p - 4.0 * r, -(q * q), rb, &wi);\n";
  s += "    /* alpha = principal complex sqrt of w, unfolded to real pairs;\n";
  s += "     * q/alpha = q*conj(alpha)/|w|. */\n";
  s += "    const double aw = hypot(wr, wi);\n";
  s += "    const double ar = sqrt((aw + wr) / 2.0);\n";
  s += "    const double ai = copysign(sqrt((aw - wr) / 2.0), wi);\n";
  s += "    const double qar = q * ar / aw;\n";
  s += "    const double qai = -q * ai / aw;\n";
  s += "    const double sg = qb < 2 ? -1.0 : 1.0;\n";
  s += "    const double Dr = wr - 2.0 * (p + wr + sg * qar);\n";
  s += "    const double Di = -wi - 2.0 * sg * qai;\n";
  s += "    const double sr = sqrt((hypot(Dr, Di) + Dr) / 2.0);\n";
  s += "    const double y = ((qb < 2 ? -ar : ar) + ((qb & 1) ? -sr : sr)) / 2.0;\n";
  s += "    const double root = y - b / 4.0;\n";
  s += "    if (!nrc_est_in_range(root)) return 0;\n";
  s += "    *est = (long long)floor(root + " + eps + ");\n";
  s += "  }\n";
  s += "  return 1;\n";
  s += "}\n";
  s += "#endif /* NRC_REAL_SOLVERS_C */\n";
  return s;
}

}  // namespace nrc
