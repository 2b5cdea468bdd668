#include "analysis/nest_analyzer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

#include "math/rational.hpp"
#include "pipeline/plan.hpp"
#include "support/error.hpp"

namespace nrc {

namespace {

// ---------------------------------------------------- saturating intervals
//
// The analyzer must survive adversarial bounds (that is its whole point),
// so every integer computation here saturates at +/-INT64_MAX instead of
// overflowing.  Ends are kept clamped to [-kSat, kSat]; one product of
// two clamped i64 values fits i128 comfortably, so a single widened
// multiply followed by a clamp is exact saturation.

constexpr i64 kSat = std::numeric_limits<i64>::max();

/// Headroom bound for the trip_i64_safe verdict: the executors compute
/// pc ends as pc_lo + chunk - 1 and lane strides as lane * warp_size, so
/// a total at or below 2^62 leaves every candidate Schedule's partition
/// arithmetic a 2x margin inside i64.
constexpr i64 kPartitionSafe = i64{1} << 62;

i64 sat(i128 v) {
  if (v > static_cast<i128>(kSat)) return kSat;
  if (v < -static_cast<i128>(kSat)) return -kSat;
  return static_cast<i64>(v);
}

i64 sat_add(i64 a, i64 b) { return sat(static_cast<i128>(a) + b); }
i64 sat_mul(i64 a, i64 b) { return sat(static_cast<i128>(a) * b); }

struct Interval {
  i64 lo = 0;
  i64 hi = 0;
  bool saturated() const { return lo <= -kSat || hi >= kSat; }
};

/// Interval evaluation of an affine expression over a variable box.
/// Returns false (out unspecified) when the expression references a
/// variable the box does not bind.
bool eval_interval(const AffineExpr& e, const std::map<std::string, Interval>& box,
                   Interval& out, std::string* missing) {
  Interval r{e.constant_term(), e.constant_term()};
  for (const auto& [name, coef] : e.coefficients()) {
    const auto it = box.find(name);
    if (it == box.end()) {
      if (missing) *missing = name;
      return false;
    }
    const Interval v = it->second;
    const i64 a = sat_mul(coef, coef >= 0 ? v.lo : v.hi);
    const i64 b = sat_mul(coef, coef >= 0 ? v.hi : v.lo);
    r.lo = sat_add(r.lo, a);
    r.hi = sat_add(r.hi, b);
  }
  out = r;
  return true;
}

// -------------------------------------------------------- diagnostic sugar

void diag(NestCertificate& cert, const char* code, LintSeverity sev, int level,
          std::string message, std::string hint = {}) {
  cert.diagnostics.push_back(
      Diagnostic{code, sev, level, std::move(message), std::move(hint)});
}

// ------------------------------------------------------- the interval pass

/// Results of the parameter-bound interval propagation over the nest:
/// per-variable boxes, per-level extent intervals and the trip-count
/// product — everything checks (a), (c) and (d) consume.  Pure (no
/// collapse, no bind), so it runs even for nests that fail to build.
struct IntervalPass {
  bool evaluated = false;  ///< false: a bound referenced an unbound name
  std::map<std::string, Interval> box;   ///< loop vars + params (+ "pc")
  std::vector<Interval> extent;          ///< per level, clamped at >= 0
  Interval total{1, 1};                  ///< product of extents
};

IntervalPass run_interval_pass(const NestSpec& nest, const ParamMap& params,
                               NestCertificate& cert) {
  IntervalPass ip;
  for (const auto& [name, v] : params) ip.box[name] = Interval{v, v};

  ip.evaluated = true;
  for (int k = 0; k < nest.depth(); ++k) {
    const Loop& loop = nest.at(k);
    Interval lo, hi, ext;
    std::string missing;
    // The extent is evaluated on upper - lower as ONE expression so that
    // shared terms cancel exactly (interval subtraction of the two bound
    // intervals would lose the correlation and report spurious emptiness
    // on every triangular nest).
    if (!eval_interval(loop.lower, ip.box, lo, &missing) ||
        !eval_interval(loop.upper, ip.box, hi, &missing) ||
        !eval_interval(loop.upper - loop.lower, ip.box, ext, &missing)) {
      diag(cert, "NRC-E001", LintSeverity::Error, k,
           "bound of loop '" + loop.var + "' references unbound name '" + missing + "'",
           "bind a value for '" + missing + "' or declare it as an outer iterator");
      ip.evaluated = false;
      return ip;
    }

    if (ext.hi <= 0) {
      diag(cert, "NRC-W004", LintSeverity::Error, k,
           "loop '" + loop.var + "' is empty for every outer iteration (extent <= " +
               std::to_string(ext.hi) + ")",
           "the collapsed domain is empty; bind() will refuse this parameter set");
    } else if (ext.lo <= 0) {
      diag(cert, "NRC-W004", LintSeverity::Warn, k,
           "loop '" + loop.var + "' may be empty for some outer iterations (extent spans [" +
               std::to_string(ext.lo) + ", " + std::to_string(ext.hi) + "])",
           "empty rows are handled but waste recovery work; tighten the outer bounds "
           "if the domain allows");
    } else if (ext.lo == 1 && ext.hi == 1) {
      diag(cert, "NRC-W004", LintSeverity::Info, k,
           "loop '" + loop.var + "' always executes exactly once",
           "a singleton level adds a recovery solve per point for free; "
           "consider collapsing one level fewer");
    }

    ip.extent.push_back(Interval{std::max<i64>(ext.lo, 0), std::max<i64>(ext.hi, 0)});
    ip.total.lo = sat_mul(ip.total.lo, ip.extent.back().lo);
    ip.total.hi = sat_mul(ip.total.hi, ip.extent.back().hi);

    // Box entry for this variable: [min lower, max last value].  An
    // empty level contributes its lower-bound range so inner bounds
    // still evaluate to *something* conservative.
    Interval var{lo.lo, std::max(lo.lo, sat_add(hi.hi, -1))};
    ip.box[loop.var] = var;
  }
  return ip;
}

// ------------------------------------------- emitted-C coefficient bounds

/// Magnitude bound of one level's den-scaled coefficient polynomial over
/// the box, in double (saturates to +inf; compared against thresholds
/// well below 2^63, so +inf simply means "does not fit").
double poly_magnitude_bound(const Polynomial& p, i64 den_scale,
                            const std::map<std::string, Interval>& box) {
  std::vector<double> mag;
  for (const std::string& var : p.vars()) {
    const auto it = box.find(var);
    // An unbound name here means the interval pass bailed; treat as
    // unbounded so the check conservatively refuses.
    mag.push_back(it == box.end()
                      ? std::numeric_limits<double>::infinity()
                      : static_cast<double>(
                            std::max(std::llabs(it->second.lo), std::llabs(it->second.hi))));
  }
  double total = 0.0;
  for (size_t t = 0; t < p.num_terms(); ++t) {
    double term = std::fabs(p.coef(t).to_double()) * static_cast<double>(den_scale);
    for (size_t v = 0; v < mag.size(); ++v)
      for (int e = 0; e < p.exponent(t, v); ++e) term *= mag[v];
    total += term;
  }
  return total;
}

/// (a) on a successfully bound plan: cert.total_trip already holds the
/// exact bind-time count; certify partition headroom or refuse.  Error,
/// not warn: a parallel executor computing a chunk end as pc + chunk - 1
/// past kPartitionSafe is signed-overflow UB, so serving such a plan is
/// refused outright under PlanCache::set_reject_errors.
void check_partition_headroom(NestCertificate& cert) {
  if (cert.total_trip > kPartitionSafe) {
    diag(cert, "NRC-W001", LintSeverity::Error, -1,
         "trip count " + std::to_string(cert.total_trip) +
             " leaves under 2x headroom for chunk/tile/grain partition arithmetic",
         "schedules computing pc + chunk ends may overflow; run serially or "
         "shrink the domain");
  } else {
    cert.trip_i64_safe = true;
  }
}

// -------------------------------------------------- the bound-plan checks

/// Checks (b), (c), (d) over a successfully bound plan.  `ip` supplies
/// the variable boxes; `cert.total_trip` is already the exact bind-time
/// trip count.
void analyze_bound_plan(NestCertificate& cert, const Collapsed& col,
                        const CollapsedEval& ev, IntervalPass& ip) {
  const int depth = ev.depth();
  ip.box["pc"] = Interval{1, cert.total_trip};

  // The emitted C evaluates the Horner guard in long long; certify a 2x
  // headroom below 2^63 like the partition check does.
  const double kEmitSafe = static_cast<double>(i64{1} << 62);
  // Margin gate for certifying the cubic trig path: the Cardano/Viete
  // estimate's error grows with the coefficient magnitudes, and the
  // exact guard only absorbs +/-16; below this slot bound the estimate
  // error is orders of magnitude under the guard radius (the
  // differential fuzzer cross-validates the claim end to end).
  const double kCubicCertifyBound = 1.0e9;

  const std::vector<LevelFormula>& formulas = col.levels();

  bool all_f64 = true;
  bool all_emit = true;
  for (int k = 0; k < depth; ++k) {
    LevelReport r;
    r.solver = ev.solver_kind(k);
    if (static_cast<size_t>(k) < ip.extent.size()) {
      r.extent_min = ip.extent[static_cast<size_t>(k)].lo;
      r.extent_max = ip.extent[static_cast<size_t>(k)].hi;
    }

    // ---- (b) proven-exact f64 recovery, predicting zero fallbacks.
    const char* why_not_f64 = nullptr;
    switch (r.solver) {
      case LevelSolverKind::InnermostLinear:
      case LevelSolverKind::ExactDivision:
        // Integer-exact arithmetic end to end; no guard loop to fail.
        r.f64_exact = true;
        break;
      case LevelSolverKind::Quadratic:
      case LevelSolverKind::Cubic: {
        const auto it = ip.box.find(col.nest().at(k).var);
        const double slot_bound =
            it == ip.box.end()
                ? std::numeric_limits<double>::infinity()
                : static_cast<double>(std::max(std::llabs(it->second.lo),
                                               std::llabs(it->second.hi)));
        const bool margin_ok = r.solver == LevelSolverKind::Quadratic
                                   ? true
                                   : slot_bound < kCubicCertifyBound;
        if (!ev.guards_provably_f64(k))
          why_not_f64 = "the f64-guard proof failed (an intermediate may reach 2^53)";
        else if (!margin_ok)
          why_not_f64 = "index magnitudes too large to certify the trig estimate";
        r.f64_exact = why_not_f64 == nullptr;
        break;
      }
      case LevelSolverKind::Quartic:
        diag(cert, "NRC-I002", LintSeverity::Info, k,
             "quartic level: where the Ferrari estimate finds no root in the level "
             "range, the point falls to exact binary search (counted in "
             "RecoveryStats::fallback)",
             "the search is exact but slower; a Search-free certificate is not "
             "available for degree-4 levels");
        why_not_f64 = "quartic levels may fall to search per point";
        break;
      case LevelSolverKind::Search:
        diag(cert, "NRC-I001", LintSeverity::Info, k,
             std::string("level lowers to ") + level_solver_kind_name(r.solver) +
                 ": every recovery pays an exact binary search over the level range",
             "prefer schedules with few recoveries (row_segments, per_thread); "
             "auto_select already weighs this");
        why_not_f64 = "no closed-form certificate for this solver";
        break;
    }
    if (!r.f64_exact) {
      all_f64 = false;
      if (why_not_f64 != nullptr &&
          (r.solver == LevelSolverKind::Quadratic || r.solver == LevelSolverKind::Cubic)) {
        diag(cert, "NRC-W002", LintSeverity::Warn, k,
             std::string("f64 guard path not certified: ") + why_not_f64,
             "recovery stays exact through the checked-__int128 reference guard, "
             "at higher per-point cost");
      }
    }

    // ---- (c) emitted-C coefficient arithmetic fits long long.
    //
    // The emitter computes den-scaled coefficients A_e and the Horner
    // guard A(t) in long long; bound every |A_e| and the full Horner sum
    // over the box (t ranges over the level variable +/- the guard
    // correction radius).  Levels without a usable formula are never
    // emitted (the emitter throws SolveError), so they are vacuously
    // safe here — the I001 note above already flags them.
    r.coeff_i64 = true;
    if (static_cast<size_t>(k) < formulas.size() &&
        !formulas[static_cast<size_t>(k)].coeffs.empty()) {
      const LevelFormula& f = formulas[static_cast<size_t>(k)];
      i64 den = 1;
      for (const Polynomial& c : f.coeffs) den = lcm_i64(den, c.denominator_lcm());
      const auto var_it = ip.box.find(col.nest().at(k).var);
      double x = var_it == ip.box.end()
                     ? std::numeric_limits<double>::infinity()
                     : static_cast<double>(std::max(std::llabs(var_it->second.lo),
                                                    std::llabs(var_it->second.hi)));
      x += 32.0;  // guard correction radius, with margin
      double horner = 0.0;
      for (size_t e = f.coeffs.size(); e-- > 0;) {
        const double ae = poly_magnitude_bound(f.coeffs[e], den, ip.box);
        horner = horner * x + ae;
        if (ae >= kEmitSafe) r.coeff_i64 = false;
      }
      if (horner >= kEmitSafe) r.coeff_i64 = false;
      if (!r.coeff_i64) {
        all_emit = false;
        char hb[32];
        std::snprintf(hb, sizeof(hb), "%.3g", horner);
        diag(cert, "NRC-W003", LintSeverity::Warn, k,
             "emitted coefficient/guard arithmetic may exceed long long "
             "(level-equation Horner bound ~" + std::string(hb) + ")",
             "emit with the nrc_wide (__int128) guard enabled, or shrink the "
             "parameter magnitudes");
      }
    }

    cert.levels.push_back(r);
  }

  cert.exact_f64 = all_f64 && !cert.total_saturated;
  cert.emit_i64_safe = all_emit && !cert.total_saturated;
}

/// The certificate of a bound plan — the one analyze(plan) and the
/// success path of analyze_nest() both return.
void certify_bound(NestCertificate& cert, const Collapsed& col, const CollapsedEval& ev,
                   IntervalPass& ip) {
  cert.bind_ok = true;
  cert.total_trip = ev.trip_count();
  if (ip.evaluated && ip.total.hi >= kSat) cert.total_saturated = true;
  check_partition_headroom(cert);
  analyze_bound_plan(cert, col, ev, ip);
}

}  // namespace

// ----------------------------------------------------------- public types

const char* lint_severity_name(LintSeverity s) {
  switch (s) {
    case LintSeverity::Info: return "info";
    case LintSeverity::Warn: return "warn";
    case LintSeverity::Error: return "error";
  }
  return "?";
}

std::string Diagnostic::str() const {
  std::string s = std::string(lint_severity_name(severity)) + " " + code;
  if (level >= 0) s += " [level " + std::to_string(level) + "]";
  s += ": " + message;
  if (!hint.empty()) s += " (hint: " + hint + ")";
  return s;
}

LintSeverity NestCertificate::max_severity() const {
  LintSeverity m = LintSeverity::Info;
  for (const Diagnostic& d : diagnostics)
    if (static_cast<int>(d.severity) > static_cast<int>(m)) m = d.severity;
  return m;
}

bool NestCertificate::has(const std::string& code) const {
  return find(code) != nullptr;
}

const Diagnostic* NestCertificate::find(const std::string& code) const {
  for (const Diagnostic& d : diagnostics)
    if (d.code == code) return &d;
  return nullptr;
}

std::string NestCertificate::str() const {
  std::string s = "lint: ";
  if (diagnostics.empty()) {
    s += "clean";
  } else {
    s += std::to_string(diagnostics.size()) +
         (diagnostics.size() == 1 ? " diagnostic" : " diagnostics") + " (max " +
         lint_severity_name(max_severity()) + ")";
  }
  const auto yn = [](bool b) { return b ? "yes" : "no"; };
  s += std::string("; certificates: trip-i64 ") + yn(trip_i64_safe) + ", f64-exact " +
       yn(exact_f64) + ", emit-i64 " + yn(emit_i64_safe) + "\n";
  for (const Diagnostic& d : diagnostics) s += "  " + d.str() + "\n";
  return s;
}

// ---------------------------------------------------------- entry points

NestCertificate analyze_nest(const NestSpec& nest, const ParamMap& params,
                             const CollapseOptions& opts) {
  NestCertificate cert;
  try {
    nest.validate();
  } catch (const Error& e) {
    diag(cert, "NRC-E001", LintSeverity::Error, -1,
         std::string("nest rejected: ") + e.what(),
         "fix the nest structure; see NestSpec::validate()");
    return cert;
  }

  IntervalPass ip = run_interval_pass(nest, params, cert);
  try {
    const Collapsed col = collapse(nest, opts);
    const CollapsedEval ev = col.bind(params);
    certify_bound(cert, col, ev, ip);
  } catch (const Error& e) {
    // (a) The structural half of the trip-count check, for domains bind()
    // refuses: saturation of the extent product proves the total may not
    // fit i64 at all.  A domain that binds has its exact trip count,
    // which check_partition_headroom judges instead.
    if (ip.evaluated && ip.total.hi >= kSat) {
      cert.total_trip = kSat;
      cert.total_saturated = true;
      diag(cert, "NRC-W001", LintSeverity::Error, -1,
           "total trip count may exceed i64 (extent product saturates)",
           "shrink the parameter magnitudes or collapse fewer levels");
    }
    diag(cert, "NRC-E001", LintSeverity::Error, -1,
         std::string("collapse/bind failed: ") + e.what(),
         "the diagnostics above explain structural causes where the interval "
         "pass found any");
  }
  return cert;
}

NestCertificate analyze(const CollapsePlan& plan) {
  NestCertificate cert;
  IntervalPass ip = run_interval_pass(plan.nest(), plan.params(), cert);
  certify_bound(cert, plan.collapsed(), plan.eval(), ip);
  return cert;
}

const NestCertificate& CollapsePlan::analyze() const {
  std::call_once(cert_once_,
                 [this] { cert_ = std::make_shared<const NestCertificate>(nrc::analyze(*this)); });
  return *cert_;
}

}  // namespace nrc
