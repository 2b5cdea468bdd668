#include "core/collapse.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <list>
#include <mutex>

#include "core/real_solvers.hpp"
#include "support/error.hpp"
#include "symbolic/print_c.hpp"

namespace nrc {

namespace {

/// Floor division of exact 128-bit values, narrowed to the index range.
i64 floor_div_i128_to_i64(i128 a, i128 b) {
  i128 q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return narrow_i64(q);
}

/// Static classification of the solver bind() will pick for a level.
LevelSolverKind planned_solver(const LevelFormula& lf, int level, int depth) {
  if (level == depth - 1) return LevelSolverKind::InnermostLinear;
  if (lf.branch < 0) return LevelSolverKind::Search;
  if (lf.degree == 1) return LevelSolverKind::ExactDivision;
  if (lf.degree == 2) return LevelSolverKind::Quadratic;
  if (lf.degree == 3) return LevelSolverKind::Cubic;
  return LevelSolverKind::Quartic;
}

/// Substitute concrete parameter values into a polynomial so the runtime
/// evaluation touches only loop-variable and pc slots.  Astronomically
/// large parameters can push folded coefficients past the exact int64
/// coefficient range; in that case keep the unfolded polynomial (the
/// runtime ipow path handles it with its own overflow checks).
Polynomial fold_params(const Polynomial& p, const ParamMap& params) {
  try {
    Polynomial q = p;
    for (const auto& [name, val] : params) q = q.substitute(name, Polynomial(val));
    return q;
  } catch (const OverflowError&) {
    return p;
  }
}

}  // namespace

const char* level_solver_kind_name(LevelSolverKind k) {
  switch (k) {
    case LevelSolverKind::InnermostLinear:
      return "innermost-linear";
    case LevelSolverKind::ExactDivision:
      return "exact-division";
    case LevelSolverKind::Quadratic:
      return "guarded-quadratic";
    case LevelSolverKind::Cubic:
      return "guarded-cubic";
    case LevelSolverKind::Quartic:
      return "guarded-ferrari";
    case LevelSolverKind::Search:
      return "binary-search";
  }
  return "?";
}

struct Collapsed::Impl {
  RankingSystem rs;
  std::vector<LevelFormula> levels;
  std::vector<std::string> slots;
  CollapseOptions opts;
  // Per level root formula (empty without one).  It reads the
  // parameters from their slots, so every bind shares it.
  std::shared_ptr<const std::vector<CompiledExpr>> roots;

  // Parameter-keyed bind memo: re-binding the same parameters (cache
  // eviction rebuilds, deserialized plans, warm starts) copies the
  // memoized pristine evaluator — sharing nothing mutable, FlatPoly
  // layouts and the f64-guard proof included — instead of redoing the
  // lowering.  Small and linearly scanned; LRU beyond capacity.
  static constexpr size_t kBindMemoCapacity = 8;
  mutable std::mutex bind_mu;
  mutable std::list<std::pair<ParamMap, std::shared_ptr<const CollapsedEval>>> bind_memo;
  mutable size_t bind_reuses = 0;
};

const NestSpec& Collapsed::nest() const { return impl_->rs.nest; }
const RankingSystem& Collapsed::ranking() const { return impl_->rs; }
const std::vector<LevelFormula>& Collapsed::levels() const { return impl_->levels; }
const std::vector<std::string>& Collapsed::slot_order() const { return impl_->slots; }

bool Collapsed::fully_closed_form() const {
  for (const auto& lf : impl_->levels)
    if (lf.branch < 0) return false;
  return true;
}

Collapsed collapse(const NestSpec& nest, const CollapseOptions& opts) {
  auto impl = std::make_shared<Collapsed::Impl>();
  impl->opts = opts;
  impl->rs = build_ranking_system(nest);

  const int c = nest.depth();
  if (c > kMaxDepth)
    throw SpecError("collapse: nest depth exceeds kMaxDepth = " + std::to_string(kMaxDepth));

  impl->slots = nest.loop_vars();
  for (const auto& p : nest.params()) impl->slots.push_back(p);
  impl->slots.push_back(kPcVar);
  if (impl->slots.size() > static_cast<size_t>(kMaxSlots))
    throw SpecError("collapse: too many variables+parameters for the runtime fast path");

  if (opts.build_closed_form) {
    impl->levels = build_level_formulas(impl->rs, opts.max_closed_degree);
    const ParamMap cal =
        opts.calibration.empty() && !nest.params().empty() ? default_calibration(nest)
                                                           : opts.calibration;
    select_convenient_branches(impl->levels, impl->rs, cal, impl->slots);
  } else {
    // Degrees still need computing so describe() and codegen stay useful.
    impl->levels = build_level_formulas(impl->rs, 0);
  }

  auto roots = std::make_shared<std::vector<CompiledExpr>>(static_cast<size_t>(c));
  for (int k = 0; k < c; ++k) {
    const LevelFormula& lf = impl->levels[static_cast<size_t>(k)];
    if (lf.branch >= 0) (*roots)[static_cast<size_t>(k)] = CompiledExpr(lf.root, impl->slots);
  }
  impl->roots = std::move(roots);

  Collapsed col;
  col.impl_ = std::move(impl);
  return col;
}

std::string Collapsed::describe() const {
  const RankingSystem& rs = impl_->rs;
  std::string s;
  s += "collapsed nest:\n" + rs.nest.str();
  s += "ranking polynomial r = " + rs.rank.str() + "\n";
  s += "trip count = " + rs.total.str() + "\n";
  const int c = rs.nest.depth();
  for (int k = 0; k < c; ++k) {
    const LevelFormula& lf = impl_->levels[static_cast<size_t>(k)];
    s += "level " + std::to_string(k) + " (" + rs.nest.at(k).var +
         "): degree " + std::to_string(lf.degree);
    if (lf.branch >= 0) {
      s += ", branch " + std::to_string(lf.branch) + "\n    " + rs.nest.at(k).var +
           " = floor(" + lf.root.str() + ")\n";
    } else {
      s += ", recovered by exact binary search\n";
    }
    const LevelSolverKind kind = planned_solver(lf, k, c);
    s += "    lowered solver: " + std::string(level_solver_kind_name(kind));
    // Ferrari levels demote to the root formula above at points where
    // the selected branch goes genuinely complex.
    if (kind == LevelSolverKind::Quartic) s += " [formula demotion]";
    s += "\n";
  }
  s += "guard policy: proven-exact f64 where the bind-time slot-magnitude "
       "proof holds, checked-i128 fallback (all engines)\n";
  return s;
}

CollapsedEval Collapsed::bind(const ParamMap& params) const {
  const Impl& im = *impl_;
  {
    std::lock_guard<std::mutex> lock(im.bind_mu);
    for (auto it = im.bind_memo.begin(); it != im.bind_memo.end(); ++it) {
      if (it->first == params) {
        im.bind_memo.splice(im.bind_memo.begin(), im.bind_memo, it);
        ++im.bind_reuses;
        return *it->second;
      }
    }
  }
  CollapsedEval ev = bind_fresh(params);
  {
    std::lock_guard<std::mutex> lock(im.bind_mu);
    im.bind_memo.emplace_front(params, std::make_shared<const CollapsedEval>(ev));
    if (im.bind_memo.size() > Impl::kBindMemoCapacity) im.bind_memo.pop_back();
  }
  return ev;
}

size_t Collapsed::bind_reuses() const {
  std::lock_guard<std::mutex> lock(impl_->bind_mu);
  return impl_->bind_reuses;
}

CollapsedEval Collapsed::bind_fresh(const ParamMap& params) const {
  const Impl& im = *impl_;
  const NestSpec& spec = im.rs.nest;
  const int c = spec.depth();

  CollapsedEval ev;
  ev.c_ = c;
  ev.params_ = params;
  ev.nslots_ = im.slots.size();
  ev.pc_slot_ = im.slots.size() - 1;

  for (const auto& p : spec.params())
    if (!params.count(p)) throw SpecError("bind: missing parameter '" + p + "'");

  ev.base_.fill(0);
  for (size_t s = 0; s < im.slots.size(); ++s) {
    auto it = params.find(im.slots[s]);
    if (it != params.end()) ev.base_[s] = it->second;
  }

  for (int k = 0; k < c; ++k) {
    ev.bounds_lo_.push_back(FoldedBound::fold(spec.at(k).lower, spec, params));
    ev.bounds_hi_.push_back(FoldedBound::fold(spec.at(k).upper, spec, params));
  }

  // Rank polynomials get the parameters folded in (fewer terms, no
  // runtime parameter powers) and, when small enough, a flat
  // multiply-add form that skips the generic power loop entirely.
  for (int k = 0; k < c; ++k) {
    const Polynomial folded = fold_params(im.rs.prefix_rank[static_cast<size_t>(k)], params);
    ev.prank_.emplace_back(folded, im.slots);
    ev.prank_flat_.push_back(FlatPoly::build(folded, im.slots));
  }
  ev.closed_ = im.roots;

  // Lower every level's recovery into the cheapest exact engine.  The
  // scaled coefficients A_e = D * a_e (D = common denominator) have
  // integer monomial coefficients, so they are integer-valued on integer
  // points and CompiledPoly evaluates them exactly; they feed both the
  // degree-specialized solvers and the Horner correction guard.
  ev.solvers_.resize(static_cast<size_t>(c));
  for (int k = 0; k < c; ++k) {
    CollapsedEval::LevelSolver& sv = ev.solvers_[static_cast<size_t>(k)];
    const LevelFormula& lf = im.levels[static_cast<size_t>(k)];
    sv.kind = planned_solver(lf, k, c);
    if (k == c - 1 || lf.branch < 0) continue;

    sv.branch = lf.branch;
    try {
      i64 den = 1;
      for (const auto& a : lf.coeffs) den = lcm_i64(den, a.denominator_lcm());
      for (const auto& a : lf.coeffs) {
        const Polynomial pe = fold_params(a * Rational(den), params);
        // Flat multiply-add fast path for the guard coefficients (most
        // A_e are low-degree after folding); CompiledPoly stays the
        // exact fallback when the flat form doesn't fit.
        if (sv.scaled.size() < sv.flat.size())
          sv.flat[sv.scaled.size()] = FlatPoly::build(pe, im.slots);
        sv.scaled.emplace_back(pe, im.slots);
      }
    } catch (const OverflowError&) {
      // Scaling left the exact int64 coefficient range; without guard
      // coefficients no specialized solver can run, so this level
      // degrades to exact binary search — and solver_kind() reports it
      // truthfully (solve_level's early exit handles empty scaled).
      sv.scaled.clear();
      sv.flat = {};
      sv.kind = LevelSolverKind::Search;
    }
  }

  std::map<std::string, i64> pv(params.begin(), params.end());
  // Overflow-checked trip count with a structured refusal instead of the
  // raw narrowing error: adversarial parameter magnitudes must produce a
  // diagnostic naming the analyzer code (NRC-W001), never signed-overflow
  // UB or a cryptic conversion message.  eval_i128 is itself checked, so
  // a domain whose *intermediates* leave i128 surfaces the same way.
  try {
    ev.total_ = narrow_i64(im.rs.total.eval_i128(pv));
  } catch (const OverflowError&) {
    throw SpecError(
        "bind: total trip count overflows i64 for these parameters "
        "[NRC-W001 trip-count-overflow]; shrink the parameter magnitudes "
        "or collapse fewer levels");
  }
  if (ev.total_ <= 0)
    throw SpecError("bind: the iteration domain is empty for these parameters");

  // Prove the exact-double guard path: conservative per-slot magnitude
  // bounds (every point the recovery evaluates keeps loop slots inside
  // their clamped level bounds and the pc slot inside [1, total]), then
  // enable plain-double evaluation wherever every intermediate provably
  // stays far below the 2^53 exact-integer limit of double.  Levels
  // whose coefficients and Horner guard all pass run their solves
  // without any 128-bit arithmetic, bit-exact either way.
  {
    double B[kMaxSlots] = {0.0};
    for (size_t s = 0; s < ev.nslots_; ++s)
      B[s] = std::fabs(static_cast<double>(ev.base_[s]));
    B[ev.pc_slot_] = static_cast<double>(ev.total_);
    auto bound_abs = [&](const FoldedBound& b, int level) {
      double v = std::fabs(static_cast<double>(b.cst));
      for (int t = 0; t < b.nterms; ++t) {
        // Level bounds reference outer loop slots only; anything else
        // (malformed spec) poisons the proof instead of under-counting.
        if (b.slot[t] >= level) return 1.0e300;
        v += std::fabs(static_cast<double>(b.coef[t])) * B[b.slot[t]];
      }
      return v;
    };
    for (int k = 0; k < c; ++k)
      B[static_cast<size_t>(k)] =
          std::max(bound_abs(ev.bounds_lo_[static_cast<size_t>(k)], k),
                   bound_abs(ev.bounds_hi_[static_cast<size_t>(k)], k)) +
          2.0;  // margin for the guard's x+1 probes

    for (int k = 0; k < c; ++k) {
      ev.prank_flat_[static_cast<size_t>(k)].enable_f64(B);
      CollapsedEval::LevelSolver& sv = ev.solvers_[static_cast<size_t>(k)];
      const int deg = static_cast<int>(sv.scaled.size()) - 1;
      if (deg < 1) continue;
      bool ok = true;
      double horner = 0.0;
      for (int e = deg; e >= 0; --e) {
        const FlatPoly& f = sv.flat[static_cast<size_t>(e)];
        if (!f.usable()) {
          ok = false;
          break;
        }
        sv.flat[static_cast<size_t>(e)].enable_f64(B);
        if (!f.exact_f64()) {
          ok = false;
          break;
        }
        // Worst-case Horner intermediate |A_deg*t^... + A_e| at |t| <= B_k.
        horner = horner * B[static_cast<size_t>(k)] + f.value_bound(B);
        if (horner >= 1.0e15) {
          ok = false;
          break;
        }
      }
      sv.guards_f64 = ok;
    }
  }
  return ev;
}

i128 CollapsedEval::eval_rank(int k, const i64* pt) const {
  const FlatPoly& f = prank_flat_[static_cast<size_t>(k)];
  if (f.usable()) return f.eval_i128(pt);
  return prank_[static_cast<size_t>(k)].eval_i128(std::span<const i64>(pt, nslots_));
}

i64 CollapsedEval::rank(std::span<const i64> idx) const {
  std::array<i64, kMaxSlots> pt;
  std::memcpy(pt.data(), base_.data(), nslots_ * sizeof(i64));
  for (int k = 0; k < c_; ++k) pt[static_cast<size_t>(k)] = idx[static_cast<size_t>(k)];
  return narrow_i64(eval_rank(c_ - 1, pt.data()));
}

i64 CollapsedEval::search_level(int k, std::span<i64> pt, i64 pc) const {
  const i64 lb = bounds_lo_[static_cast<size_t>(k)].eval(pt.data());
  const i64 ub = bounds_hi_[static_cast<size_t>(k)].eval(pt.data());
  auto rank_at = [&](i64 t) {
    pt[static_cast<size_t>(k)] = t;
    return eval_rank(k, pt.data());
  };
  i64 lo = lb;
  i64 hi = ub - 1;
  if (hi < lo || rank_at(lo) > pc)
    throw SolveError("recover: pc outside the prefix subtree (corrupt state or bad pc)");
  while (lo < hi) {
    const i64 mid = lo + (hi - lo + 1) / 2;
    if (rank_at(mid) <= pc) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  pt[static_cast<size_t>(k)] = lo;
  return lo;
}

/// Correct a floating-point index estimate against the exact level
/// equation.  A(t) = sum A[e] * t^e satisfies A(t) <= 0 iff
/// rank(prefix, t) <= pc, so the boundary test is an O(degree) Horner
/// evaluation instead of a full rank-polynomial evaluation; the solver
/// passes the coefficient values it already evaluated.  False when the
/// estimate was off by more than kMaxCorrection steps.
bool CollapsedEval::try_guard_level(int k, std::span<i64> pt, i64 pc, i64 estimate,
                                    const i128* A, int deg, RecoveryStats* stats,
                                    i64* out) const {
  const i64 lb = bounds_lo_[static_cast<size_t>(k)].eval(pt.data());
  const i64 ub = bounds_hi_[static_cast<size_t>(k)].eval(pt.data());

  i64 x = estimate;
  if (x < lb) x = lb;
  if (x > ub - 1) x = ub - 1;

  auto above = [&](i64 t) {  // A(t) > 0  <=>  rank(prefix, t) > pc
    i128 v = A[deg];
    for (int e = deg - 1; e >= 0; --e) v = checked_add(checked_mul(v, t), A[e]);
    return v > 0;
  };

  int steps = 0;
  while (x > lb && above(x) && steps < kMaxCorrection) {
    --x;
    ++steps;
  }
  while (x < ub - 1 && !above(x + 1) && steps < kMaxCorrection) {
    ++x;
    ++steps;
  }
  if (steps >= kMaxCorrection) return false;  // formula was badly off
  if (stats) ++(steps > 0 ? stats->corrected : stats->closed_form);
  pt[static_cast<size_t>(k)] = x;
  *out = x;
  return true;
}

/// try_guard_level with the Horner boundary test in plain double — only
/// reached when bind() proved (LevelSolver::guards_f64) that every
/// intermediate is an exact integer below 2^53, so the test decides
/// identically to the i128 version.
bool CollapsedEval::try_guard_level_f64(int k, std::span<i64> pt, i64 pc, i64 estimate,
                                        const double* A, int deg,
                                        RecoveryStats* stats, i64* out) const {
  const i64 lb = bounds_lo_[static_cast<size_t>(k)].eval(pt.data());
  const i64 ub = bounds_hi_[static_cast<size_t>(k)].eval(pt.data());

  i64 x = estimate;
  if (x < lb) x = lb;
  if (x > ub - 1) x = ub - 1;

  auto above = [&](i64 t) {  // A(t) > 0  <=>  rank(prefix, t) > pc
    const double td = static_cast<double>(t);
    double v = A[deg];
    for (int e = deg - 1; e >= 0; --e) v = v * td + A[e];
    return v > 0.0;
  };

  int steps = 0;
  while (x > lb && above(x) && steps < kMaxCorrection) {
    --x;
    ++steps;
  }
  while (x < ub - 1 && !above(x + 1) && steps < kMaxCorrection) {
    ++x;
    ++steps;
  }
  if (steps >= kMaxCorrection) return false;  // formula was badly off
  if (stats) ++(steps > 0 ? stats->corrected : stats->closed_form);
  pt[static_cast<size_t>(k)] = x;
  *out = x;
  return true;
}

i64 CollapsedEval::guard_level(int k, std::span<i64> pt, i64 pc, i64 estimate,
                               const i128* A, int deg, RecoveryStats* stats) const {
  i64 out;
  if (try_guard_level(k, pt, pc, estimate, A, deg, stats, &out)) return out;
  const i64 val = search_level(k, pt, pc);
  if (stats) ++stats->fallback;
  return val;
}

i64 CollapsedEval::guard_level_f64(int k, std::span<i64> pt, i64 pc, i64 estimate,
                                   const double* A, int deg,
                                   RecoveryStats* stats) const {
  i64 out;
  if (try_guard_level_f64(k, pt, pc, estimate, A, deg, stats, &out)) return out;
  const i64 val = search_level(k, pt, pc);
  if (stats) ++stats->fallback;
  return val;
}

/// The root formula's value array lives on this function's own frame
/// (noinline keeps it off solve_level's), so evaluating it allocates
/// nothing, even on a thread's first call.
[[gnu::noinline]] bool CollapsedEval::root_value(int k, const i64* pt,
                                                 long double* re) const {
  const CompiledExpr& ce = (*closed_)[static_cast<size_t>(k)];
  if (ce.empty() || ce.size() > static_cast<size_t>(kMaxRootValues)) return false;
  cld values[kMaxRootValues];
  cld z;
  ce.eval({pt, nslots_}, CompiledExpr::kAllSlots, values, {&z, 1});
  if (!std::isfinite(z.real()) || !std::isfinite(z.imag())) return false;
  *re = z.real();
  return true;
}

/// Demoted-quartic path: the Ferrari estimate could not follow the
/// selected branch (or failed its guard), so evaluate the level's root
/// formula in complex arithmetic; the exact guard still decides.  False
/// when no finite estimate exists or the i128 guard overflowed: the
/// caller falls back to exact search.
bool CollapsedEval::quartic_demote(int k, std::span<i64> pt, i64 pc, const i128* A,
                                   const double* Ad, int deg, RecoveryStats* stats,
                                   i64* out) const {
  long double zre = 0.0L;
  if (!root_value(k, pt.data(), &zre) || zre < -9.2e18L || zre > 9.2e18L) return false;
  const i64 est = static_cast<i64>(std::floor(zre + 1e-9L));
  if (Ad) {
    *out = guard_level_f64(k, pt, pc, est, Ad, deg, stats);
    return true;
  }
  try {
    *out = guard_level(k, pt, pc, est, A, deg, stats);
    return true;
  } catch (const OverflowError&) {
    return false;
  }
}

i64 CollapsedEval::solve_level(int k, std::span<i64> pt, i64 pc,
                               RecoveryStats* stats) const {
  const LevelSolver& sv = solvers_[static_cast<size_t>(k)];
  const std::span<const i64> pts(pt.data(), nslots_);

  // No guard coefficients: Search levels, or bind() dropped them on
  // overflow — only exact binary search can recover those.
  const int deg = static_cast<int>(sv.scaled.size()) - 1;
  if (deg < 1) {
    const i64 val = search_level(k, pt, pc);
    if (stats) ++stats->fallback;
    return val;
  }

  // Exact guard coefficients: when bind() proved the exact-double path
  // (guards_f64) they evaluate — and the guard runs — in plain double,
  // with no 128-bit arithmetic anywhere; otherwise checked i128.
  const bool f64 = sv.guards_f64 && f64_guards_;
  try {
    i128 A[5];
    double Ad[5] = {0.0, 0.0, 0.0, 0.0, 0.0};
    if (f64) {
      for (int e = 0; e <= deg; ++e)
        Ad[e] = sv.flat[static_cast<size_t>(e)].eval_f64(pt.data());
    } else {
      for (int e = 0; e <= deg; ++e)
        A[e] = sv.flat[static_cast<size_t>(e)].usable()
                   ? sv.flat[static_cast<size_t>(e)].eval_i128(pt.data())
                   : sv.scaled[static_cast<size_t>(e)].eval_i128(pts);
    }
    auto guard = [&](i64 est) {
      return f64 ? guard_level_f64(k, pt, pc, est, Ad, deg, stats)
                 : guard_level(k, pt, pc, est, A, deg, stats);
    };

    switch (sv.kind) {
      case LevelSolverKind::ExactDivision: {
        // A1 * x + A0 <= 0, A1 > 0:  x = floor(-A0 / A1), exactly (the
        // f64 coefficients are exact integers, so materializing them
        // back into i128 keeps the division exact).
        if (f64) {
          A[0] = static_cast<i128>(Ad[0]);
          A[1] = static_cast<i128>(Ad[1]);
        }
        if (A[1] <= 0) break;  // slope violates the model here: search
        const i64 x = floor_div_i128_to_i64(-A[0], A[1]);
        const i64 lb = bounds_lo_[static_cast<size_t>(k)].eval(pt.data());
        const i64 ub = bounds_hi_[static_cast<size_t>(k)].eval(pt.data());
        if (x < lb || x > ub - 1) break;  // inconsistent pc: search decides
        if (stats) ++stats->closed_form;
        pt[static_cast<size_t>(k)] = x;
        return x;
      }
      case LevelSolverKind::Quadratic: {
        if (f64) {
          const double disc = Ad[1] * Ad[1] - 4.0 * Ad[2] * Ad[0];
          if (disc < 0.0 || Ad[2] == 0.0) break;  // degenerate here: search
          const double s = std::sqrt(disc);
          const double num = sv.branch == 1 ? -Ad[1] - s : -Ad[1] + s;
          const double root = num / (2.0 * Ad[2]);
          if (!index_range_finite(root)) break;
          return guard(static_cast<i64>(std::floor(root + 1e-9)));
        }
        const i128 disc = checked_sub(checked_mul(A[1], A[1]),
                                      checked_mul(checked_mul(4, A[2]), A[0]));
        if (disc < 0 || A[2] == 0) break;  // degenerate here: search
        const long double s = std::sqrt(static_cast<long double>(disc));
        const long double num = sv.branch == 1 ? -static_cast<long double>(A[1]) - s
                                               : -static_cast<long double>(A[1]) + s;
        const long double root = num / (2.0L * static_cast<long double>(A[2]));
        if (!index_range_finite(root)) break;
        return guard(static_cast<i64>(std::floor(root + 1e-9L)));
      }
      case LevelSolverKind::Cubic: {
        i64 est;
        const bool ok = f64 ? cubic_estimate<double>(Ad, sv.branch, &est)
                            : cubic_estimate<long double>(A, sv.branch, &est);
        if (!ok) break;
        return guard(est);
      }
      case LevelSolverKind::Quartic: {
        i64 est;
        i64 out;
        const bool ok =
            !demote_quartics_ &&
            (f64 ? ferrari_estimate<double>(Ad, sv.branch, &est)
                 : ferrari_estimate<long double>(A, sv.branch, &est));
        if (ok) {
          const bool done = f64
                                ? try_guard_level_f64(k, pt, pc, est, Ad, deg, stats, &out)
                                : try_guard_level(k, pt, pc, est, A, deg, stats, &out);
          if (done) return out;
        }
        // Real arithmetic could not follow the branch (complex resolvent
        // root, w == 0 degeneration) or the estimate was badly off:
        // demote this point to the root formula, guard included.
        if (quartic_demote(k, pt, pc, f64 ? nullptr : A, f64 ? Ad : nullptr, deg,
                           stats, &out)) {
          if (stats) ++stats->quartic_demoted;
          return out;
        }
        break;  // no finite estimate anywhere: search
      }
      default:
        break;
    }
  } catch (const OverflowError&) {
    // Exact arithmetic left the checked range (astronomical parameters):
    // binary search below is still exact.
  }
  const i64 val = search_level(k, pt, pc);
  if (stats) ++stats->fallback;
  return val;
}

/// Innermost index is linear with unit slope: i = lb + (pc - R(prefix, lb)),
/// through the proven-exact double stream when bind() established it.
void CollapsedEval::recover_innermost(std::span<i64> pt, std::span<i64> idx, i64 pc) const {
  const int kl = c_ - 1;
  const i64 lb = bounds_lo_[static_cast<size_t>(kl)].eval(pt.data());
  pt[static_cast<size_t>(kl)] = lb;
  const FlatPoly& flat = prank_flat_[static_cast<size_t>(kl)];
  const i64 r0 = f64_guards_ && flat.exact_f64()
                     ? static_cast<i64>(flat.eval_f64(pt.data()))
                     : narrow_i64(eval_rank(kl, pt.data()));
  idx[static_cast<size_t>(kl)] = lb + (pc - r0);
}

void CollapsedEval::recover(i64 pc, std::span<i64> idx, RecoveryStats* stats) const {
  std::array<i64, kMaxSlots> pt;  // only the live slot prefix is copied
  std::memcpy(pt.data(), base_.data(), nslots_ * sizeof(i64));
  pt[pc_slot_] = pc;
  std::span<i64> pts(pt.data(), nslots_);
  for (int k = 0; k + 1 < c_; ++k)
    idx[static_cast<size_t>(k)] = solve_level(k, pts, pc, stats);
  recover_innermost(pts, idx, pc);
}

i64 CollapsedEval::recover_block(i64 pc_lo, i64 n, std::span<i64> out,
                                 RecoveryStats* stats) const {
  if (n <= 0) return 0;
  if (pc_lo < 1 || pc_lo > total_)
    throw SolveError("recover_block: pc_lo outside [1, trip_count()]");
  const i64 m = std::min<i64>(n, total_ - pc_lo + 1);
  const size_t d = static_cast<size_t>(c_);
  if (out.size() < static_cast<size_t>(m) * d)
    throw SpecError("recover_block: output span too small for the requested block");

  i64 filled = 0;
  for_each_row(
      pc_lo, pc_lo + m - 1,
      [&](const i64* idx, i64 j_begin, i64 j_end) {
        for (i64 j = j_begin; j < j_end; ++j) {
          i64* row = out.data() + static_cast<size_t>(filled++) * d;
          std::memcpy(row, idx, d * sizeof(i64));
          row[d - 1] = j;
        }
      },
      stats);
  return filled;
}

bool CollapsedEval::recover_closed_raw(i64 pc, std::span<i64> idx) const {
  std::array<i64, kMaxSlots> pt = base_;
  pt[pc_slot_] = pc;
  for (int k = 0; k + 1 < c_; ++k) {
    long double re = 0.0L;
    if (!root_value(k, pt.data(), &re)) return false;
    const i64 x = static_cast<i64>(std::floor(re + 1e-9L));
    pt[static_cast<size_t>(k)] = x;
    idx[static_cast<size_t>(k)] = x;
  }
  recover_innermost({pt.data(), nslots_}, idx, pc);
  return true;
}

void CollapsedEval::recover_search(i64 pc, std::span<i64> idx) const {
  std::array<i64, kMaxSlots> pt;
  std::memcpy(pt.data(), base_.data(), nslots_ * sizeof(i64));
  pt[pc_slot_] = pc;
  std::span<i64> pts(pt.data(), nslots_);
  for (int k = 0; k < c_; ++k) idx[static_cast<size_t>(k)] = search_level(k, pts, pc);
}

bool CollapsedEval::increment(std::span<i64> idx) const {
  int k = c_ - 1;
  ++idx[static_cast<size_t>(k)];
  while (idx[static_cast<size_t>(k)] >= bounds_hi_[static_cast<size_t>(k)].eval(idx.data())) {
    if (k == 0) return false;
    --k;
    ++idx[static_cast<size_t>(k)];
  }
  for (int q = k + 1; q < c_; ++q)
    idx[static_cast<size_t>(q)] = bounds_lo_[static_cast<size_t>(q)].eval(idx.data());
  return true;
}

bool CollapsedEval::advance(std::span<i64> idx, i64 n) const {
  while (n > 0) {
    const i64 left = row_extent(idx) - 1;  // steps that stay in this row
    if (n <= left) {
      idx[static_cast<size_t>(c_ - 1)] += n;
      return true;
    }
    idx[static_cast<size_t>(c_ - 1)] += left;
    n -= left + 1;
    if (!increment(idx)) return false;
  }
  return true;
}

void CollapsedEval::first(std::span<i64> idx) const {
  for (int k = 0; k < c_; ++k)
    idx[static_cast<size_t>(k)] = bounds_lo_[static_cast<size_t>(k)].eval(idx.data());
}

void CollapsedEval::last(std::span<i64> idx) const {
  for (int k = 0; k < c_; ++k)
    idx[static_cast<size_t>(k)] = bounds_hi_[static_cast<size_t>(k)].eval(idx.data()) - 1;
}

}  // namespace nrc
