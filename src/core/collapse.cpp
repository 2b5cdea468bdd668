#include "core/collapse.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <list>
#include <mutex>
#include <type_traits>

#include "core/real_solvers.hpp"
#include "support/error.hpp"

namespace nrc {

namespace {

/// Floor division of exact 128-bit values, narrowed to the index range.
i64 floor_div_i128_to_i64(i128 a, i128 b) {
  i128 q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return narrow_i64(q);
}

/// Throw when the nest breaks the empty-range model at the given
/// parameter values, or (none given) at every small uniform size: its
/// ranking polynomial then counts no domain correctly.  Each walk stops
/// after kModelCheckPoints points, so a size whose walk ends unbroken
/// there passes the nest.
void check_model(const NestSpec& nest, const ParamMap& given) {
  constexpr i64 kModelCheckPoints = 4096;
  if (!given.empty() || nest.params().empty()) {
    if (has_no_empty_ranges(nest, given, kModelCheckPoints)) return;
  } else {
    for (i64 v : {6, 8, 5, 7, 10, 12, 4, 16, 3, 24, 32, 2, 48, 64}) {
      ParamMap params;
      for (const auto& p : nest.params()) params[p] = v;
      if (has_no_empty_ranges(nest, params, kModelCheckPoints)) return;
    }
  }
  throw SolveError(
      "collapse: the nest has an empty loop range at every sampled parameter size; "
      "its ranking polynomial would be wrong (the model needs non-empty ranges)");
}

/// Static classification of the solver bind() will pick for a level.
LevelSolverKind planned_solver(const LevelFormula& lf, int level, int depth) {
  if (level == depth - 1) return LevelSolverKind::InnermostLinear;
  if (lf.coeffs.empty()) return LevelSolverKind::Search;
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

  // Parameter-keyed bind memo: re-binding the same parameters (cache
  // eviction rebuilds, deserialized plans, warm starts) copies the
  // memoized pristine evaluator — sharing nothing mutable, FlatPoly
  // layouts and the f64-guard proof included — instead of redoing the
  // lowering.  Small and linearly scanned; LRU beyond capacity.
  static constexpr size_t kBindMemoCapacity = 8;
  mutable std::mutex bind_mu;
  mutable std::list<std::pair<ParamMap, std::shared_ptr<const CollapsedEval>>> bind_memo;
  mutable size_t bind_reuses = 0;

  // describe()'s text, rendered on first use: the artifact is immutable,
  // and every plan bound from it shares the one copy.
  mutable std::once_flag describe_once;
  mutable std::string describe_text;

  std::string render_describe() const;
};

const NestSpec& Collapsed::nest() const { return impl_->rs.nest; }
const RankingSystem& Collapsed::ranking() const { return impl_->rs; }
const std::vector<LevelFormula>& Collapsed::levels() const { return impl_->levels; }
const std::vector<std::string>& Collapsed::slot_order() const { return impl_->slots; }

bool Collapsed::fully_closed_form() const {
  for (const auto& lf : impl_->levels)
    if (lf.coeffs.empty()) return false;
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
  check_model(nest, opts.model_params);

  // Without closed forms the degrees still get computed, so describe()
  // and codegen stay useful.
  impl->levels =
      build_level_formulas(impl->rs, opts.build_closed_form ? opts.max_closed_degree : 0);

  Collapsed col;
  col.impl_ = std::move(impl);
  return col;
}

std::string Collapsed::describe() const {
  std::call_once(impl_->describe_once,
                 [im = impl_.get()] { im->describe_text = im->render_describe(); });
  return impl_->describe_text;
}

std::string Collapsed::Impl::render_describe() const {
  std::string s;
  s += "collapsed nest:\n" + rs.nest.str();
  s += "ranking polynomial r = " + rs.rank.str() + "\n";
  s += "trip count = " + rs.total.str() + "\n";
  const int c = rs.nest.depth();
  for (int k = 0; k < c; ++k) {
    const LevelFormula& lf = levels[static_cast<size_t>(k)];
    const Loop& loop = rs.nest.at(k);
    s += "level " + std::to_string(k) + " (" + loop.var + "): degree " +
         std::to_string(lf.degree);
    if (lf.coeffs.empty()) {
      s += ", recovered by exact binary search\n";
    } else {
      // The level equation sum_e a_e * x^e = rank(prefix, x) - pc; the
      // solver keeps its root in the level's range.
      s += ", root in [" + loop.lower.str() + ", " + loop.upper.str() + ")\n";
      for (size_t e = lf.coeffs.size(); e-- > 0;)
        s += "    a" + std::to_string(e) + " = " + lf.coeffs[e].str() + "\n";
    }
    s += "    lowered solver: " + std::string(level_solver_kind_name(planned_solver(lf, k, c))) +
         "\n";
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
    if (k == c - 1 || lf.coeffs.empty()) continue;

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

    // Every recovery evaluates rank prefixes exactly, in checked i128
    // (the innermost level, and search wherever a closed form gives
    // up).  Where those evaluations are not proven to fit, refuse the
    // domain here rather than bind a plan whose recover() would throw.
    for (int k = 0; k < c; ++k) {
      const double worst = ev.prank_[static_cast<size_t>(k)].value_bound(B);
      if (worst >= 0x1p127)
        throw OverflowError("bind: the rank evaluation of level " + std::to_string(k) +
                            " can leave the i128 range for these parameters (terms up to ~10^" +
                            std::to_string(static_cast<int>(std::log10(worst))) +
                            "); shrink the parameter magnitudes or offsets");
    }

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
/// passes the coefficient values it already evaluated.  The double
/// Horner only runs where bind() proved (LevelSolver::guards_f64) that
/// every intermediate is an exact integer below 2^53, so it decides
/// identically to the checked i128 one.
template <class TA>
bool CollapsedEval::guard_level(int k, std::span<i64> pt, i64 estimate, i64 lb, i64 ub,
                                const TA* A, int deg, RecoveryStats* stats) const {
  i64 x = estimate;
  if (x < lb) x = lb;
  if (x > ub - 1) x = ub - 1;

  auto above = [&](i64 t) {  // A(t) > 0  <=>  rank(prefix, t) > pc
    TA v = A[deg];
    for (int e = deg - 1; e >= 0; --e) {
      if constexpr (std::is_same_v<TA, double>)
        v = v * static_cast<double>(t) + A[e];
      else
        v = checked_add(checked_mul(v, t), A[e]);
    }
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
  if (steps >= kMaxCorrection) return false;  // the estimate was badly off
  if (stats) ++(steps > 0 ? stats->corrected : stats->closed_form);
  pt[static_cast<size_t>(k)] = x;
  return true;
}

template <class F, class TA>
bool CollapsedEval::estimate_level(int k, const TA* A, i64 lb, i64 ub, i64* est) const {
  switch (solvers_[static_cast<size_t>(k)].kind) {
    case LevelSolverKind::Quadratic:
      return quadratic_estimate<F>(A, lb, ub, est);
    case LevelSolverKind::Cubic:
      return cubic_estimate<F>(A, lb, ub, est);
    case LevelSolverKind::Quartic:
      return ferrari_estimate<F>(A, lb, ub, est);
    default:
      return false;
  }
}

bool CollapsedEval::closed_level(int k, std::span<i64> pt, RecoveryStats* stats) const {
  const LevelSolver& sv = solvers_[static_cast<size_t>(k)];
  const int deg = static_cast<int>(sv.scaled.size()) - 1;
  if (deg < 1) return false;  // a Search level, or bind() dropped the guard on overflow

  // Exact guard coefficients: when bind() proved the exact-double path
  // (guards_f64) they evaluate — and the guard runs — in plain double,
  // with no 128-bit arithmetic anywhere; otherwise checked i128.
  try {
    const i64 lb = bounds_lo_[static_cast<size_t>(k)].eval(pt.data());
    const i64 ub = bounds_hi_[static_cast<size_t>(k)].eval(pt.data());
    i128 A[5];
    i64 est;
    if (sv.guards_f64 && f64_guards_) {
      double Ad[5];
      for (int e = 0; e <= deg; ++e)
        Ad[e] = sv.flat[static_cast<size_t>(e)].eval_f64(pt.data());
      if (sv.kind != LevelSolverKind::ExactDivision)
        return estimate_level<double>(k, Ad, lb, ub, &est) &&
               guard_level(k, pt, est, lb, ub, Ad, deg, stats);
      // The f64 coefficients are exact integers, so materializing them
      // back into i128 keeps the division below exact.
      A[0] = static_cast<i128>(Ad[0]);
      A[1] = static_cast<i128>(Ad[1]);
    } else {
      const std::span<const i64> pts(pt.data(), nslots_);
      for (int e = 0; e <= deg; ++e)
        A[e] = sv.flat[static_cast<size_t>(e)].usable()
                   ? sv.flat[static_cast<size_t>(e)].eval_i128(pt.data())
                   : sv.scaled[static_cast<size_t>(e)].eval_i128(pts);
      if (sv.kind != LevelSolverKind::ExactDivision)
        return estimate_level<long double>(k, A, lb, ub, &est) &&
               guard_level(k, pt, est, lb, ub, A, deg, stats);
    }
    // A1 * x + A0 <= 0, A1 > 0:  x = floor(-A0 / A1), exactly.
    if (A[1] > 0) {
      const i64 x = floor_div_i128_to_i64(-A[0], A[1]);
      if (x >= lb && x <= ub - 1) {
        if (stats) ++stats->closed_form;
        pt[static_cast<size_t>(k)] = x;
        return true;
      }
    }
    // A slope that violates the model here, or an inconsistent pc.
  } catch (const OverflowError&) {
    // Exact arithmetic left the checked range (astronomical parameters).
  }
  return false;
}

i64 CollapsedEval::solve_level(int k, std::span<i64> pt, i64 pc,
                               RecoveryStats* stats) const {
  if (closed_level(k, pt, stats)) return pt[static_cast<size_t>(k)];
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
  const std::span<const i64> pts(pt.data(), nslots_);
  try {
    for (int k = 0; k + 1 < c_; ++k) {
      const LevelSolver& sv = solvers_[static_cast<size_t>(k)];
      const int deg = static_cast<int>(sv.scaled.size()) - 1;
      if (deg < 1) return false;
      i128 A[5];
      for (int e = 0; e <= deg; ++e) A[e] = sv.scaled[static_cast<size_t>(e)].eval_i128(pts);
      i64 x;
      if (sv.kind == LevelSolverKind::ExactDivision) {
        if (A[1] <= 0) return false;
        x = floor_div_i128_to_i64(-A[0], A[1]);
      } else if (!estimate_level<long double>(k, A, bounds_lo_[static_cast<size_t>(k)].eval(pt.data()),
                                              bounds_hi_[static_cast<size_t>(k)].eval(pt.data()),
                                              &x)) {
        return false;
      }
      pt[static_cast<size_t>(k)] = x;
      idx[static_cast<size_t>(k)] = x;
    }
  } catch (const OverflowError&) {
    return false;
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
