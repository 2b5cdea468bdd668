#pragma once
// The collapsing transformation: public entry point of the library.
//
// Usage:
//   NestSpec nest;                                  // triangular example
//   nest.param("N")
//       .loop("i", aff::c(0), aff::v("N") - 1)
//       .loop("j", aff::v("i") + 1, aff::v("N"));
//   Collapsed col = collapse(nest);                 // symbolic, once
//   CollapsedEval cn = col.bind({{"N", 5000}});     // per parameter set
//   // cn.trip_count(), cn.recover(pc, idx), cn.increment(idx), ...
//
// `Collapsed` holds the symbolic artifacts (ranking polynomial, level
// equations) and is what the code generator consumes; `CollapsedEval` is the allocation-free runtime evaluator the
// OpenMP execution schemes are built on.
//
// bind() lowers every level's recovery into the cheapest engine that is
// exact for it:
//   * degree-1 levels solve by one exact integer floor-division,
//   * degree-2 levels by the guarded quadratic formula on exactly
//     evaluated integer coefficients,
//   * degree-3 levels by the guarded real-arithmetic Cardano/Viete,
//   * degree-4 levels by the guarded real-arithmetic Ferrari (resolvent
//     through the same Cardano path),
//   * levels without a usable formula by exact binary search.
// Each closed form keeps the real root that lies in the level's range
// [lb, ub] (core/real_solvers.hpp); a point with no such root falls
// to exact binary search.  Every floating-point estimate is corrected
// against the exact integer level equation, so recover() never returns
// a wrong tuple.

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/flat_poly.hpp"
#include "core/folded_bound.hpp"
#include "core/ranking.hpp"
#include "core/runtime_limits.hpp"
#include "core/unrank_closed.hpp"
#include "polyhedral/domain.hpp"
#include "math/polynomial.hpp"

namespace nrc {

struct CollapseOptions {
  /// Build closed-form recoveries (paper §IV).  When false, recovery
  /// always uses exact binary search.
  bool build_closed_form = true;
  /// Maximum level-equation degree inverted in closed form (paper limit: 4).
  int max_closed_degree = 4;
  /// Parameter values at which collapse() checks that no loop range is
  /// empty (the model the ranking polynomial needs); empty: the uniform
  /// values 6, 8, 5, 7, ... 64, any one of which may pass.  It decides
  /// only whether the nest is accepted, never the plan, so the plan
  /// cache does not key on it.
  ParamMap model_params;
};

class CollapsedEval;

/// Symbolic result of collapsing a nest.  Immutable; cheap to copy
/// (shared state).  Thread-safe for concurrent reads.
class Collapsed {
 public:
  const NestSpec& nest() const;
  const RankingSystem& ranking() const;

  /// Per-level closed-form info (degree, coefficients).
  /// levels().size() == nest().depth().
  const std::vector<LevelFormula>& levels() const;

  /// True when every level has a usable closed-form recovery.
  bool fully_closed_form() const;

  /// Runtime slot layout: loop vars, then params, then "pc".
  const std::vector<std::string>& slot_order() const;

  /// Bind concrete parameter values, producing the runtime evaluator.
  /// Throws SpecError if a parameter is missing or the domain is empty,
  /// and OverflowError where the slot-magnitude bounds cannot show that
  /// the rank evaluations recovery needs stay inside i128 (a far shift
  /// of a deep nest: its expanded rank terms grow with the shift to the
  /// depth's power, so every recover() there would throw).
  ///
  /// Re-binding the same parameters on the same Collapsed (an evicted
  /// cache entry rebuilt, a deserialized plan re-bound, a warm_start)
  /// returns a copy of the memoized evaluator instead of re-folding
  /// bounds, rebuilding FlatPoly layouts and re-running the f64-guard
  /// proof (the memo stores the pristine evaluator; the per-instance
  /// settings of a returned copy do not reach it).  Thread-safe.
  CollapsedEval bind(const ParamMap& params) const;

  /// How many bind() calls were served from the parameter memo (the
  /// FlatPoly-reuse fast path) over this Collapsed's lifetime.
  size_t bind_reuses() const;

  /// Human-readable report: ranking polynomial, trip count, per-level
  /// equation coefficients and the solver each level lowers to at bind
  /// time.  Rendered once per symbolic artifact (on first call) and
  /// shared by every copy of this Collapsed.
  std::string describe() const;

 private:
  friend Collapsed collapse(const NestSpec&, const CollapseOptions&);
  CollapsedEval bind_fresh(const ParamMap& params) const;
  struct Impl;
  std::shared_ptr<const Impl> impl_;
};

/// Collapse all loops of `nest` (the caller passes nest.outer(c) to
/// collapse only the outermost c loops of a deeper nest).
Collapsed collapse(const NestSpec& nest, const CollapseOptions& opts = {});

/// Per-recovery observability counters (optional; pass to recover()).
/// Plain integers: keep one instance per thread and merge.
struct RecoveryStats {
  i64 closed_form = 0;  ///< levels recovered by the closed form directly
  i64 corrected = 0;    ///< levels where the integer guard moved the index
  i64 fallback = 0;     ///< levels recovered by exact binary search
  i64 levels() const { return closed_form + corrected + fallback; }
  RecoveryStats& operator+=(const RecoveryStats& o) {
    closed_form += o.closed_form;
    corrected += o.corrected;
    fallback += o.fallback;
    return *this;
  }
};

/// The engine a level's recovery lowered to at bind() time.
enum class LevelSolverKind {
  InnermostLinear,  ///< innermost level: lb + (pc - rank(prefix, lb))
  ExactDivision,    ///< degree 1: one exact integer floor-division
  Quadratic,        ///< degree 2: guarded quadratic formula
  Cubic,            ///< degree 3: guarded real-arithmetic Cardano/Viete
  Quartic,          ///< degree 4: guarded real-arithmetic Ferrari
  Search,           ///< no usable formula: exact binary search
};

const char* level_solver_kind_name(LevelSolverKind k);

/// Allocation-free runtime evaluator bound to concrete parameters.
/// All methods are const and thread-safe.
class CollapsedEval {
 public:
  int depth() const { return c_; }
  i64 trip_count() const { return total_; }
  const ParamMap& params() const { return params_; }
  bool has_closed_form(int level) const { return solver_kind(level) != LevelSolverKind::Search; }
  /// The engine recover() uses for `level`.
  LevelSolverKind solver_kind(int level) const {
    return solvers_[static_cast<size_t>(level)].kind;
  }

  /// Unified guard policy toggle.  bind() proves, per level and for the
  /// rank prefixes, whether every guard/coefficient intermediate stays
  /// an exact integer below 2^53 for points of this domain; proven
  /// levels evaluate coefficients and run the Horner correction guard in
  /// plain double — bit-identical to the checked-__int128 reference.
  /// set_f64_guards(false) forces the i128 reference path
  /// everywhere (tests / ablation); levels that fail the proof use it
  /// regardless.
  void set_f64_guards(bool on) { f64_guards_ = on; }
  bool f64_guards() const { return f64_guards_; }

  /// True when bind() proved the exact-double guard path for `level`.
  bool guards_provably_f64(int level) const {
    return solvers_[static_cast<size_t>(level)].guards_f64;
  }

  /// Exact 1-based rank of an iteration tuple.
  i64 rank(std::span<const i64> idx) const;

  /// Recover the iteration tuple of rank pc (1 <= pc <= trip_count()):
  /// degree-specialized closed forms guarded by exact integer
  /// correction, with binary search as fallback.  Never returns a wrong
  /// tuple.  `stats`, when non-null, accumulates which path each level
  /// took.  Zero heap allocation.
  void recover(i64 pc, std::span<i64> idx, RecoveryStats* stats = nullptr) const;

  /// Batched recovery: fill `out` (row-major, n rows of depth() values)
  /// with the tuples of pc_lo, pc_lo+1, ..., clipped at trip_count().
  /// One full multi-level solve for pc_lo; the remaining rows reuse the
  /// solved prefix and advance by row arithmetic (no per-row solves, no
  /// per-iteration bound evaluation).  Returns the number of rows
  /// actually produced.  Zero heap allocation.
  i64 recover_block(i64 pc_lo, i64 n, std::span<i64> out,
                    RecoveryStats* stats = nullptr) const;

  /// Closed-form recovery *without* the correction guard (ablation /
  /// tests): each level's interval-selected root estimate, floored.
  /// Returns false if any level lacks a formula or has no root in its
  /// range; idx is then unspecified.
  bool recover_closed_raw(i64 pc, std::span<i64> idx) const;

  /// Exact binary-search recovery (no floating point).
  void recover_search(i64 pc, std::span<i64> idx) const;

  /// Advance to the lexicographic successor; false after the last tuple.
  bool increment(std::span<i64> idx) const;

  /// Number of consecutive pcs remaining in idx's innermost row,
  /// counting idx itself (always >= 1 for a valid tuple).
  i64 row_extent(std::span<const i64> idx) const {
    return bounds_hi_[static_cast<size_t>(c_ - 1)].eval(idx.data()) -
           idx[static_cast<size_t>(c_ - 1)];
  }

  /// Advance idx by n positions in collapsed order using row arithmetic
  /// (bounds are evaluated once per crossed row, not once per step).
  /// False when the walk leaves the domain.
  bool advance(std::span<i64> idx, i64 n) const;

  /// Row-wise walk of the pc range [lo, hi] (1-based, inclusive): one
  /// full recover() at lo, then one fn(idx, j_begin, j_end) call per
  /// maximal innermost run, with bounds evaluated once per crossed row.
  /// `idx` is the walker's working tuple (depth() values, innermost ==
  /// j_begin on entry); fn may overwrite idx[depth()-1] with values in
  /// [j_begin, j_end) and must leave the other slots alone.  This is the
  /// single row-arithmetic primitive behind recover_block() and every
  /// range scheme's walk (tuple, segment and lane-block).  The caller must keep lo within
  /// [1, trip_count()] (recover() throws otherwise); a hi beyond
  /// trip_count() is silently clipped at the last tuple — pre-clip (as
  /// recover_block does) when the shortfall matters.
  template <class RowFn>
  void for_each_row(i64 lo, i64 hi, RowFn&& fn, RecoveryStats* stats = nullptr) const {
    i64 idx[kMaxDepth];
    recover(lo, {idx, static_cast<size_t>(c_)}, stats);
    walk_rows({idx, static_cast<size_t>(c_)}, lo, hi, static_cast<RowFn&&>(fn));
  }

  void first(std::span<i64> idx) const;
  void last(std::span<i64> idx) const;

  i64 lower_bound(int level, std::span<const i64> idx) const {
    return bounds_lo_[static_cast<size_t>(level)].eval(idx.data());
  }
  i64 upper_bound(int level, std::span<const i64> idx) const {
    return bounds_hi_[static_cast<size_t>(level)].eval(idx.data());
  }

 private:
  friend class Collapsed;
  CollapsedEval() = default;

  using Bound = FoldedBound;

  /// One level's bound recovery engine (see LevelSolverKind).  The
  /// integer-scaled level-equation coefficients A_e = D * a_e (D the
  /// common denominator) drive both the specialized solvers and the O(1)
  /// Horner correction guard: A(t) <= 0  <=>  rank(prefix, t) <= pc.
  struct LevelSolver {
    LevelSolverKind kind = LevelSolverKind::Search;
    std::vector<CompiledPoly> scaled;  ///< A_0..A_deg, exact integer-valued,
                                       ///< parameters pre-folded
    std::array<FlatPoly, 5> flat{};    ///< flat multiply-add forms of the
                                       ///< low-degree A_e (else unusable)
    bool guards_f64 = false;           ///< coefficients and guard may run in
                                       ///< proven-exact double (all engines)
  };

  /// for_each_row's walk from `idx`, the already-recovered tuple of
  /// rank `pc` (the walker's scratch, clobbered by the walk).
  template <class RowFn>
  void walk_rows(std::span<i64> idx, i64 pc, i64 hi, RowFn&& fn) const {
    const size_t d = static_cast<size_t>(c_);
    while (pc <= hi) {
      const i64 row_last_pc = pc + row_extent(idx) - 1;
      const i64 seg_last_pc = std::min(hi, row_last_pc);
      const i64 j_begin = idx[d - 1];
      const i64 j_end = j_begin + (seg_last_pc - pc) + 1;
      fn(idx.data(), j_begin, j_end);
      pc = seg_last_pc + 1;
      if (pc > hi) break;
      // The run ended exactly at a row end (a mid-row cut implies
      // seg_last_pc == hi); one odometer step from the row's last point
      // lands on the next row's first point.
      idx[d - 1] = j_end - 1;
      if (!increment(idx)) break;
    }
  }

  /// Exact binary search for level k's index; pt[k] is left at it.
  i64 search_level(int k, std::span<i64> pt, i64 pc) const;
  /// Level k's index by closed form, else exact search (a fallback).
  i64 solve_level(int k, std::span<i64> pt, i64 pc, RecoveryStats* stats) const;
  /// Level k's closed form behind the exact guard: true with pt[k] set
  /// to the index, false where only search can decide (no root in
  /// range, a degenerate point, a guard miss past kMaxCorrection steps,
  /// or exact arithmetic leaving the checked range).
  bool closed_level(int k, std::span<i64> pt, RecoveryStats* stats) const;
  /// Correct `estimate` against the exact level equation A (Horner in
  /// TA: i128 checked, or double on proven-exact levels); false when it
  /// is off by more than kMaxCorrection.
  template <class TA>
  bool guard_level(int k, std::span<i64> pt, i64 estimate, i64 lb, i64 ub, const TA* A, int deg,
                   RecoveryStats* stats) const;
  /// Level k's root estimate from the evaluated coefficients, selected
  /// by the level range [lb, ub); false when no root lies there.
  template <class F, class TA>
  bool estimate_level(int k, const TA* A, i64 lb, i64 ub, i64* est) const;
  void recover_innermost(std::span<i64> pt, std::span<i64> idx, i64 pc) const;
  /// Exact rank-prefix evaluation through the flat form when available.
  i128 eval_rank(int k, const i64* pt) const;
  int c_ = 0;
  size_t nslots_ = 0;
  size_t pc_slot_ = 0;
  i64 total_ = 0;
  ParamMap params_;
  std::array<i64, kMaxSlots> base_{};  // params pre-filled, rest zero
  std::vector<Bound> bounds_lo_, bounds_hi_;
  std::vector<CompiledPoly> prank_;        // per level, parameters pre-folded
  std::vector<FlatPoly> prank_flat_;       // flat forms of prank_ (else unusable)
  std::vector<LevelSolver> solvers_;   // per level
  bool f64_guards_ = true;             // see set_f64_guards()
  static constexpr int kMaxCorrection = 16;
};

}  // namespace nrc
