#pragma once
// CollapsePlan: the whole analyze-once pipeline as one reusable object.
//
// The library's front-to-back flow is
//
//   NestSpec  --collapse()-->  Collapsed  --bind(params)-->  CollapsedEval
//
// where collapse() does the symbolic work (ranking polynomials, level
// formulas) and bind() the per-domain lowering
// (parameter folding, solver selection, the f64-guard proof).  A
// CollapsePlan captures one full traversal of that pipeline — the nest,
// the CollapseOptions, the symbolic Collapsed and the bound evaluator —
// as a single immutable, thread-safe value that can be executed, cached
// (pipeline/plan_cache.hpp) and re-dispatched arbitrarily often:
//
//   auto plan = CollapsePlan::build(nest, {{"N", 5000}});
//   nrc::run(*plan, Schedule::auto_select(plan->eval()), body);
//
// Immutability contract: the stored CollapsedEval is exposed const-only
// and never has its mutable tuning hook (set_f64_guards) touched, so every const method is safe to call from any
// number of threads concurrently — the property the concurrent plan
// cache relies on to hand one plan to many threads.

#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/collapse.hpp"
#include "pipeline/dispatch.hpp"
#include "pipeline/schedule.hpp"

namespace nrc {

struct NestCertificate;
class JitKernel;

class CollapsePlan : public std::enable_shared_from_this<CollapsePlan> {
 public:
  /// Run the pipeline end to end: collapse(nest, opts) + bind(params).
  /// Throws as collapse()/bind() throw (model violations, missing
  /// parameters, empty domains).  Returned by shared_ptr because the
  /// plan cache and every consumer share ownership of one immutable
  /// instance.
  static std::shared_ptr<const CollapsePlan> build(const NestSpec& nest,
                                                   const ParamMap& params,
                                                   const CollapseOptions& opts = {});

  const NestSpec& nest() const { return col_.nest(); }
  const Collapsed& collapsed() const { return col_; }
  const CollapsedEval& eval() const { return eval_; }
  const ParamMap& params() const { return eval_.params(); }
  const CollapseOptions& options() const { return opts_; }

  /// The per-level recovery engines bind() chose (outermost first).
  std::vector<LevelSolverKind> solver_kinds() const;

  /// Schedule::auto_select over this plan's bound evaluator.
  Schedule auto_schedule(const AutoSelectHints& hints = {}) const {
    return Schedule::auto_select(eval_, hints);
  }

  /// This plan as a runtime-compiled specialized kernel, built (or
  /// fetched) through the process-global KernelCache — the JIT front
  /// door (jit/jit_kernel.hpp).  Never throws for toolchain or plan
  /// reasons: when no compiler is available, the compile fails, or the
  /// analyzer certificate is error-severity, the returned kernel is a
  /// fallback whose run()/fill() route through the library dispatcher
  /// (kernel->compiled() reports which).  Defined in
  /// jit/kernel_cache.cpp.
  std::shared_ptr<const JitKernel> jit(const Schedule& s) const;
  /// jit(auto_schedule()).
  std::shared_ptr<const JitKernel> jit() const;

  /// Static certificate for this plan: interval-propagated verdicts
  /// (trip-count i64 safety, proven-exact f64 recovery, emitted-C
  /// coefficient range) plus structured diagnostics.  Computed on the
  /// first call and kept: the plan is immutable, so describe(), the
  /// lint verb and the JIT all reuse the one certificate (copy it to
  /// add diagnostics).  Defined in analysis/nest_analyzer.cpp; include
  /// analysis/nest_analyzer.hpp for the NestCertificate definition.
  const NestCertificate& analyze() const;

  /// analyze().str(), rendered once together with the certificate
  /// (describe() and the lint verb print it on every request).
  const std::string& certificate_text() const;

  /// The symbolic report plus the pipeline lines: the bound parameters,
  /// the auto-selected schedule, the JIT kernel state for that
  /// schedule, the static certificate, and — for plans built through a
  /// PlanCache — that cache's hit/miss/eviction counters.  The symbolic
  /// report (Collapsed::describe, shared by every plan of the structure)
  /// and the certificate are computed once; the schedule line (it
  /// follows omp_get_max_threads()), the jit line (kernel-cache state)
  /// and the cache-stats line are rendered on every call.
  std::string describe() const;

  /// Serialize everything needed to rebuild this plan bit-identically —
  /// the nest (rendered through the DSL), the CollapseOptions, the
  /// bound parameters and the per-level solver kinds bind() chose (an
  /// integrity record: deserialize() re-derives them and rejects a
  /// mismatch) — as a self-delimiting text block.  Plans are pure
  /// values, so rebuild-from-record is exact; serialize() is stable
  /// (serialize(deserialize(s)) == s).  Rendered on the first call and
  /// kept, like certificate_text(): the KernelCache keys every jit
  /// lookup on it.  Implemented in serve/serialization.cpp.
  void serialize(std::ostream& os) const;
  const std::string& serialize() const;

  /// Rebuild a plan from one serialize() block: parse, collapse, bind,
  /// then verify the recorded per-level solver kinds match what this
  /// build chose (throws SpecError on mismatch, ParseError on a
  /// malformed block).
  static std::shared_ptr<const CollapsePlan> deserialize(std::istream& is);
  static std::shared_ptr<const CollapsePlan> deserialize(const std::string& s);

 private:
  friend class PlanCache;
  CollapsePlan(Collapsed col, CollapsedEval eval, CollapseOptions opts)
      : col_(std::move(col)), eval_(std::move(eval)), opts_(std::move(opts)) {}

  Collapsed col_;
  CollapsedEval eval_;
  CollapseOptions opts_;
  /// analyze()'s memo (shared_ptr: NestCertificate is incomplete here)
  /// and its rendering, both set under cert_once_.
  mutable std::once_flag cert_once_;
  mutable std::shared_ptr<const NestCertificate> cert_;
  mutable std::string cert_text_;
  /// serialize()'s record, set under record_once_.
  mutable std::once_flag record_once_;
  mutable std::string record_;
  /// The building cache's state, tracked weakly: plans share ownership
  /// and routinely outlive the cache (eviction hands the last reference
  /// to the holder), so describe() prints the cache-stats line only
  /// while the cache is still alive — never a dangling access.
  std::weak_ptr<const struct PlanCacheState> origin_;
};

/// One-line stats rendering over a cache's internal state (defined in
/// plan_cache.cpp; used by CollapsePlan::describe and
/// PlanCache::stats_line).
std::string plan_cache_state_stats_line(const PlanCacheState& state);

/// Dispatcher overload on a plan: run(plan, schedule, body) — the
/// pipeline's one execution front door.
template <class Body>
void run(const CollapsePlan& plan, const Schedule& s, Body&& body) {
  run(plan.eval(), s, static_cast<Body&&>(body));
}

}  // namespace nrc
