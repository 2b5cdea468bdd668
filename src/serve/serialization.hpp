#pragma once
// Plan serialization: the persistence half of the serving layer.
//
// A CollapsePlan is a pure value of (nest, CollapseOptions, params) —
// everything else (ranking polynomials, level formulas, FlatPoly
// layouts, the f64-guard proof) is deterministically re-derivable.  So
// a plan serializes as a small self-delimiting text record of exactly
// those inputs, plus the per-level solver kinds bind() chose as an
// integrity check: deserialization re-runs the pipeline and rejects a
// record whose recorded lowering no longer matches (corruption, or a
// snapshot taken by a build that lowers differently).
//
//   nrcplan 1
//   opts build_closed_form=1 max_closed_degree=4
//   model N=3                      (0+ lines; CollapseOptions::model_params)
//   param N=2000                   (0+ lines; the bound parameters)
//   solvers guarded-quadratic innermost-linear
//   nest
//   name plan                      (render_nest_program of the nest,
//   params N                        body empty — every nest the library
//   loop i = 0 .. N-1               accepts round-trips through the DSL)
//   loop j = i+1 .. N
//   body {
//   }
//   endplan
//
// Records concatenate into a stream: PlanCache::snapshot() writes one
// per cached plan and PlanCache::warm_start() replays them through the
// normal get() path, which lands them in the symbolic table and the
// Collapsed bind memo — a restarted server rebuilds its working set
// without paying a single cold symbolic build twice.
//
// The CollapsePlan::serialize/deserialize and PlanCache::snapshot/
// warm_start members declared in pipeline/ are implemented here.

#include <iosfwd>
#include <vector>

#include "core/collapse.hpp"
#include "polyhedral/nest.hpp"

namespace nrc::serve {

/// Format version written/accepted by this build.
inline constexpr int kPlanFormatVersion = 1;

/// One parsed serialization record — the rebuild inputs plus the
/// recorded lowering.
struct PlanRecord {
  NestSpec nest;
  ParamMap params;
  CollapseOptions opts;
  std::vector<LevelSolverKind> solvers;  ///< outermost first
};

/// Read the next record from `is`.  Returns false on a clean
/// end-of-stream (only blank lines remained); throws ParseError on a
/// malformed record.
bool read_plan_record(std::istream& is, PlanRecord& out);

/// Inverse of level_solver_kind_name(); throws ParseError on an
/// unknown name.
LevelSolverKind level_solver_kind_from_name(const std::string& name);

}  // namespace nrc::serve
