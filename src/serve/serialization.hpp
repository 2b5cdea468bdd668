#pragma once
// Plan serialization: the persistence half of the serving layer.
//
// A CollapsePlan is a pure value of (nest, CollapseOptions, params) —
// everything else (ranking polynomials, level formulas, the compiled
// polynomials, the f64-guard proof) is deterministically re-derivable.  So
// a plan serializes as a small self-delimiting text record of exactly
// those inputs, plus the per-level solver kinds bind() chose as an
// integrity check: deserialization re-runs the pipeline and rejects a
// record whose recorded lowering no longer matches (corruption, or a
// snapshot taken by a build that lowers differently).
//
//   nrcplan 1
//   opts build_closed_form=1 max_closed_degree=4
//                                  (always kMaxClosedDegree = 4; a
//                                  record with any other value is refused)
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
// A snapshot (PlanCache::snapshot) is a header line, then one entry
// per cached plan: the entry's cache key, length-prefixed, then the
// plan's record:
//
//   nrcsnap 2
//   key 83                         (the key's byte count; the key bytes
//   text:41                         follow, then one newline)
//   for (i = 0; ...
//   ...|opts:1,4|params:N=2000;
//   nrcplan 1                      (the record above)
//   ...
//   endplan
//
// PlanCache::warm_start() replays each entry through get_keyed() under
// its recorded key, which lands the plan in the plan shards and its
// structure in the symbolic table and makes the same requests full hits
// again — a restarted server rebuilds its working set without paying a
// single cold symbolic build twice.  The key stays outside the record: the
// record's bytes also key the JIT KernelCache, which must not depend on
// how a request spelled its nest.  A snapshot is trusted as the
// server's own file: warm_start() does not check a key against its
// record.
//
// The CollapsePlan::serialize/deserialize and PlanCache::snapshot/
// warm_start members declared in pipeline/ are implemented here.

#include <iosfwd>
#include <vector>

#include "core/collapse.hpp"
#include "polyhedral/nest.hpp"

namespace nrc::serve {

/// Plan record format version written/accepted by this build.
inline constexpr int kPlanFormatVersion = 1;

/// Snapshot stream format version written/accepted by this build (1 was
/// the bare record stream, without the header and the keys).
inline constexpr int kSnapshotFormatVersion = 2;

/// The longest entry key warm_start() accepts.
inline constexpr size_t kMaxSnapshotKeyBytes = size_t{1} << 24;

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
