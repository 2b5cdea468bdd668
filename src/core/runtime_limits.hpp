#pragma once
// Hard limits of the runtime fast path (the symbolic machinery is
// unbounded).  These bound the fixed stack scratch used by the
// allocation-free evaluators: CollapsedEval and NewtonUnranker size
// their working arrays with them so the recover() hot path never
// touches the heap.

namespace nrc {

/// Maximum depth of a collapsed nest handled by the runtime evaluators.
inline constexpr int kMaxDepth = 12;

/// Maximum number of runtime slots (loop vars + parameters + "pc").
inline constexpr int kMaxSlots = 40;

}  // namespace nrc
