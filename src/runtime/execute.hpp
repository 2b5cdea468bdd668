#pragma once
// OpenMP execution schemes for collapsed loops (paper §V) — the legacy
// scalar entry points, kept as thin wrappers over the unified
// dispatcher (pipeline/dispatch.hpp): each one builds the matching
// Schedule descriptor and calls nrc::run(), so every scheme's
// implementation — and the chunking/thread-range arithmetic the schemes
// share — lives exactly once in the pipeline layer.
//
// All schemes iterate pc = 1..trip_count over the collapsed single loop
// and call `body(idx)` with the recovered original indices.  They differ
// in *when* the costly closed-form recovery runs:
//
//   collapsed_for_per_iteration  — recovery at every iteration (Fig. 3);
//   collapsed_for_per_thread     — one contiguous block per thread,
//                                  recovery once per thread, then odometer
//                                  increments (Fig. 4 / §V first scheme);
//   collapsed_for_chunked        — schedule(static, CHUNK) semantics,
//                                  recovery once per chunk (§V second
//                                  scheme);
//   collapsed_for_taskloop       — grains as OpenMP tasks, one recovery
//                                  per grain;
//   collapsed_serial_sim         — serial run performing `n_chunks`
//                                  recoveries (the measurement protocol of
//                                  Fig. 10: "root evaluations are performed
//                                  12 times, to simulate ... 12 threads").
//                                  A measurement protocol only, never
//                                  picked for a one-thread run:
//                                  auto_select gives those the
//                                  per-thread row walk at threads = 1.
//
// Body contract: void(std::span<const i64> idx) where idx.size() ==
// cn.depth().  Bodies must be safe to run concurrently on distinct
// iterations (the collapsed loops carry no dependence by assumption).

#include "pipeline/dispatch.hpp"

namespace nrc {

/// Naive scheme: full closed-form recovery at every iteration.
template <class Body>
void collapsed_for_per_iteration(const CollapsedEval& cn, Body&& body,
                                 OmpSchedule sched = OmpSchedule::Static,
                                 RunConfig cfg = {}) {
  run(cn, Schedule::per_iteration(sched, cfg), static_cast<Body&&>(body));
}

/// §V scheme with one costly recovery per thread: each thread receives a
/// contiguous block (schedule(static) semantics), recovers its first
/// iteration, and advances by odometer increments.
template <class Body>
void collapsed_for_per_thread(const CollapsedEval& cn, Body&& body, RunConfig cfg = {}) {
  run(cn, Schedule::per_thread(cfg), static_cast<Body&&>(body));
}

/// §V scheme with schedule(static, chunk) semantics: chunks are dealt to
/// threads round-robin; the costly recovery runs once per chunk.
/// A non-positive chunk falls back to the per-thread scheme.
template <class Body>
void collapsed_for_chunked(const CollapsedEval& cn, i64 chunk, Body&& body,
                           RunConfig cfg = {}) {
  run(cn, Schedule::chunked(chunk, cfg), static_cast<Body&&>(body));
}

/// Task-based execution: the collapsed range is cut into grains, each
/// grain becomes an OpenMP task (one costly recovery per grain, odometer
/// inside).  Combines the collapsed loop's perfect count balance with
/// dynamic placement — the robust choice on machines with heterogeneous
/// or interference-prone cores.  grainsize <= 0 picks default_chunk.
template <class Body>
void collapsed_for_taskloop(const CollapsedEval& cn, i64 grainsize, Body&& body,
                            RunConfig cfg = {}) {
  run(cn, Schedule::taskloop(grainsize, cfg), static_cast<Body&&>(body));
}

/// Serial execution of the collapsed loop performing `n_chunks` costly
/// recoveries (evenly spaced), reproducing the Fig. 10 overhead
/// measurement protocol.  n_chunks <= 1 recovers once at pc = 1.
/// Deliberately keeps the paper's exact Fig. 4 shape — element-wise
/// increment() every iteration — so the measured control overhead stays
/// comparable with the paper; the production schemes use row-arithmetic
/// ranges instead.  auto_select's guards and heuristic never pick it;
/// callers ask for it by name.
template <class Body>
void collapsed_serial_sim(const CollapsedEval& cn, int n_chunks, Body&& body) {
  run(cn, Schedule::serial_sim(n_chunks), static_cast<Body&&>(body));
}

/// Plain serial execution of the *original* nest order via the odometer
/// (reference executor; used by kernels' serial baselines when convenient).
template <class Body>
void collapsed_serial(const CollapsedEval& cn, Body&& body) {
  collapsed_serial_sim(cn, 1, static_cast<Body&&>(body));
}

}  // namespace nrc
