#pragma once
// Execution-schedule descriptor: the front half of the unified pipeline.
//
// The paper's value proposition is "collapse once, run anywhere": one
// closed-form ranking serves every execution scheme.  The runtime
// implements ten schemes (paper §V scalar, §VI-A row-segment/SIMD-block,
// §VI-B warp, plus the Fig. 10 serial simulator); historically each was
// its own free function re-encoding its parameters in its signature,
// and the C emitter kept a parallel copy of that knowledge in its own
// option struct.  `Schedule` is the single value type naming a scheme
// and carrying every scheme parameter, consumed by
//
//   * nrc::run(eval_or_plan, schedule, body)  — the one dispatcher every
//     collapsed_for_* entry point is a thin wrapper over
//     (pipeline/dispatch.hpp), and
//   * EmitOptions — the C emitter derives its emission style and OpenMP
//     pragma from the same descriptor (codegen/c_emitter.hpp),
//
// so runtime execution and generated C share one source of truth.
// Schedule::auto_select() picks a scheme from the bound domain's shape
// (depth, trip count, per-level solver kinds) when the caller has no
// preference, with one fixed heuristic.

#include <omp.h>

#include <string>

#include "support/int128.hpp"

namespace nrc {

class CollapsedEval;

struct RunConfig {
  int threads = 0;  ///< 0: use the OpenMP default
};

enum class OmpSchedule { Static, Dynamic };

/// Default chunk size for the §V chunked scheme: small enough that the
/// round-robin deal keeps all threads co-located in the iteration space
/// (shared-cache streaming, like dynamic scheduling achieves), large
/// enough to amortize the per-chunk recovery.  threads == 0 means "the
/// OpenMP default team", so it resolves through omp_get_max_threads()
/// exactly like the dispatcher does — treating it as one thread made
/// the chunks ~max_threads× too large under the actual default team.
inline i64 default_chunk(i64 total, int threads) {
  const i64 np = threads > 0 ? threads : omp_get_max_threads();
  i64 c = total / (np * 32);
  if (c < 1) c = 1;
  if (c > 4096) c = 4096;
  return c;
}

/// Maximum lanes a SIMD block scheme may materialize per body call.
inline constexpr int kMaxSimdLanes = 256;

/// Every execution scheme the runtime implements.  One enumerator per
/// legacy collapsed_for_* entry point (PerIteration covers both its
/// static and dynamic OpenMP flavours via Schedule::omp).
enum class Scheme {
  PerIteration,        ///< Fig. 3: full recovery at every iteration
  PerThread,           ///< §V: contiguous block per thread, one recovery each
  Chunked,             ///< §V: schedule(static, chunk), recovery per chunk
  Taskloop,            ///< grains as OpenMP tasks, one recovery per grain
  RowSegments,         ///< §VI-A production form: per-thread blocks as
                       ///< maximal innermost runs (vectorizable bodies)
  RowSegmentsChunked,  ///< row segments inside round-robin chunks
  SimdBlocks,          ///< §VI-A: SoA lane blocks of vlen tuples per call
  SimdBlocksChunked,   ///< lane blocks inside chunks; chunk starts solved
                       ///< 4 per SIMD lane (recover4)
  WarpSim,             ///< §VI-B: W-strided lanes, one recovery per lane
  SerialSim,           ///< Fig. 10 protocol: serial, n_chunks recoveries
};

const char* scheme_name(Scheme s);

struct AutoSelectHints {
  int threads = 0;        ///< 0: omp_get_max_threads()
  int vlen = 0;           ///< 0: pick from the compiled simd abi
  bool block_body = false;  ///< the body consumes SoA lane blocks, so the
                            ///< SIMD-block schemes are eligible
};

/// One execution scheme plus all of its parameters.  A plain value:
/// copy it, store it in tables, hand it to nrc::run() and the emitter.
struct Schedule {
  Scheme scheme = Scheme::PerThread;
  OmpSchedule omp = OmpSchedule::Static;  ///< PerIteration only
  i64 chunk = 0;          ///< chunked schemes; <= 0 falls back to the
                          ///< unchunked parent scheme (legacy semantics)
  i64 grain = 0;          ///< Taskloop; <= 0 picks default_chunk
  int vlen = 8;           ///< SimdBlocks / SimdBlocksChunked
  int warp_size = 32;     ///< WarpSim
  int serial_chunks = 1;  ///< SerialSim (the Fig. 10 recovery count)
  RunConfig cfg{};        ///< thread count (0 = OpenMP default)

  // Named constructors mirroring the ten legacy entry points.
  static Schedule per_iteration(OmpSchedule o = OmpSchedule::Static, RunConfig c = {});
  static Schedule per_thread(RunConfig c = {});
  static Schedule chunked(i64 chunk, RunConfig c = {});
  static Schedule taskloop(i64 grain, RunConfig c = {});
  static Schedule row_segments(RunConfig c = {});
  static Schedule row_segments_chunked(i64 chunk, RunConfig c = {});
  static Schedule simd_blocks(int vlen, RunConfig c = {});
  static Schedule simd_blocks_chunked(int vlen, i64 chunk, RunConfig c = {});
  static Schedule warp_sim(int warp_size, RunConfig c = {});
  static Schedule serial_sim(int n_chunks = 1);

  /// Parameter validation; throws SpecError exactly where the legacy
  /// entry points threw (vlen outside [1, kMaxSimdLanes], warp_size < 1)
  /// and nowhere else: a non-positive chunk/grain is a documented
  /// fallback, not an error.
  void validate() const;

  /// One-line human-readable rendering, e.g.
  /// "row_segments_chunked(chunk=512, threads=8)".
  std::string describe() const;

  /// Pick a scheme for a bound domain when the caller has no
  /// preference: a deterministic heuristic over depth, trip count and
  /// the per-level solver kinds bind() chose.
  ///   * one thread or a tiny domain (<= 1 iteration) means one row
  ///     walk on the calling thread: PerThread at threads = 1, one
  ///     recovery and no fork/join, never the Fig. 10 SerialSim
  ///     protocol;
  ///   * domains under ~4 iterations per thread use PerThread;
  ///   * a Search/Interpreted level makes recovery costly, so the
  ///     schemes with the fewest recoveries win (RowSegments: one per
  ///     thread, vectorizable bodies at zero extra recoveries);
  ///   * degree >= 3 levels (Cubic/Quartic/Program) pay more per
  ///     recovery, so chunks amortize it: RowSegmentsChunked with
  ///     default_chunk;
  ///   * cheap recoveries (division/quadratic) take SimdBlocksChunked
  ///     when the caller's body is block-shaped, RowSegmentsChunked
  ///     otherwise.
  static Schedule auto_select(const CollapsedEval& eval, const AutoSelectHints& hints = {});

  struct Choice;
  /// auto_select, wrapped in a Choice.
  static Choice auto_select_with_cost(const CollapsedEval& eval,
                                      const AutoSelectHints& hints = {});
};

/// The result of Schedule::auto_select_with_cost.
struct Schedule::Choice {
  Schedule schedule;
};

}  // namespace nrc
