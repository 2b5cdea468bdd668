#pragma once
// Execution-schedule descriptor: the front half of the unified pipeline.
//
// The paper's value proposition is "collapse once, run anywhere": one
// closed-form ranking serves every execution scheme.  The runtime
// implements nine schemes (paper §V scalar, §VI-A row-segment/SIMD-block,
// §VI-B warp, plus the Fig. 10 serial simulator); the chunked ones come
// in a static flavour (chunks dealt round-robin) and a dynamic one
// (chunks claimed from one shared counter).  `Schedule` is the single
// value type naming a scheme and carrying every scheme parameter,
// consumed by
//
//   * nrc::run(eval_or_plan, schedule, body)  — the one way to run a
//     collapsed loop (pipeline/dispatch.hpp), and
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

/// Default chunk size for the §V chunked schemes: 32 chunks per thread,
/// small enough that either deal (round-robin or claimed) keeps all
/// threads co-located in the iteration space and leaves the dynamic
/// flavour slack to balance with, large enough to amortize the
/// per-chunk recovery.  threads == 0 means "the
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

/// Every execution scheme the runtime implements.  PerIteration and the
/// three chunked schemes each come in a static and a dynamic OpenMP
/// flavour, selected by Schedule::omp.
enum class Scheme {
  PerIteration,        ///< Fig. 3: full recovery at every iteration
  PerThread,           ///< §V: contiguous block per thread, one recovery each
  Chunked,             ///< §V: chunks of `chunk`, recovery per chunk
  RowSegments,         ///< §VI-A production form: per-thread blocks as
                       ///< maximal innermost runs (vectorizable bodies)
  RowSegmentsChunked,  ///< row segments inside chunks, either deal
  SimdBlocks,          ///< §VI-A: SoA lane blocks of vlen tuples per call
  SimdBlocksChunked,   ///< lane blocks inside chunks; a dynamic claim walks
                       ///< its run of chunks as one run of blocks
  WarpSim,             ///< §VI-B: W-strided lanes, one recovery per lane
  SerialSim,           ///< Fig. 10 protocol: serial, n_chunks recoveries
};

const char* scheme_name(Scheme s);

struct AutoSelectHints {
  int threads = 0;  ///< 0: omp_get_max_threads()
};

/// One execution scheme plus all of its parameters.  A plain value:
/// copy it, store it in tables, hand it to nrc::run() and the emitter.
struct Schedule {
  Scheme scheme = Scheme::PerThread;
  OmpSchedule omp = OmpSchedule::Static;  ///< PerIteration and the three
                                          ///< chunked schemes: the deal
  i64 chunk = 0;          ///< chunked schemes; <= 0 falls back to the
                          ///< unchunked parent scheme (static split)
  int vlen = 8;           ///< SimdBlocks / SimdBlocksChunked
  int warp_size = 32;     ///< WarpSim
  int serial_chunks = 1;  ///< SerialSim (the Fig. 10 recovery count)
  RunConfig cfg{};        ///< thread count (0 = OpenMP default)

  // Named constructors, one per scheme.
  static Schedule per_iteration(OmpSchedule o = OmpSchedule::Static, RunConfig c = {});
  static Schedule per_thread(RunConfig c = {});
  static Schedule chunked(i64 chunk, RunConfig c = {},
                          OmpSchedule o = OmpSchedule::Static);
  static Schedule row_segments(RunConfig c = {});
  static Schedule row_segments_chunked(i64 chunk, RunConfig c = {},
                                       OmpSchedule o = OmpSchedule::Static);
  static Schedule simd_blocks(int vlen, RunConfig c = {});
  static Schedule simd_blocks_chunked(int vlen, i64 chunk, RunConfig c = {});
  static Schedule warp_sim(int warp_size, RunConfig c = {});
  static Schedule serial_sim(int n_chunks = 1);

  /// Parameter validation; throws SpecError for vlen outside
  /// [1, kMaxSimdLanes] and warp_size < 1, and nowhere else: a
  /// non-positive chunk is a documented fallback, not an error.
  void validate() const;

  /// One-line human-readable rendering, e.g.
  /// "row_segments_chunked(chunk=512, omp=dynamic, threads=8)"; the
  /// static chunked flavour prints no omp field.
  std::string describe() const;

  /// Pick a scheme for a bound domain when the caller has no
  /// preference: a deterministic heuristic over depth, trip count and
  /// the per-level solver kinds bind() chose.  It never returns a
  /// SIMD-block scheme: those run only when named explicitly.
  ///   * one thread or a tiny domain (<= 1 iteration) means one row
  ///     walk on the calling thread: PerThread at threads = 1, one
  ///     recovery and no fork/join, never the Fig. 10 SerialSim
  ///     protocol;
  ///   * domains under ~4 iterations per thread use PerThread;
  ///   * a Search/Interpreted level makes recovery costly, so the
  ///     schemes with the fewest recoveries win (RowSegments: one per
  ///     thread, vectorizable bodies at zero extra recoveries);
  ///   * every other closed-form domain takes dynamic RowSegmentsChunked
  ///     with default_chunk: one recovery per claim (a run of chunks)
  ///     amortizes even degree >= 3 solves, and claiming from one
  ///     counter balances the load as it runs.
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
