#include "pipeline/schedule.hpp"

#include <omp.h>

#include "core/collapse.hpp"
#include "runtime/simd_abi.hpp"
#include "support/error.hpp"

namespace nrc {

const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::PerIteration:
      return "per_iteration";
    case Scheme::PerThread:
      return "per_thread";
    case Scheme::Chunked:
      return "chunked";
    case Scheme::RowSegments:
      return "row_segments";
    case Scheme::RowSegmentsChunked:
      return "row_segments_chunked";
    case Scheme::SimdBlocks:
      return "simd_blocks";
    case Scheme::SimdBlocksChunked:
      return "simd_blocks_chunked";
    case Scheme::WarpSim:
      return "warp_sim";
    case Scheme::SerialSim:
      return "serial_sim";
  }
  return "?";
}

// Designated initializers name each scheme's parameters; the rest keep
// their member defaults.
Schedule Schedule::per_iteration(OmpSchedule o, RunConfig c) {
  return {.scheme = Scheme::PerIteration, .omp = o, .cfg = c};
}

Schedule Schedule::per_thread(RunConfig c) { return {.scheme = Scheme::PerThread, .cfg = c}; }

Schedule Schedule::chunked(i64 chunk, RunConfig c, OmpSchedule o) {
  return {.scheme = Scheme::Chunked, .omp = o, .chunk = chunk, .cfg = c};
}

Schedule Schedule::row_segments(RunConfig c) {
  return {.scheme = Scheme::RowSegments, .cfg = c};
}

Schedule Schedule::row_segments_chunked(i64 chunk, RunConfig c, OmpSchedule o) {
  return {.scheme = Scheme::RowSegmentsChunked, .omp = o, .chunk = chunk, .cfg = c};
}

Schedule Schedule::simd_blocks(int vlen, RunConfig c) {
  return {.scheme = Scheme::SimdBlocks, .vlen = vlen, .cfg = c};
}

Schedule Schedule::simd_blocks_chunked(int vlen, i64 chunk, RunConfig c) {
  return {.scheme = Scheme::SimdBlocksChunked, .chunk = chunk, .vlen = vlen, .cfg = c};
}

Schedule Schedule::warp_sim(int warp_size, RunConfig c) {
  return {.scheme = Scheme::WarpSim, .warp_size = warp_size, .cfg = c};
}

Schedule Schedule::serial_sim(int n_chunks) {
  return {.scheme = Scheme::SerialSim, .serial_chunks = n_chunks};
}

void Schedule::validate() const {
  switch (scheme) {
    case Scheme::SimdBlocks:
    case Scheme::SimdBlocksChunked:
      if (vlen < 1 || vlen > kMaxSimdLanes)
        throw SpecError(std::string(scheme_name(scheme)) + ": vlen out of range");
      break;
    case Scheme::WarpSim:
      if (warp_size < 1)
        throw SpecError("warp_sim: warp_size must be >= 1");
      break;
    default:
      break;
  }
}

std::string Schedule::describe() const {
  std::string s = scheme_name(scheme);
  s += "(";
  bool first = true;
  auto field = [&](const std::string& name, const std::string& val) {
    if (!first) s += ", ";
    s += name + "=" + val;
    first = false;
  };
  switch (scheme) {
    case Scheme::PerIteration:
      field("omp", omp == OmpSchedule::Static ? "static" : "dynamic");
      break;
    case Scheme::Chunked:
    case Scheme::RowSegmentsChunked:
      field("chunk", std::to_string(chunk));
      if (omp == OmpSchedule::Dynamic) field("omp", "dynamic");
      break;
    case Scheme::SimdBlocks:
      field("vlen", std::to_string(vlen));
      field("abi", simd::runtime_abi());
      break;
    case Scheme::SimdBlocksChunked:
      field("vlen", std::to_string(vlen));
      field("chunk", std::to_string(chunk));
      if (omp == OmpSchedule::Dynamic) field("omp", "dynamic");
      field("abi", simd::runtime_abi());
      break;
    case Scheme::WarpSim:
      field("warp_size", std::to_string(warp_size));
      break;
    case Scheme::SerialSim:
      field("n_chunks", std::to_string(serial_chunks));
      break;
    default:
      break;
  }
  if (cfg.threads > 0 && scheme != Scheme::SerialSim)
    field("threads", std::to_string(cfg.threads));
  s += ")";
  return s;
}

Schedule Schedule::auto_select(const CollapsedEval& cn, const AutoSelectHints& h) {
  const i64 total = cn.trip_count();
  const int nt = h.threads > 0 ? h.threads : omp_get_max_threads();

  Schedule s;
  s.cfg.threads = h.threads;

  // Degenerate-domain guards: a fork/join can never pay for itself on a
  // tiny domain.  One thread (or one iteration) is one contiguous row
  // walk on the calling thread: a single recovery, then for_each_row.
  // threads = 1 keeps a tiny domain from forking an idle team.
  if (total <= 1 || nt <= 1) {
    s.scheme = Scheme::PerThread;
    s.cfg.threads = 1;
    return s;
  }
  if (total < 4 * static_cast<i64>(nt)) {
    s.scheme = Scheme::PerThread;
    return s;
  }

  bool costly_recovery = false;  // a level with no usable formula
  for (int k = 0; k < cn.depth(); ++k)
    if (cn.solver_kind(k) == LevelSolverKind::Search) costly_recovery = true;

  if (costly_recovery) {
    // Recovery dominates: the per-thread schemes pay exactly one per
    // thread, and segment bodies cost nothing extra.
    s.scheme = Scheme::RowSegments;
    return s;
  }

  // Production default (§V chunked, segment bodies): threads claim
  // chunks from one shared counter, so a delayed thread claims fewer
  // instead of holding up the run; one recovery per chunk amortizes the
  // degree >= 3 solves, and the innermost range reaches the body whole.
  s.scheme = Scheme::RowSegmentsChunked;
  s.omp = OmpSchedule::Dynamic;
  s.chunk = default_chunk(total, nt);
  return s;
}

Schedule::Choice Schedule::auto_select_with_cost(const CollapsedEval& cn,
                                                 const AutoSelectHints& h) {
  return Choice{auto_select(cn, h)};
}

}  // namespace nrc
