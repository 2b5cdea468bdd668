#pragma once
// The unified execution dispatcher: one entry point, ten schemes.
//
//   nrc::run(cn, schedule, body);
//
// runs the collapsed domain of `cn` under the scheme named by the
// Schedule descriptor (pipeline/schedule.hpp).  Every legacy
// collapsed_for_* function (runtime/execute.hpp, segments.hpp,
// simd.hpp, warp.hpp) is a thin wrapper that builds the matching
// Schedule and calls this dispatcher, so the §V/§VI scheme
// implementations — and the chunking/thread-range arithmetic they
// share (static_thread_range, chunk_count/chunk_end, the parallel
// drivers) — live exactly once, here.
//
// Body shapes.  The dispatcher accepts the three body contracts the
// legacy entry points defined and adapts between them where the
// adaptation is free:
//   * tuple body    void(std::span<const i64> idx)            — any scheme
//   * segment body  void(std::span<const i64> prefix, i64 j0, i64 j1)
//                   — native to RowSegments/RowSegmentsChunked (and the
//                   segment flavour of SerialSim); accepted by the other
//                   range schemes, whose row walk produces the same runs
//   * block body    void(int lanes, const i64* const* cols)
//                   — SimdBlocks/SimdBlocksChunked only (a tuple body
//                   handed to a block scheme is driven once per lane)
// A body satisfying several contracts (a generic lambda) runs in the
// scheme's native shape.  A shape no adaptation covers (a block body on
// a scalar scheme, say) throws SpecError.
//
// Bodies must be safe to run concurrently on distinct iterations (the
// collapsed loops carry no dependence by assumption).

#include <omp.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "core/collapse.hpp"
#include "pipeline/schedule.hpp"
#include "runtime/simd_abi.hpp"
#include "support/error.hpp"

namespace nrc {

namespace detail {

// ---------------------------------------------------------------- body traits

template <class B>
inline constexpr bool is_tuple_body_v =
    std::is_invocable_v<B&, std::span<const i64>>;
template <class B>
inline constexpr bool is_segment_body_v =
    std::is_invocable_v<B&, std::span<const i64>, i64, i64>;
template <class B>
inline constexpr bool is_block_body_v =
    std::is_invocable_v<B&, int, const i64* const*>;

// ------------------------------------------------- shared range arithmetic

/// Contiguous schedule(static) split of [1, total] among np ranks:
/// rank t receives `cnt` pcs starting at `lo`.  Every per-thread scheme
/// slices the collapsed range through this one function, so all of them
/// partition identically.
inline void static_thread_range(i64 total, i64 np, i64 t, i64* lo, i64* cnt) {
  const i64 base = total / np;
  const i64 rem = total % np;
  *lo = 1 + t * base + std::min<i64>(t, rem);
  *cnt = base + (t < rem ? 1 : 0);
}

/// ceil(total / chunk) without forming total + chunk - 1, which wraps
/// for chunk near the i64 maximum — the naive form made every chunked
/// scheme compute a non-positive chunk count and silently skip the
/// whole domain when callers passed a "practically infinite" chunk.
inline i64 chunk_count(i64 total, i64 chunk) {
  return total / chunk + (total % chunk != 0 ? 1 : 0);
}

/// Last pc of chunk q (0-based) given its first pc `lo`, clipped at
/// total.  Computed as a bound on the *remaining* range so that
/// lo + chunk - 1 (and the (q + 1) * chunk it replaces) can never
/// overflow: lo <= total always holds for a valid chunk start.
inline i64 chunk_end(i64 total, i64 lo, i64 chunk) {
  return chunk - 1 <= total - lo ? lo + chunk - 1 : total;
}

// ------------------------------------------------------- parallel drivers
//
// The two partitioning shapes every parallel range scheme reduces to.
// `fn` receives an inclusive 1-based pc range [lo, hi] and runs inside
// the parallel region.

/// One contiguous static block per thread.
template <class RangeFn>
void parallel_static_ranges(i64 total, int nt, RangeFn&& fn) {
#pragma omp parallel num_threads(nt)
  {
    i64 lo, cnt;
    static_thread_range(total, omp_get_num_threads(), omp_get_thread_num(), &lo, &cnt);
    if (cnt > 0) fn(lo, lo + cnt - 1);
  }
}

/// schedule(static, chunk) semantics: chunks dealt to threads
/// round-robin (the deal keeps threads co-located in the iteration
/// space, preserving shared-cache streaming).
template <class RangeFn>
void parallel_chunk_ranges(i64 total, i64 chunk, int nt, RangeFn&& fn) {
  const i64 nchunks = chunk_count(total, chunk);
#pragma omp parallel num_threads(nt)
  {
    const i64 t = omp_get_thread_num();
    const i64 np = omp_get_num_threads();
    for (i64 q = t; q < nchunks; q += np)
      fn(1 + q * chunk, chunk_end(total, 1 + q * chunk, chunk));
  }
}

// ------------------------------------------------------ range executors

/// Run the contiguous pc range [lo, hi] (1-based, inclusive) with one
/// costly recovery at lo and row arithmetic afterwards (for_each_row):
/// the innermost bound is evaluated once per row instead of once per
/// iteration, so the scalar production schemes pay one prefix solve per
/// chunk and O(1) work per iteration.
template <class Body>
void run_scalar_range(const CollapsedEval& cn, i64 lo, i64 hi, Body&& body) {
  const size_t d = static_cast<size_t>(cn.depth());
  cn.for_each_row(lo, hi, [&](i64* idx, i64 j_begin, i64 j_end) {
    const std::span<const i64> tuple(idx, d);
    for (i64 j = j_begin; j < j_end; ++j) {
      idx[d - 1] = j;
      body(tuple);
    }
  });
}

/// Run the pc range [lo, hi] (1-based, inclusive) as row segments.
template <class SegBody>
void run_segments(const CollapsedEval& cn, i64 lo, i64 hi, SegBody&& body) {
  const size_t d = static_cast<size_t>(cn.depth());
  cn.for_each_row(lo, hi, [&](const i64* idx, i64 j_begin, i64 j_end) {
    body(std::span<const i64>(idx, d - 1), j_begin, j_end);
  });
}

/// Run a pc range in the body's best-matching scalar-walk form: segment
/// bodies get maximal innermost runs, tuple bodies one call per
/// iteration — the same row walk either way.  PreferSegments breaks the
/// tie for bodies satisfying both contracts: the segment schemes keep
/// their native shape, the scalar schemes keep theirs.
template <bool PreferSegments, class Body>
void run_range_pref(const CollapsedEval& cn, i64 lo, i64 hi, Body& body) {
  if constexpr (PreferSegments && is_segment_body_v<Body>) {
    run_segments(cn, lo, hi, body);
  } else if constexpr (is_tuple_body_v<Body>) {
    run_scalar_range(cn, lo, hi, body);
  } else {
    run_segments(cn, lo, hi, body);
  }
}

/// Walk the pc range [lo, hi] from the already-recovered tuple `idx`
/// (the tuple of rank lo), emitting lane blocks of up to vlen rows:
/// SoA columns are filled with vector stores, then body(lanes, cols).
template <class BlockBody>
void run_lane_blocks_from(const CollapsedEval& cn, std::span<i64> idx, i64 lo, i64 hi,
                          int vlen, BlockBody&& body) {
  const size_t d = static_cast<size_t>(cn.depth());
  i64 soa[kMaxDepth][kMaxSimdLanes];
  const i64* cols[kMaxDepth];
  for (size_t k = 0; k < d; ++k) cols[k] = soa[k];

  int lanes = 0;
  cn.for_each_row_from(idx, lo, hi, [&](const i64* row, i64 j_begin, i64 j_end) {
    i64 j = j_begin;
    while (j < j_end) {
      const i64 take = std::min<i64>(j_end - j, vlen - lanes);
      for (size_t k = 0; k + 1 < d; ++k)
        simd::fill_broadcast(&soa[k][lanes], take, row[k]);
      simd::fill_iota(&soa[d - 1][lanes], take, j);
      lanes += static_cast<int>(take);
      j += take;
      if (lanes == vlen) {
        body(vlen, cols);
        lanes = 0;
      }
    }
  });
  if (lanes > 0) body(lanes, cols);
}

/// Lane-block walk for block bodies, per-lane fanout for tuple bodies.
template <class Body>
void run_blocks_pref(const CollapsedEval& cn, std::span<i64> idx, i64 lo, i64 hi,
                     int vlen, Body& body) {
  if constexpr (is_block_body_v<Body>) {
    run_lane_blocks_from(cn, idx, lo, hi, vlen, body);
  } else {
    const size_t d = static_cast<size_t>(cn.depth());
    run_lane_blocks_from(cn, idx, lo, hi, vlen,
                         [&](int lanes, const i64* const* cols) {
                           i64 t[kMaxDepth];
                           for (int l = 0; l < lanes; ++l) {
                             for (size_t k = 0; k < d; ++k)
                               t[k] = cols[k][static_cast<size_t>(l)];
                             body(std::span<const i64>(t, d));
                           }
                         });
  }
}

/// One lane's strided walk over the collapsed range: visit pc = lane+1,
/// lane+1+W, ... while pc <= total, jumping W positions per step with
/// row arithmetic (advance() evaluates one bound per crossed row
/// instead of W odometer increments).  `idx` holds the tuple of rank
/// lane+1 on entry.
///
/// advance() reports failure when the walk would leave the domain; for
/// a model-conforming domain that cannot happen mid-stride (the guard
/// keeps the target rank <= total).  If it ever does fail — an engine
/// regression, a domain that silently violates the Fig. 5 model — the
/// lane must NOT abandon its remaining iterations (a silent drop is the
/// worst failure mode a parallel scheme can have): it resynchronizes
/// with a full recover() at its next pc and keeps striding.  Templated
/// on the evaluator so the resync policy is testable with a
/// fault-injecting wrapper (tests/runtime/warp_test.cpp).
template <class Eval, class Body>
void warp_lane_walk(const Eval& cn, i64 lane, i64 W, i64 total, std::span<i64> idx,
                    Body&& body) {
  for (i64 pc = lane + 1; /* lane + 1 <= total: live lanes only */;) {
    body(std::span<const i64>(idx.data(), idx.size()));
    // Stride-remaining test and loop exit before any pc + W is formed:
    // pc can sit near the i64 maximum for astronomically shifted
    // domains, total - pc cannot.
    if (W > total - pc) break;
    if (!cn.advance(idx, W)) cn.recover(pc + W, idx);
    pc += W;
  }
}

// ------------------------------------------------ scheme implementations

template <class Body>
void run_per_iteration(const CollapsedEval& cn, OmpSchedule sched, int nt, Body& body) {
  const i64 total = cn.trip_count();
  if (sched == OmpSchedule::Static) {
#pragma omp parallel for schedule(static) num_threads(nt)
    for (i64 pc = 1; pc <= total; ++pc) {
      i64 idx[kMaxDepth];
      cn.recover(pc, {idx, static_cast<size_t>(cn.depth())});
      body(std::span<const i64>(idx, static_cast<size_t>(cn.depth())));
    }
  } else {
#pragma omp parallel for schedule(dynamic, 64) num_threads(nt)
    for (i64 pc = 1; pc <= total; ++pc) {
      i64 idx[kMaxDepth];
      cn.recover(pc, {idx, static_cast<size_t>(cn.depth())});
      body(std::span<const i64>(idx, static_cast<size_t>(cn.depth())));
    }
  }
}

template <bool PreferSegments, class Body>
void run_taskloop(const CollapsedEval& cn, i64 grainsize, int nt, Body& body) {
  const i64 total = cn.trip_count();
  const i64 grain = grainsize > 0 ? grainsize : default_chunk(total, nt);
  const i64 ntasks = chunk_count(total, grain);
#pragma omp parallel num_threads(nt)
#pragma omp single
  {
#pragma omp taskloop grainsize(1)
    for (i64 q = 0; q < ntasks; ++q) {
      const i64 lo = 1 + q * grain;
      const i64 hi = chunk_end(total, lo, grain);
      run_range_pref<PreferSegments>(cn, lo, hi, body);
    }
  }
}

template <class Body>
void run_simd_blocks(const CollapsedEval& cn, int vlen, int nt, Body& body) {
  const i64 total = cn.trip_count();
  const size_t d = static_cast<size_t>(cn.depth());
  parallel_static_ranges(total, nt, [&](i64 lo, i64 hi) {
    i64 idx[kMaxDepth];
    cn.recover(lo, {idx, d});
    run_blocks_pref(cn, {idx, d}, lo, hi, vlen, body);
  });
}

/// §V chunked scheme over lane blocks: chunks are dealt round-robin in
/// lane groups (8 on the AVX-512 leg, 4 elsewhere — simd::kGroupLanes),
/// and each group's chunk-start recoveries run as one lane-batched
/// solve.  A tail group of 4..7 chunks on the wide leg still batches
/// its first four starts through recover4; only the final <4 starts
/// recover scalar.
template <class Body>
void run_simd_blocks_chunked(const CollapsedEval& cn, int vlen, i64 chunk, int nt,
                             Body& body) {
  constexpr i64 G = simd::kGroupLanes;
  const i64 total = cn.trip_count();
  const i64 nchunks = chunk_count(total, chunk);
  const i64 ngroups = (nchunks + (G - 1)) / G;
  const size_t d = static_cast<size_t>(cn.depth());
#pragma omp parallel num_threads(nt)
  {
    const i64 t = omp_get_thread_num();
    const i64 np = omp_get_num_threads();
    for (i64 g = t; g < ngroups; g += np) {
      const i64 q0 = g * G;
      const i64 in_group = std::min<i64>(G, nchunks - q0);
      i64 seed[G * kMaxDepth];
      i64 pcs[G];
      for (i64 b = 0; b < in_group; ++b) pcs[b] = 1 + (q0 + b) * chunk;
      i64 solved = 0;
      if (in_group == G) {
        if constexpr (G == 8)
          cn.recover8(pcs, {seed, static_cast<size_t>(G) * d});
        else
          cn.recover4(pcs, {seed, static_cast<size_t>(G) * d});
        solved = G;
      } else if (in_group >= 4) {
        cn.recover4(pcs, {seed, 4 * d});
        solved = 4;
      }
      for (i64 b = solved; b < in_group; ++b)
        cn.recover(pcs[b], {seed + b * d, d});
      for (i64 b = 0; b < in_group; ++b) {
        const i64 lo = pcs[b];
        const i64 hi = chunk_end(total, lo, chunk);
        i64 idx[kMaxDepth];
        std::memcpy(idx, seed + b * d, d * sizeof(i64));
        run_blocks_pref(cn, {idx, d}, lo, hi, vlen, body);
      }
    }
  }
}

template <class Body>
void run_warp_sim(const CollapsedEval& cn, int warp_size, int nt, Body& body) {
  const i64 total = cn.trip_count();
  if (total < 1) return;
  const size_t d = static_cast<size_t>(cn.depth());
  const i64 W = warp_size;

  // Lanes beyond the domain never execute: clamp the staging tile and
  // the lane loop to the live lanes so a warp_size far beyond
  // trip_count() (callers probe with huge warps) costs O(depth * total)
  // memory, not O(depth * W) — the unclamped tile allocated gigabytes
  // for warp_size near INT_MAX.
  const i64 L = std::min<i64>(W, total);

  // One block recovery seeds the whole warp: pcs 1..L are exactly the
  // live lanes' starting iterations, so a single lane-strided block
  // solve stages them as tile[k*L + lane] — the CPU stand-in for
  // §VI-B's per-warp shared-memory tile (on a GPU,
  // recover_block_lanes's output layout is what the warp would keep in
  // shared memory).
  std::vector<i64> tile(d * static_cast<size_t>(L));
  cn.recover_block_lanes(1, L, tile, L);

#pragma omp parallel for schedule(static) num_threads(nt)
  for (i64 lane = 0; lane < L; ++lane) {
    i64 idx[kMaxDepth];
    for (size_t k = 0; k < d; ++k)
      idx[k] = tile[k * static_cast<size_t>(L) + static_cast<size_t>(lane)];
    warp_lane_walk(cn, lane, W, total, {idx, d}, body);
  }
}

/// The Fig. 10 serial protocol, segment flavour: `n_chunks` costly
/// recoveries (evenly spaced), each chunk walked as row segments.
template <class SegBody>
void run_serial_sim_segments(const CollapsedEval& cn, int n_chunks, SegBody& body) {
  const i64 total = cn.trip_count();
  if (n_chunks < 1) n_chunks = 1;
  const i64 base = total / n_chunks;
  const i64 rem = total % n_chunks;
  i64 lo = 1;
  for (int q = 0; q < n_chunks; ++q) {
    const i64 cnt = base + (q < rem ? 1 : 0);
    if (cnt <= 0) continue;
    run_segments(cn, lo, lo + cnt - 1, body);
    lo += cnt;
  }
}

/// Serial execution performing `n_chunks` costly recoveries (evenly
/// spaced), reproducing the Fig. 10 overhead measurement protocol.
/// Tuple bodies deliberately keep the paper's exact Fig. 4 shape —
/// element-wise increment() every iteration — so the measured control
/// overhead stays comparable with the paper; segment-only bodies get
/// the row-walk form (the Fig. 10 protocol, segment flavour).
template <class Body>
void run_serial_sim(const CollapsedEval& cn, int n_chunks, Body& body) {
  if constexpr (is_tuple_body_v<Body>) {
    const i64 total = cn.trip_count();
    if (n_chunks < 1) n_chunks = 1;
    const i64 base = total / n_chunks;
    const i64 rem = total % n_chunks;
    i64 lo = 1;
    const size_t d = static_cast<size_t>(cn.depth());
    i64 idx[kMaxDepth];
    for (int q = 0; q < n_chunks; ++q) {
      const i64 cnt = base + (q < rem ? 1 : 0);
      if (cnt <= 0) continue;
      cn.recover(lo, {idx, d});
      for (i64 pc = lo; pc < lo + cnt; ++pc) {
        body(std::span<const i64>(idx, d));
        if (pc + 1 < lo + cnt) cn.increment({idx, d});
      }
      lo += cnt;
    }
  } else {
    run_serial_sim_segments(cn, n_chunks, body);
  }
}

}  // namespace detail

/// The unified dispatcher: run the collapsed domain of `cn` under the
/// scheme described by `s` with `body` (see the header comment for the
/// accepted body shapes).  Throws SpecError on invalid Schedule
/// parameters — exactly where the legacy entry points threw — and on a
/// body shape no adaptation covers.
template <class Body>
void run(const CollapsedEval& cn, const Schedule& s, Body&& body) {
  s.validate();
  const int nt = s.cfg.threads > 0 ? s.cfg.threads : omp_get_max_threads();
  const i64 total = cn.trip_count();
  constexpr bool tup = detail::is_tuple_body_v<Body>;
  constexpr bool seg = detail::is_segment_body_v<Body>;
  constexpr bool blk = detail::is_block_body_v<Body>;

  switch (s.scheme) {
    case Scheme::PerIteration:
      if constexpr (tup) {
        detail::run_per_iteration(cn, s.omp, nt, body);
        return;
      }
      break;
    case Scheme::PerThread:
      if constexpr (tup || seg) {
        detail::parallel_static_ranges(total, nt, [&](i64 lo, i64 hi) {
          detail::run_range_pref<false>(cn, lo, hi, body);
        });
        return;
      }
      break;
    case Scheme::RowSegments:
      if constexpr (tup || seg) {
        detail::parallel_static_ranges(total, nt, [&](i64 lo, i64 hi) {
          detail::run_range_pref<true>(cn, lo, hi, body);
        });
        return;
      }
      break;
    case Scheme::Chunked:
    case Scheme::RowSegmentsChunked:
      if constexpr (tup || seg) {
        // The tie-break keeps each legacy scheme's native body shape.
        constexpr bool prefer_seg_chunked = true;
        if (s.chunk <= 0) {
          // Legacy semantics: a non-positive chunk falls back to the
          // per-thread split of the same body family.
          detail::parallel_static_ranges(total, nt, [&](i64 lo, i64 hi) {
            if (s.scheme == Scheme::Chunked)
              detail::run_range_pref<false>(cn, lo, hi, body);
            else
              detail::run_range_pref<prefer_seg_chunked>(cn, lo, hi, body);
          });
          return;
        }
        detail::parallel_chunk_ranges(total, s.chunk, nt, [&](i64 lo, i64 hi) {
          if (s.scheme == Scheme::Chunked)
            detail::run_range_pref<false>(cn, lo, hi, body);
          else
            detail::run_range_pref<prefer_seg_chunked>(cn, lo, hi, body);
        });
        return;
      }
      break;
    case Scheme::Taskloop:
      if constexpr (tup || seg) {
        detail::run_taskloop<false>(cn, s.grain, nt, body);
        return;
      }
      break;
    case Scheme::SimdBlocks:
      if constexpr (blk || tup) {
        detail::run_simd_blocks(cn, s.vlen, nt, body);
        return;
      }
      break;
    case Scheme::SimdBlocksChunked:
      if constexpr (blk || tup) {
        if (s.chunk <= 0) {
          detail::run_simd_blocks(cn, s.vlen, nt, body);
          return;
        }
        detail::run_simd_blocks_chunked(cn, s.vlen, s.chunk, nt, body);
        return;
      }
      break;
    case Scheme::WarpSim:
      if constexpr (tup) {
        detail::run_warp_sim(cn, s.warp_size, nt, body);
        return;
      }
      break;
    case Scheme::SerialSim:
      if constexpr (tup || seg) {
        detail::run_serial_sim(cn, s.serial_chunks, body);
        return;
      }
      break;
  }
  throw SpecError(std::string("nrc::run: body shape does not fit scheme ") +
                  scheme_name(s.scheme));
}

}  // namespace nrc
