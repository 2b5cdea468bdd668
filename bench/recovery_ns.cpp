// recovery_ns — nanoseconds per recovered iteration, per recovery engine.
//
// Measures the cost the §V schemes amortize per chunk: one full
// closed-form recovery, across
//
//   interpreter — the seed CompiledExpr engine (complex arithmetic,
//                 heap-allocated value vector): recover_interpreted()
//   engine      — the compiled engine (degree-specialized solvers +
//                 RecoveryProgram bytecode): recover()
//   block64     — recover_block() amortized over 64 consecutive pcs
//                 (the scalar batched path: one solve + row-major fill)
//   simd64      — recover_blocks4(): 4 blocks of 64, the 4 chunk-start
//                 solves lane-parallel, lane-strided SIMD fills —
//                 amortized over the 256 recovered iterations
//   simd512     — recover_blocks8(): 8 blocks of 64 through the 8-lane
//                 entry point (one 512-bit vector per solve stage on the
//                 AVX-512 leg, emulated lanes elsewhere) — amortized
//                 over the 512 recovered iterations
//   batch4      — recover4() on 4 consecutive pcs (the warp-shaped
//                 primitive: one independent formula solve per lane)
//   search      — exact binary search: recover_search()
//   newton      — safeguarded Newton: NewtonUnranker::recover()
//
// Random pcs (fixed-seed LCG) spread probes across the domain so branch
// history and guard behaviour match production chunk starts.  Results go
// to stdout and BENCH_recovery.json (ns per recovered iteration, per
// scheme; --out=PATH overrides the location) so successive PRs have a
// perf trajectory.  Exit status is non-zero when the compiled engine
// falls below the enforced 2.5x floor against the interpreter on a
// gated nest (the target stays >= 3x; the floor leaves headroom for
// shared-runner noise), when a vector build's (runtime abi avx2 or
// avx512) simd64 path falls below 1.2x over block64 on the cubic and
// quartic nests (the floor was 2x against PR 2's scalar block path;
// PR 3 made that scalar baseline itself 2-3x faster), when an AVX-512
// run's simd512 path falls below 2x over block64 on the same gated
// nests (8 lanes per solve + masked fills must clear what 4 lanes
// couldn't), or when
// the guarded real-arithmetic Ferrari falls below 2.5x over the PR 2
// quartic path (bytecode program + checked-i128 scalar guards) on the
// quartic nests' block64 workload, or when a plan-cache hit is not at
// least 10x cheaper than a cold collapse+bind (the pipeline's
// analyze-once contract: repeated domains must skip symbolic build and
// bind entirely), or when auto_select — its heuristic or the
// one-thread / tiny-domain guard ahead of it — picks a schedule more
// than 2x slower than the best of a fixed candidate list (per_thread,
// row_segments, row_segments_chunked and simd_blocks_chunked at the
// default chunk) on a gated nest (the selection-accuracy floor), or
// when the runtime-compiled specialized
// kernel (jit column: one-thread ns/iter, with its one-time compile as
// jit_compile_ms) falls below 1.5x over the engine on the cubic/quartic
// nests while a C toolchain is available (no toolchain skips the floor
// with a note).

#include <omp.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "nrcollapse.hpp"

using namespace nrc;

namespace {

struct BenchNest {
  std::string name;
  NestSpec nest;
  ParamMap params;
  bool gate = false;          ///< participates in the engine-vs-interpreter floor
  bool gate_simd = false;     ///< participates in the simd64-vs-block64 2x check
  bool gate_quartic = false;  ///< participates in the ferrari-vs-bytecode 2.5x check
};

std::vector<BenchNest> bench_nests() {
  std::vector<BenchNest> v;
  {
    NestSpec n;  // correlation outer pair (paper Fig. 1): quadratic level
    n.param("N")
        .loop("i", aff::c(0), aff::v("N") - 1)
        .loop("j", aff::v("i") + 1, aff::v("N"));
    v.push_back({"correlation", n, {{"N", 2000}}, true});
  }
  {
    NestSpec n;  // paper Fig. 6: cubic level -> guarded real Cardano
    n.param("N")
        .loop("i", aff::c(0), aff::v("N") - 1)
        .loop("j", aff::c(0), aff::v("i") + 1)
        .loop("k", aff::v("j"), aff::v("i") + 1);
    v.push_back({"tetrahedral", n, {{"N", 260}}, true, true});
  }
  {
    NestSpec n;  // 4-deep simplex: quartic level -> guarded real Ferrari
    n.param("N")
        .loop("i", aff::c(0), aff::v("N"))
        .loop("j", aff::v("i"), aff::v("N"))
        .loop("k", aff::v("j"), aff::v("N"))
        .loop("l", aff::v("k"), aff::v("N"));
    v.push_back({"simplex4", n, {{"N", 120}}, false, true, true});
  }
  {
    NestSpec n;  // shifted 4-deep simplex: quartic with offset coefficients
    n.param("N")
        .loop("i", aff::c(3), aff::v("N") + 3)
        .loop("j", aff::v("i") - 2, aff::v("N") + 3)
        .loop("k", aff::v("j"), aff::v("N") + 4)
        .loop("l", aff::v("k"), aff::v("N") + 5);
    v.push_back({"simplex4sh", n, {{"N", 110}}, false, false, true});
  }
  {
    NestSpec n;  // rectangular: degree-1 levels -> exact integer division
    n.param("N").param("M")
        .loop("i", aff::c(0), aff::v("N"))
        .loop("j", aff::c(0), aff::v("M"));
    v.push_back({"rectangular", n, {{"N", 1500}, {"M", 1500}}});
  }
  return v;
}

/// Deterministic pc sequence spread over [1, total].
std::vector<i64> probe_pcs(i64 total, size_t n) {
  std::vector<i64> pcs(n);
  u64 state = 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    pcs[i] = static_cast<i64>(1 + (state >> 17) % static_cast<u64>(total));
  }
  return pcs;
}

/// Best-of-trials wall time for fn() per inner element, in ns.
template <class Fn>
double time_ns_per(i64 elements, int trials, Fn&& fn) {
  double best = 1e300;
  for (int t = 0; t < trials; ++t) {
    const double t0 = omp_get_wtime();
    fn();
    const double dt = omp_get_wtime() - t0;
    best = std::min(best, dt);
  }
  return best * 1e9 / static_cast<double>(elements);
}

volatile i64 g_sink = 0;

}  // namespace

int main(int argc, char** argv) {
  bench::Args args = bench::Args::parse(argc, argv);
  const int trials = std::max(3, args.trials);

  struct Row {
    std::string name;
    i64 trip = 0;
    int depth = 0;
    double interp = 0, engine = 0, block = 0, simd = 0, simd8 = 0, batch4 = 0,
           search = 0, newton = 0;
    double bind_cold = 0;    ///< ns per cold CollapsePlan::build (collapse+bind)
    double bind_cached = 0;  ///< ns per plan_cache().get hit on the same key
    double qblock = 0;  ///< block64 through the PR 2 quartic path (bytecode
                        ///< program + checked-i128 scalar guards); 0 when the
                        ///< nest has no quartic level
    double jit = 0;             ///< ns/iter through the compiled specialized
                                ///< kernel (single thread; 0 when not compiled)
    double jit_compile_ms = 0;  ///< one cold out-of-process specialize+compile
    bool jit_compiled = false;
    bool gate = false, gate_simd = false, gate_quartic = false;
  };
  std::vector<Row> rows;
  std::vector<CollapsedEval> evals;  // row-parallel, for the selection report

  for (const BenchNest& bn : bench_nests()) {
    const Collapsed col = collapse(bn.nest);
    const CollapsedEval cn = col.bind(bn.params);
    const RankingSystem rs = build_ranking_system(bn.nest);
    const NewtonUnranker nu(rs, bn.params);

    const size_t d = static_cast<size_t>(cn.depth());
    const size_t nprobes = 20000;
    const std::vector<i64> pcs = probe_pcs(cn.trip_count(), nprobes);

    Row row;
    row.name = bn.name;
    row.trip = cn.trip_count();
    row.depth = cn.depth();
    row.gate = bn.gate;
    row.gate_simd = bn.gate_simd;
    row.gate_quartic = bn.gate_quartic;

    i64 idx[kMaxDepth];
    i64 sink = 0;
    row.interp = time_ns_per(static_cast<i64>(nprobes), trials, [&] {
      for (const i64 pc : pcs) {
        cn.recover_interpreted(pc, {idx, d});
        sink += idx[0];
      }
    });
    row.engine = time_ns_per(static_cast<i64>(nprobes), trials, [&] {
      for (const i64 pc : pcs) {
        cn.recover(pc, {idx, d});
        sink += idx[0];
      }
    });
    constexpr i64 kBlock = 64;
    i64 block_buf[kBlock * kMaxDepth];
    row.block = time_ns_per(static_cast<i64>(nprobes) * kBlock, trials, [&] {
      for (const i64 pc : pcs) {
        const i64 lo = std::min<i64>(pc, std::max<i64>(1, cn.trip_count() - kBlock + 1));
        const i64 got =
            cn.recover_block(lo, kBlock, {block_buf, kBlock * d});
        sink += block_buf[static_cast<size_t>(got - 1) * d];
      }
    });
    // SIMD-batched block recovery: 4 chunks of kBlock per probe, the 4
    // start solves lane-parallel, lane-strided tiles out — the
    // per-iteration cost the lane-batched chunked scheme pays.
    i64 simd_buf[4 * kBlock * kMaxDepth];
    i64 rows4[4];
    row.simd = time_ns_per(static_cast<i64>(nprobes) * 4 * kBlock, trials, [&] {
      for (const i64 pc : pcs) {
        const i64 lo =
            std::min<i64>(pc, std::max<i64>(1, cn.trip_count() - 4 * kBlock + 1));
        const i64 pcs4[4] = {lo, lo + kBlock, lo + 2 * kBlock, lo + 3 * kBlock};
        cn.recover_blocks4(pcs4, kBlock, {simd_buf, 4 * kBlock * d}, kBlock, rows4);
        sink += simd_buf[static_cast<size_t>(rows4[0] - 1)];
      }
    });
    // 8-lane variant: recover_blocks8 over 8 chunks of kBlock — the
    // per-iteration cost the chunked scheme pays on the AVX-512 leg,
    // where every solve stage runs one 512-bit vector wide and the
    // fills store masked tails.  The entry point exists on every leg
    // (emulated lanes elsewhere), so the column is always measured;
    // the 2x floor only gates runs whose runtime abi is avx512.
    i64 simd_buf8[8 * kBlock * kMaxDepth];
    i64 rows8[8];
    row.simd8 = time_ns_per(static_cast<i64>(nprobes) * 8 * kBlock, trials, [&] {
      for (const i64 pc : pcs) {
        const i64 lo =
            std::min<i64>(pc, std::max<i64>(1, cn.trip_count() - 8 * kBlock + 1));
        i64 pcs8[8];
        for (int b = 0; b < 8; ++b) pcs8[b] = lo + b * kBlock;
        cn.recover_blocks8(pcs8, kBlock, {simd_buf8, 8 * kBlock * d}, kBlock, rows8);
        sink += simd_buf8[static_cast<size_t>(rows8[0] - 1)];
      }
    });
    // Lane-batched formula recovery of 4 consecutive pcs (the §VI-B
    // warp-shaped primitive: one independent solve per lane).
    i64 batch_buf[4 * kMaxDepth];
    row.batch4 = time_ns_per(static_cast<i64>(nprobes) * 4, trials, [&] {
      for (const i64 pc : pcs) {
        const i64 lo = std::min<i64>(pc, std::max<i64>(1, cn.trip_count() - 3));
        const i64 pcs4[4] = {lo, lo + 1, lo + 2, lo + 3};
        cn.recover4(pcs4, {batch_buf, 4 * d});
        sink += batch_buf[0];
      }
    });
    // The PR 2 quartic path (RecoveryProgram bytecode + checked-i128
    // scalar guards) on the same block64 workload: the enforced
    // ferrari-vs-bytecode floor divides these two block64 timings.
    bool has_quartic = false;
    for (int k = 0; k < cn.depth(); ++k)
      if (cn.solver_kind(k) == LevelSolverKind::Quartic) has_quartic = true;
    if (has_quartic) {
      CollapsedEval pr2 = cn;
      pr2.use_bytecode_quartics();
      pr2.set_f64_guards(false);
      row.qblock = time_ns_per(static_cast<i64>(nprobes) * kBlock, trials, [&] {
        for (const i64 pc : pcs) {
          const i64 lo =
              std::min<i64>(pc, std::max<i64>(1, pr2.trip_count() - kBlock + 1));
          const i64 got = pr2.recover_block(lo, kBlock, {block_buf, kBlock * d});
          sink += block_buf[static_cast<size_t>(got - 1) * d];
        }
      });
    }
    // Plan-cache economics: a cold build pays collapse() + bind(); a hit
    // pays one sharded lookup.  The enforced >= 10x floor below is the
    // pipeline's analyze-once contract.
    constexpr i64 kBinds = 200;
    row.bind_cold = time_ns_per(kBinds, trials, [&] {
      for (i64 q = 0; q < kBinds; ++q) {
        const auto plan = CollapsePlan::build(bn.nest, bn.params);
        sink += plan->eval().trip_count();
      }
    });
    PlanCache cache(8, 4);
    (void)cache.get(bn.nest, bn.params);  // prime: every timed get is a hit
    row.bind_cached = time_ns_per(kBinds, trials, [&] {
      for (i64 q = 0; q < kBinds; ++q) {
        const auto plan = cache.get(bn.nest, bn.params);
        sink += plan->eval().trip_count();
      }
    });
    row.search = time_ns_per(static_cast<i64>(nprobes), trials, [&] {
      for (const i64 pc : pcs) {
        cn.recover_search(pc, {idx, d});
        sink += idx[0];
      }
    });
    row.newton = time_ns_per(static_cast<i64>(nprobes), trials, [&] {
      for (const i64 pc : pcs) {
        nu.recover(pc, {idx, d});
        sink += idx[0];
      }
    });
    // JIT leg: one cold specialized build (the amortized entry fee,
    // reported as jit[c] ms), then the compiled kernel's end-to-end
    // ns/iter with a trivial body.  Measured on one thread so the
    // jit-vs-engine ratio isolates what the specialization buys
    // (folded coefficients/guards + chunk-amortized recovery), not
    // parallel speedup; the compiled kernel runs on the ambient OpenMP
    // team, so the team is pinned to 1 for the measurement.
    {
      const auto plan = CollapsePlan::build(bn.nest, bn.params);
      JitOptions jopt;
      jopt.use_disk_cache = false;
      const auto kernel = JitKernel::build(plan, Schedule::chunked(64), jopt);
      row.jit_compiled = kernel->compiled();
      row.jit_compile_ms = static_cast<double>(kernel->info().compile_ns) / 1e6;
      if (kernel->compiled()) {
        const int ambient = omp_get_max_threads();
        omp_set_num_threads(1);
        row.jit = time_ns_per(cn.trip_count(), trials, [&] {
          i64 slot = 0;
          kernel->run([&](std::span<const i64> t) { slot += t[0]; });
          sink += slot;
        });
        omp_set_num_threads(ambient);
      }
    }
    g_sink = g_sink + sink;
    rows.push_back(row);
    evals.push_back(cn);
  }

  // --------------------------------------------- selection accuracy
  // Per nest, time the auto_select pick and every candidate end to end
  // with the same tuple body (so the hints say it is not block-shaped);
  // the pick must land within the enforced 2x of the best on the gated
  // nests.
  struct SelRow {
    std::string chosen, best;
    double measured = 0;  ///< measured ns/iter of the pick
    double best_ns = 0;   ///< measured ns/iter of the best candidate
    double ratio = 0;     ///< measured / best
  };
  std::vector<SelRow> sels;
  {
    // A new OpenMP team's threads can share cores until the kernel's
    // load balancer spreads them: on a 4-vCPU VM, runs in the team's
    // first second took 16-32 ms instead of 0.2 ms.  Keep the team busy
    // for a second before timing anything.
    const double warm_until = omp_get_wtime() + 1.0;
#pragma omp parallel num_threads(args.threads)
    while (omp_get_wtime() < warm_until) {
    }
    AutoSelectHints hints;
    hints.threads = args.threads;
    const RunConfig cfg{args.threads};
    for (const CollapsedEval& cn : evals) {
      const i64 total = cn.trip_count();
      const i64 chunk = default_chunk(total, args.threads);
      const Schedule pick = Schedule::auto_select(cn, hints);
      const Schedule scheds[] = {
          pick, Schedule::per_thread(cfg), Schedule::row_segments(cfg),
          Schedule::row_segments_chunked(chunk, cfg),
          Schedule::simd_blocks_chunked(2 * simd::kGroupLanes, chunk, cfg)};
      // Best of `trials`, timed round-robin so drift over the run hits
      // the pick and the candidates alike.
      std::vector<double> ns(std::size(scheds), 1e300);
      for (int t = 0; t < trials; ++t) {
        for (size_t c = 0; c < std::size(scheds); ++c) {
          ns[c] = std::min(ns[c], time_ns_per(total, 1, [&] {
                             thread_local i64 slot = 0;
                             run(cn, scheds[c],
                                 [](std::span<const i64> idx) { slot += idx[0]; });
                             g_sink = g_sink + slot;
                           }));
        }
      }
      const size_t best = static_cast<size_t>(std::min_element(ns.begin(), ns.end()) - ns.begin());
      SelRow sr;
      sr.chosen = pick.describe();
      sr.measured = ns[0];
      sr.best = scheds[best].describe();
      sr.best_ns = ns[best];
      sr.ratio = sr.best_ns > 0 ? sr.measured / sr.best_ns : 1.0;
      sels.push_back(sr);
    }
  }

  // Gate on the *runtime* leg, not the compile-time macro: a binary
  // compiled with -mavx512f but run through NRC_NO_AVX512 (or on a
  // narrower machine after a broad-ISA build) must not be held to a
  // floor its silicon can't reach.
  const std::string run_abi = simd::runtime_abi();
  const bool vector_abi = run_abi == "avx2" || run_abi == "avx512";
  const bool wide_abi = run_abi == "avx512";
  std::printf(
      "== recovery_ns: ns per recovered iteration (best of %d trials, "
      "simd_abi=%s, compiled=%s, %d-lane groups) ==\n\n",
      trials, run_abi.c_str(), simd::abi_name(), simd::kGroupLanes);
  std::printf("%-13s %5s %11s | %11s %11s %11s %11s %11s %11s %11s %11s %11s %8s %8s | %10s %10s | %8s %8s %8s %8s %8s %8s\n",
              "nest", "depth", "trip", "interp[ns]", "engine[ns]", "block64", "simd64",
              "simd512", "batch4[ns]", "search[ns]", "newton[ns]", "qblock64",
              "jit[ns]", "jitc[ms]",
              "bind-cold", "bind-hit", "eng-spdup", "simd-spdup", "s512spdup",
              "q-spdup", "jit-spdup", "bindspdup");
  bench::rule(230);
  const bool jit_toolchain = jit::toolchain_available();
  bool gate_ok = true;
  bool simd_ok = true;
  bool simd512_ok = true;
  bool quartic_ok = true;
  bool bind_ok = true;
  bool jit_ok = true;
  for (const Row& r : rows) {
    const double speedup = r.interp / r.engine;
    const double simd_speedup = r.block / r.simd;
    const double simd8_speedup = r.block / r.simd8;
    const double q_speedup = r.qblock > 0 ? r.qblock / r.block : 0.0;
    const double jit_speedup = r.jit > 0 ? r.engine / r.jit : 0.0;
    const double bind_speedup = r.bind_cached > 0 ? r.bind_cold / r.bind_cached : 0.0;
    std::printf(
        "%-13s %5d %11lld | %11.1f %11.1f %11.2f %11.2f %11.2f %11.1f %11.1f %11.1f %11.2f %8.2f %8.1f | "
        "%10.0f %10.0f | %7.2fx %7.2fx %7.2fx %7.2fx %7.1fx %7.1fx\n",
        r.name.c_str(), r.depth, static_cast<long long>(r.trip), r.interp, r.engine,
        r.block, r.simd, r.simd8, r.batch4, r.search, r.newton, r.qblock, r.jit,
        r.jit_compile_ms, r.bind_cold,
        r.bind_cached, speedup, simd_speedup, simd8_speedup, q_speedup, jit_speedup,
        bind_speedup);
    if (r.gate && speedup < 2.5) gate_ok = false;
    // The JIT floor covers the cubic and quartic nests — the deep
    // recoveries where folding coefficients, guards and branch numbers
    // to literals pays most.  With a toolchain present, a kernel that
    // failed to compile on a gated nest is itself a failure; without
    // one the floor is skipped (the no-toolchain CI leg covers that
    // configuration's correctness).
    if ((r.gate_simd || r.gate_quartic) && jit_toolchain) {
      if (!r.jit_compiled || jit_speedup < 1.5) jit_ok = false;
    }
    // The simd64 floor was 2x against PR 2's scalar block path; PR 3's
    // scalar engine adopted the proven-f64 guards and the Ferrari, making
    // block64 itself 2-3x faster, so the lane path's remaining amortized
    // advantage (it only accelerates the 4 chunk-start solves, not the
    // row fills both paths share) is re-floored against the new baseline.
    if (r.gate_simd && vector_abi && simd_speedup < 1.2) simd_ok = false;
    // The 8-lane floor restores the original 2x bar on AVX-512 silicon:
    // twice the lanes per solve plus masked fills (no scalar remainder
    // loops) must clear against the same scalar block64 baseline.
    if (r.gate_simd && wide_abi && simd8_speedup < 2.0) simd512_ok = false;
    if (r.gate_quartic && q_speedup < 2.5) quartic_ok = false;
    // Every nest gates the plan-cache floor: a hit must be >= 10x
    // cheaper than the cold collapse+bind it replaces.
    if (bind_speedup < 10.0) bind_ok = false;
  }
  bench::rule(230);
  std::printf(
      "eng-spdup = interpreter / engine (full closed-form recovery).  block64 is\n"
      "recover_block amortized over 64 consecutive pcs — the per-iteration cost the\n"
      "scalar chunked schemes pay; simd64 is recover_blocks4 (4 lane-parallel chunk\n"
      "starts, lane-strided fills) over the same chunk size, and simd-spdup their\n"
      "ratio.  simd512 is recover_blocks8 — the 8-lane entry point (one 512-bit\n"
      "vector per solve stage on the AVX-512 leg, emulated elsewhere) over 8 chunks;\n"
      "s512spdup = block64 / simd512, enforced >= 2x when the runtime abi is avx512.\n"
      "batch4 is recover4 per recovered tuple (one formula solve per lane).\n"
      "qblock64 is block64 through the PR 2 quartic path (bytecode program +\n"
      "checked-i128 scalar guards); q-spdup = qblock64 / block64, the guarded\n"
      "Ferrari's enforced >= 2.5x floor on the quartic nests.  bind-cold is ns per\n"
      "cold CollapsePlan::build (collapse+bind), bind-hit ns per plan_cache().get\n"
      "hit on the same key; bindspdup = bind-cold / bind-hit, enforced >= 10x on\n"
      "every nest.  jit[ns] is the runtime-compiled specialized kernel's ns per\n"
      "iteration on one thread (jitc[ms] its one-time out-of-process compile);\n"
      "jit-spdup = engine / jit, enforced >= 1.5x on the cubic/quartic nests when\n"
      "a C toolchain is available.\n");

  std::printf(
      "\n== selection accuracy: auto_select vs measured-best candidate "
      "(threads=%d) ==\n\n",
      args.threads);
  std::printf("%-13s %-44s %9s | %-44s %9s | %7s\n", "nest", "chosen schedule",
              "meas[ns]", "measured best", "best[ns]", "ratio");
  bench::rule(140);
  bool sel_ok = true;
  for (size_t i = 0; i < rows.size(); ++i) {
    const SelRow& sr = sels[i];
    std::printf("%-13s %-44s %9.3f | %-44s %9.3f | %6.2fx\n", rows[i].name.c_str(),
                sr.chosen.c_str(), sr.measured, sr.best.c_str(), sr.best_ns, sr.ratio);
    // Enforced floor: on the gated nests no pick may be more than 2x
    // slower than the best candidate — guard picks (tiny domain / one
    // thread) included.
    if (rows[i].gate && sr.ratio > 2.0) sel_ok = false;
  }
  bench::rule(140);
  std::printf(
      "chosen = Schedule::auto_select; measured best = cheapest end-to-end run,\n"
      "same tuple body, of the pick and the candidates per_thread, row_segments,\n"
      "row_segments_chunked(default_chunk) and simd_blocks_chunked(2 x lane group,\n"
      "default_chunk); ratio = chosen / best, enforced <= 2x on the gated nests,\n"
      "guard picks included.\n");

  const std::string out_path = args.out.empty() ? "BENCH_recovery.json" : args.out;
  if (FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"recovery_ns\",\n  \"unit\": "
                 "\"ns_per_recovered_iteration\",\n  \"simd_abi\": \"%s\",\n"
                 "  \"compiled_simd_abi\": \"%s\",\n  \"threads\": %d,\n"
                 "  \"nests\": [\n",
                 run_abi.c_str(), simd::abi_name(), args.threads);
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"depth\": %d, \"trip_count\": %lld, "
                   "\"lane_width\": %d, "
                   "\"gate\": %s, \"gate_simd\": %s, \"gate_quartic\": %s, "
                   "\"gate_jit\": %s, "
                   "\"schemes\": {\"interpreter\": %.2f, \"engine\": %.2f, "
                   "\"block64\": %.3f, \"simd64\": %.3f, \"simd512\": %.3f, "
                   "\"batch4\": %.2f, "
                   "\"search\": %.2f, \"newton\": %.2f, \"quartic_block64\": %.3f, "
                   "\"jit\": %.3f}, "
                   "\"jit_compile_ms\": %.2f, "
                   "\"bind\": {\"cold_ns\": %.1f, \"cached_ns\": %.1f}, "
                   "\"speedup_engine_vs_interpreter\": %.3f, "
                   "\"speedup_simd64_vs_block64\": %.3f, "
                   "\"speedup_simd512_vs_block64\": %.3f, "
                   "\"speedup_ferrari_vs_bytecode\": %.3f, "
                   "\"speedup_jit_vs_engine\": %.3f, "
                   "\"speedup_bind_cached_vs_cold\": %.2f, "
                   "\"selection\": {\"chosen\": \"%s\", "
                   "\"measured_ns_per_iter\": %.3f, \"best\": \"%s\", "
                   "\"best_ns_per_iter\": %.3f, \"ratio_vs_best\": %.3f}}%s\n",
                   r.name.c_str(), r.depth, static_cast<long long>(r.trip),
                   simd::kGroupLanes,
                   r.gate ? "true" : "false", r.gate_simd ? "true" : "false",
                   r.gate_quartic ? "true" : "false",
                   (r.gate_simd || r.gate_quartic) && jit_toolchain ? "true" : "false",
                   r.interp, r.engine, r.block, r.simd, r.simd8, r.batch4, r.search,
                   r.newton, r.qblock, r.jit, r.jit_compile_ms, r.bind_cold,
                   r.bind_cached, r.interp / r.engine,
                   r.block / r.simd, r.block / r.simd8,
                   r.qblock > 0 ? r.qblock / r.block : 0.0,
                   r.jit > 0 ? r.engine / r.jit : 0.0,
                   r.bind_cached > 0 ? r.bind_cold / r.bind_cached : 0.0,
                   sels[i].chosen.c_str(), sels[i].measured, sels[i].best.c_str(),
                   sels[i].best_ns, sels[i].ratio,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "FAIL: cannot open %s for writing\n", out_path.c_str());
    return 1;
  }

  int rc = 0;
  if (!gate_ok) {
    std::printf("FAIL: compiled engine below the enforced 2.5x floor on a gated nest\n");
    rc = 1;
  }
  if (!simd_ok) {
    std::printf(
        "FAIL: simd64 below 1.2x over block64 on a simd-gated nest (vector abi)\n");
    rc = 1;
  }
  if (!simd512_ok) {
    std::printf(
        "FAIL: simd512 below the enforced 2x floor over block64 on a simd-gated "
        "nest (avx512 runtime abi)\n");
    rc = 1;
  }
  if (!quartic_ok) {
    std::printf(
        "FAIL: guarded Ferrari below the enforced 2.5x floor over the PR 2 bytecode "
        "path on a quartic nest\n");
    rc = 1;
  }
  if (!jit_ok) {
    std::printf(
        "FAIL: jit kernel below the enforced 1.5x floor over the engine (or failed "
        "to compile) on a cubic/quartic nest with a C toolchain available\n");
    rc = 1;
  }
  if (!jit_toolchain)
    std::printf("note: no C toolchain; jit column is 0 and its floor is skipped\n");
  if (!bind_ok) {
    std::printf(
        "FAIL: plan-cache hit below the enforced 10x floor over a cold "
        "collapse+bind\n");
    rc = 1;
  }
  if (!sel_ok) {
    std::printf(
        "FAIL: auto_select picked a schedule more than 2x slower than the "
        "best candidate on a gated nest\n");
    rc = 1;
  }
  return rc;
}
