// recovery_ns — nanoseconds per recovered iteration, per recovery engine.
//
// Measures the cost the §V schemes amortize per chunk: one full
// closed-form recovery, across
//
//   engine      — the compiled engine (degree-specialized guarded
//                 solvers): recover()
//   block64     — recover_block() amortized over 64 consecutive pcs
//                 (one solve + row-major fill)
//   search      — exact binary search, the lowering of a level without
//                 a usable formula: recover_search()
//   newton      — safeguarded Newton: NewtonUnranker::recover()
//
// Random pcs (fixed-seed LCG) spread probes across the domain so branch
// history and guard behaviour match production chunk starts.  Results go
// to stdout and BENCH_recovery.json (ns per recovered iteration, per
// scheme; --out=PATH overrides the location) so successive PRs have a
// perf trajectory.  The JSON also records each column's spread (the
// fastest and slowest of its per-trial timings; the tables print the
// fastest) and the run's provenance: cpu, nproc, git_sha and git_dirty,
// as benchmark/run.py records them.  Exit status is non-zero when the
// compiled engine falls below the enforced 2.5x floor against exact
// binary search on a gated nest, or when a plan-cache hit is not at
// least 10x cheaper than a cold collapse+bind (the pipeline's
// analyze-once contract: repeated domains must skip symbolic build and
// bind entirely), or when auto_select — its heuristic or the
// one-thread / tiny-domain guard ahead of it — picks a schedule more
// than 2x slower than the best of a fixed candidate list (per_thread,
// row_segments, row_segments_chunked in its static and dynamic flavour
// and simd_blocks_chunked at the default chunk) on a gated nest (the
// selection-accuracy floor), or
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
using bench::Spread;

namespace {

struct BenchNest {
  std::string name;
  NestSpec nest;
  ParamMap params;
  bool gate = false;      ///< participates in the engine-vs-search floor
  bool gate_jit = false;  ///< participates in the jit-vs-engine 1.5x check
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
    v.push_back({"simplex4", n, {{"N", 120}}, false, true});
  }
  {
    NestSpec n;  // shifted 4-deep simplex: quartic with offset coefficients
    n.param("N")
        .loop("i", aff::c(3), aff::v("N") + 3)
        .loop("j", aff::v("i") - 2, aff::v("N") + 3)
        .loop("k", aff::v("j"), aff::v("N") + 4)
        .loop("l", aff::v("k"), aff::v("N") + 5);
    v.push_back({"simplex4sh", n, {{"N", 110}}, false, true});
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

/// Per-trial wall time for fn() per inner element, in ns, over `trials`
/// runs.
template <class Fn>
Spread time_trials(i64 elements, int trials, Fn&& fn) {
  Spread s;
  for (int t = 0; t < trials; ++t) {
    const double t0 = omp_get_wtime();
    fn();
    s.add((omp_get_wtime() - t0) * 1e9 / static_cast<double>(elements));
  }
  return s;
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
    double engine = 0, block = 0, search = 0, newton = 0;
    double bind_cold = 0;    ///< ns per cold CollapsePlan::build (collapse+bind)
    double bind_cached = 0;  ///< ns per plan_cache().get hit on the same key
    double jit = 0;             ///< ns/iter through the compiled specialized
                                ///< kernel (single thread; 0 when not compiled)
    double jit_compile_ms = 0;  ///< one cold out-of-process specialize+compile
    bool jit_compiled = false;
    bool gate = false, gate_jit = false;
    /// Per-column min and max of the per-trial timings, keyed by the
    /// JSON column name.
    std::vector<std::pair<const char*, Spread>> spread;
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
    row.gate_jit = bn.gate_jit;

    // Times one column: records its spread and returns the best trial.
    auto timed = [&](const char* column, i64 elements, auto&& fn) {
      const Spread s = time_trials(elements, trials, fn);
      row.spread.emplace_back(column, s);
      return s.min;
    };

    i64 idx[kMaxDepth];
    i64 sink = 0;
    row.engine = timed("engine", static_cast<i64>(nprobes), [&] {
      for (const i64 pc : pcs) {
        cn.recover(pc, {idx, d});
        sink += idx[0];
      }
    });
    constexpr i64 kBlock = 64;
    i64 block_buf[kBlock * kMaxDepth];
    row.block = timed("block64", static_cast<i64>(nprobes) * kBlock, [&] {
      for (const i64 pc : pcs) {
        const i64 lo = std::min<i64>(pc, std::max<i64>(1, cn.trip_count() - kBlock + 1));
        const i64 got =
            cn.recover_block(lo, kBlock, {block_buf, kBlock * d});
        sink += block_buf[static_cast<size_t>(got - 1) * d];
      }
    });
    // Plan-cache economics: a cold build pays collapse() + bind(); a hit
    // pays one sharded lookup.  The enforced >= 10x floor below is the
    // pipeline's analyze-once contract.
    constexpr i64 kBinds = 200;
    row.bind_cold = timed("bind_cold", kBinds, [&] {
      for (i64 q = 0; q < kBinds; ++q) {
        const auto plan = CollapsePlan::build(bn.nest, bn.params);
        sink += plan->eval().trip_count();
      }
    });
    PlanCache cache(8, 4);
    (void)cache.get(bn.nest, bn.params);  // prime: every timed get is a hit
    row.bind_cached = timed("bind_cached", kBinds, [&] {
      for (i64 q = 0; q < kBinds; ++q) {
        const auto plan = cache.get(bn.nest, bn.params);
        sink += plan->eval().trip_count();
      }
    });
    row.search = timed("search", static_cast<i64>(nprobes), [&] {
      for (const i64 pc : pcs) {
        cn.recover_search(pc, {idx, d});
        sink += idx[0];
      }
    });
    row.newton = timed("newton", static_cast<i64>(nprobes), [&] {
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
        row.jit = timed("jit", cn.trip_count(), [&] {
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
    Spread measured_spread, best_spread;
    std::string candidates_json;  ///< every candidate's describe(): min ns/iter
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
          Schedule::row_segments_chunked(chunk, cfg, OmpSchedule::Dynamic),
          Schedule::simd_blocks_chunked(2 * simd::kGroupLanes, chunk, cfg)};
      // Best of `trials`, timed round-robin so drift over the run hits
      // the pick and the candidates alike.  Round -1 runs every schedule
      // once untimed: the team warm-up above does not always outlast a
      // new team's core sharing (a 2-thread run once read 11x on its
      // first nest), and each nest's first round pays its cold caches.
      std::vector<Spread> ns(std::size(scheds));
      for (int t = -1; t < trials; ++t) {
        for (size_t c = 0; c < std::size(scheds); ++c) {
          const double dt = time_trials(total, 1, [&] {
                              thread_local i64 slot = 0;
                              run(cn, scheds[c], [](std::span<const i64> idx) { slot += idx[0]; });
                              g_sink = g_sink + slot;
                            }).min;
          if (t >= 0) ns[c].add(dt);
        }
      }
      const size_t best = static_cast<size_t>(
          std::min_element(ns.begin(), ns.end(),
                           [](const Spread& a, const Spread& b) { return a.min < b.min; }) -
          ns.begin());
      SelRow sr;
      sr.chosen = pick.describe();
      sr.measured = ns[0].min;
      sr.measured_spread = ns[0];
      sr.best = scheds[best].describe();
      sr.best_ns = ns[best].min;
      sr.best_spread = ns[best];
      sr.ratio = sr.best_ns > 0 ? sr.measured / sr.best_ns : 1.0;
      for (size_t c = 1; c < std::size(scheds); ++c) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "%s\"%s\": %.3f", c > 1 ? ", " : "",
                      scheds[c].describe().c_str(), ns[c].min);
        sr.candidates_json += buf;
      }
      sels.push_back(sr);
    }
  }

  const std::string run_abi = simd::runtime_abi();
  std::printf(
      "== recovery_ns: ns per recovered iteration (best of %d trials, "
      "simd_abi=%s, compiled=%s, %d-lane groups) ==\n\n",
      trials, run_abi.c_str(), simd::abi_name(), simd::kGroupLanes);
  std::printf("%-13s %5s %11s | %11s %11s %11s %11s %8s %8s | %10s %10s | %8s %8s %8s\n",
              "nest", "depth", "trip", "engine[ns]", "block64", "search[ns]", "newton[ns]",
              "jit[ns]", "jitc[ms]", "bind-cold", "bind-hit", "eng-spdup", "jit-spdup",
              "bindspdup");
  bench::rule(152);
  const bool jit_toolchain = jit::toolchain_available();
  bool gate_ok = true;
  bool bind_ok = true;
  bool jit_ok = true;
  for (const Row& r : rows) {
    const double speedup = r.search / r.engine;
    const double jit_speedup = r.jit > 0 ? r.engine / r.jit : 0.0;
    const double bind_speedup = r.bind_cached > 0 ? r.bind_cold / r.bind_cached : 0.0;
    std::printf(
        "%-13s %5d %11lld | %11.1f %11.2f %11.1f %11.1f %8.2f %8.1f | "
        "%10.0f %10.0f | %7.2fx %7.1fx %7.1fx\n",
        r.name.c_str(), r.depth, static_cast<long long>(r.trip), r.engine, r.block,
        r.search, r.newton, r.jit, r.jit_compile_ms, r.bind_cold, r.bind_cached, speedup,
        jit_speedup, bind_speedup);
    if (r.gate && speedup < 2.5) gate_ok = false;
    // The JIT floor covers the cubic and quartic nests — the deep
    // recoveries where folding coefficients, guards and branch numbers
    // to literals pays most.  With a toolchain present, a kernel that
    // failed to compile on a gated nest is itself a failure; without
    // one the floor is skipped (the no-toolchain CI leg covers that
    // configuration's correctness).
    if (r.gate_jit && jit_toolchain) {
      if (!r.jit_compiled || jit_speedup < 1.5) jit_ok = false;
    }
    // Every nest gates the plan-cache floor: a hit must be >= 10x
    // cheaper than the cold collapse+bind it replaces.
    if (bind_speedup < 10.0) bind_ok = false;
  }
  bench::rule(152);
  std::printf(
      "eng-spdup = search / engine (full closed-form recovery against the exact\n"
      "binary search a level without a usable formula lowers to), enforced >= 2.5x\n"
      "on the gated nests.  block64 is recover_block amortized over 64 consecutive\n"
      "pcs — the per-iteration cost the chunked schemes pay.  bind-cold is ns per\n"
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
  std::printf("%-13s %-56s %9s | %-56s %9s | %7s\n", "nest", "chosen schedule",
              "meas[ns]", "measured best", "best[ns]", "ratio");
  bench::rule(164);
  bool sel_ok = true;
  for (size_t i = 0; i < rows.size(); ++i) {
    const SelRow& sr = sels[i];
    std::printf("%-13s %-56s %9.3f | %-56s %9.3f | %6.2fx\n", rows[i].name.c_str(),
                sr.chosen.c_str(), sr.measured, sr.best.c_str(), sr.best_ns, sr.ratio);
    // Enforced floor: on the gated nests no pick may be more than 2x
    // slower than the best candidate — guard picks (tiny domain / one
    // thread) included.
    if (rows[i].gate && sr.ratio > 2.0) sel_ok = false;
  }
  bench::rule(164);
  std::printf(
      "chosen = Schedule::auto_select; measured best = cheapest end-to-end run,\n"
      "same tuple body, of the pick and the candidates per_thread, row_segments,\n"
      "row_segments_chunked(default_chunk) static and omp=dynamic, and\n"
      "simd_blocks_chunked(2 x lane group, default_chunk); ratio = chosen / best,\n"
      "enforced <= 2x on the gated nests, guard picks included.  Every schedule\n"
      "runs one discarded round first.\n");

  const std::string out_path = args.out.empty() ? "BENCH_recovery.json" : args.out;
  if (FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"recovery_ns\",\n  \"unit\": "
                 "\"ns_per_recovered_iteration\",\n  \"simd_abi\": \"%s\",\n"
                 "  \"compiled_simd_abi\": \"%s\",\n  \"threads\": %d,\n"
                 "  \"trials\": %d,\n  %s,\n"
                 "  \"nests\": [\n",
                 run_abi.c_str(), simd::abi_name(), args.threads, trials,
                 bench::provenance_json().c_str());
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"depth\": %d, \"trip_count\": %lld, "
                   "\"gate\": %s, \"gate_jit\": %s, "
                   "\"schemes\": {\"engine\": %.2f, "
                   "\"block64\": %.3f, \"search\": %.2f, \"newton\": %.2f, "
                   "\"jit\": %.3f}, "
                   "\"jit_compile_ms\": %.2f, "
                   "\"bind\": {\"cold_ns\": %.1f, \"cached_ns\": %.1f}, "
                   "\"speedup_engine_vs_search\": %.3f, "
                   "\"speedup_jit_vs_engine\": %.3f, "
                   "\"speedup_bind_cached_vs_cold\": %.2f, "
                   "\"selection\": {\"chosen\": \"%s\", "
                   "\"measured_ns_per_iter\": %.3f, \"best\": \"%s\", "
                   "\"best_ns_per_iter\": %.3f, \"ratio_vs_best\": %.3f, "
                   "\"measured_spread\": [%.3f, %.3f], \"best_spread\": [%.3f, %.3f], "
                   "\"candidates\": {%s}}, "
                   "\"spread\": {%s}}%s\n",
                   r.name.c_str(), r.depth, static_cast<long long>(r.trip),
                   r.gate ? "true" : "false", r.gate_jit && jit_toolchain ? "true" : "false",
                   r.engine, r.block, r.search, r.newton, r.jit, r.jit_compile_ms,
                   r.bind_cold, r.bind_cached, r.search / r.engine,
                   r.jit > 0 ? r.engine / r.jit : 0.0,
                   r.bind_cached > 0 ? r.bind_cold / r.bind_cached : 0.0,
                   sels[i].chosen.c_str(), sels[i].measured, sels[i].best.c_str(),
                   sels[i].best_ns, sels[i].ratio, sels[i].measured_spread.min,
                   sels[i].measured_spread.max, sels[i].best_spread.min,
                   sels[i].best_spread.max, sels[i].candidates_json.c_str(),
                   bench::spread_json(r.spread).c_str(),
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
    std::printf(
        "FAIL: compiled engine below the enforced 2.5x floor over exact search on a "
        "gated nest\n");
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
