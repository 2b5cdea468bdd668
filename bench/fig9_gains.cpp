// Figure 9 reproduction: "Gains on OpenMP execution times of collapsed
// non-rectangular loop nests (12 threads)".
//
// For every evaluation kernel, times the most time-consuming
// non-rectangular nest under
//   * original nest, outermost loop schedule(static),
//   * original nest, outermost loop schedule(dynamic),
//   * collapsed loop under the production pick, Schedule::auto_select
//     (guided dynamic claims, one recovery per claim: coll-auto),
//   * collapsed loop, one contiguous block per thread (§V, coll-pt),
// and reports gain = (t_baseline - t_collapsed) / t_baseline — one table
// row per bar pair of the paper's figure.  benchmark/'s paper_kernels
// workload times the same production pick.
//
// Measurement: minimum over `reps` runs per trial, min-merged over
// `trials` whole-suite passes (spaced repetitions ride out the
// multi-second vCPU interference bursts of shared hosts); the JSON adds
// each column's median and slowest trial and the host.
//
// Expected shape (paper §VII): large positive gains vs static
// everywhere; vs dynamic mostly positive or near zero (tiled variants
// ~0), with ltmp the one loser because its inner reduction loop cannot
// be collapsed and keeps the imbalance.

#include <cstdio>
#include <iterator>
#include <map>
#include <memory>

#include "bench_util.hpp"
#include "kernels/data.hpp"
#include "kernels/registry.hpp"
#include "runtime/baselines.hpp"

using namespace nrc;

namespace {

/// The timed columns in table order: variant, JSON key, table header.
struct Column { Variant v; const char* key; const char* head; };
constexpr Column kColumns[] = {
    {Variant::OuterStatic, "t_static", "static[s]"},
    {Variant::OuterDynamic, "t_dynamic", "dynamic[s]"},
    {Variant::CollapsedStatic, "t_collapsed_auto", "coll-auto[s]"},
    {Variant::CollapsedStaticBlock, "t_collapsed_block", "coll-pt[s]"},
};
constexpr size_t kCols = std::size(kColumns);
enum { kStatic, kDynamic, kAuto };

struct Row {
  bench::Spread t[kCols];  ///< per column: every trial's time, seconds
  bool ok = true;
  /// (t_baseline - t_collapsed) / t_baseline over the fastest trials.
  double gain(int base, int coll) const { return (t[base].min - t[coll].min) / t[base].min; }
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);

  std::printf("== Figure 9: gains of the collapsed loop over original schedules ==\n");
  std::printf("threads=%d scale=%.2f reps=%d trials=%d (min-merged)\n\n", args.threads,
              args.scale, args.reps, args.trials);

  // Prepare all kernels once; measure in `trials` interleaved passes.
  std::vector<std::unique_ptr<IKernel>> kernels;
  for (const auto& name : kernel_names()) {
    if (!args.wants(name)) continue;
    kernels.push_back(make_kernel(name));
    kernels.back()->prepare(args.scale);
  }

  std::map<std::string, Row> rows;
  for (int trial = 0; trial < std::max(1, args.trials); ++trial) {
    for (auto& kernel : kernels) {
      Row& row = rows[kernel->info().name];
      double ref = 0;
      for (size_t c = 0; c < kCols; ++c) {
        row.t[c].add(time_best([&] { kernel->run(kColumns[c].v, args.threads, args.sims); },
                               args.reps, trial == 0 ? args.warmup : 0));
        if (c == 0) ref = kernel->checksum();
        row.ok = row.ok && nearly_equal(kernel->checksum(), ref);
      }
    }
  }

  std::printf("%-18s", "kernel");
  for (const Column& col : kColumns) std::printf(" %12s", col.head);
  std::printf(" %12s %11s  %s\n", "gain-vs-stat", "gain-vs-dyn", "check");
  bench::rule(110);
  int bad = 0;
  for (const auto& kernel : kernels) {
    const Row& row = rows[kernel->info().name];
    if (!row.ok) ++bad;
    std::printf("%-18s", kernel->info().name.c_str());
    for (const bench::Spread& t : row.t) std::printf(" %12.4f", t.min);
    std::printf(" %11.1f%% %10.1f%%  %s\n", 100.0 * row.gain(kStatic, kAuto),
                100.0 * row.gain(kDynamic, kAuto), row.ok ? "ok" : "MISMATCH");
  }
  bench::rule(110);
  std::printf(
      "coll-auto = the production pick, Schedule::auto_select (guided dynamic\n"
      "claims, one recovery per claim; headline, used for the gains);\n"
      "coll-pt = §V per-thread block scheme.\n"
      "gain = (t_baseline - t_collapsed_auto) / t_baseline over the fastest\n"
      "trials.  Positive means the collapsed loop is faster.  Paper shape:\n"
      "collapsed wins clearly vs static; vs dynamic it wins or ties except ltmp.\n");

  // JSON artifact for the perf-trajectory dashboard (bench/trajectory.py
  // merges it next to BENCH_recovery.json so end-to-end kernel
  // regressions surface alongside the solver microbenchmarks).  Each
  // column's spread is its fastest and slowest trial, and "median" its
  // median trial.
  const std::string out_path = args.out.empty() ? "BENCH_fig9.json" : args.out;
  if (FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"fig9_gains\",\n  \"unit\": \"seconds\",\n"
                 "  \"threads\": %d,\n  \"scale\": %.3f,\n  \"reps\": %d,\n"
                 "  \"trials\": %d,\n  %s,\n  \"kernels\": [\n",
                 args.threads, args.scale, args.reps, args.trials,
                 bench::provenance_json().c_str());
    size_t i = 0;
    for (const auto& kernel : kernels) {
      const Row& row = rows[kernel->info().name];
      std::string times, medians;
      std::vector<std::pair<const char*, bench::Spread>> spread;
      for (size_t c = 0; c < kCols; ++c) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "\"%s\": %.6f, ", kColumns[c].key, row.t[c].min);
        times += buf;
        std::snprintf(buf, sizeof buf, "%s\"%s\": %.6f", c ? ", " : "", kColumns[c].key,
                      row.t[c].median());
        medians += buf;
        spread.emplace_back(kColumns[c].key, row.t[c]);
      }
      std::fprintf(f,
                   "    {\"name\": \"%s\", %s\"gain_vs_static\": %.4f, "
                   "\"gain_vs_dynamic\": %.4f, \"median\": {%s}, \"spread\": {%s}, "
                   "\"checksum_ok\": %s}%s\n",
                   kernel->info().name.c_str(), times.c_str(), row.gain(kStatic, kAuto),
                   row.gain(kDynamic, kAuto), medians.c_str(),
                   bench::spread_json(spread, 6).c_str(),
                   row.ok ? "true" : "false", ++i < kernels.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "FAIL: cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  return bad == 0 ? 0 : 1;
}
