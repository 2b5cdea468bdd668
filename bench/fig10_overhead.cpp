// Figure 10 reproduction: "Control time-overhead from 12 root
// evaluations by comparing serial runs of original and transformed
// programs".
//
// Protocol (paper §VII): run the target nest serially (1) as the
// original program and (2) as the collapsed program with the costly
// root-based recovery performed 12 times — simulating the per-thread
// recoveries of a 12-thread run — and report the overhead percentage.
// Minimum over reps per trial, min-merged across trials (see
// bench_util.hpp for why).
//
// Expected shape: mostly small/negligible overheads, with the largest
// values on the kernels whose whole (light-bodied) nest is collapsed
// (symm, utma — the paper calls out covariance and symm).

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "bench_util.hpp"
#include "kernels/data.hpp"
#include "kernels/registry.hpp"
#include "runtime/baselines.hpp"

using namespace nrc;

namespace {
struct Row {
  double t_orig = 1e300;
  double t_coll = 1e300;    // kernel's best serial collapsed form (segments)
  double t_scalar = 1e300;  // strict element-wise form (paper's Fig. 4 shape)
  bool ok = true;
};
}  // namespace

int main(int argc, char** argv) {
  bench::Args args = bench::Args::parse(argc, argv);

  std::printf("== Figure 10: serial control overhead of %d simulated recoveries ==\n",
              args.sims);
  std::printf("scale=%.2f reps=%d trials=%d (min-merged)\n\n", args.scale, args.reps,
              args.trials);

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
      row.t_orig = std::min(
          row.t_orig, time_best([&] { kernel->run(Variant::SerialOriginal, 1, 0); },
                                args.reps, trial == 0 ? args.warmup : 0));
      const double ref = kernel->checksum();
      row.t_coll = std::min(
          row.t_coll,
          time_best([&] { kernel->run(Variant::SerialCollapsedSim, 1, args.sims); },
                    args.reps, trial == 0 ? args.warmup : 0));
      row.ok = row.ok && nearly_equal(kernel->checksum(), ref);
      row.t_scalar = std::min(
          row.t_scalar,
          time_best(
              [&] { kernel->run(Variant::SerialCollapsedSimScalar, 1, args.sims); },
              args.reps, trial == 0 ? args.warmup : 0));
      row.ok = row.ok && nearly_equal(kernel->checksum(), ref);
    }
  }

  std::printf("%-18s %12s %12s %10s %12s %10s  %s\n", "kernel", "original[s]",
              "scalar[s]", "overhead", "segments[s]", "overhead", "check");
  bench::rule(96);
  int bad = 0;
  for (const auto& kernel : kernels) {
    const Row& row = rows[kernel->info().name];
    if (!row.ok) ++bad;
    const double ov_scalar = (row.t_scalar - row.t_orig) / row.t_orig;
    const double ov_best = (row.t_coll - row.t_orig) / row.t_orig;
    std::printf("%-18s %12.4f %12.4f %9.2f%% %12.4f %9.2f%%  %s\n",
                kernel->info().name.c_str(), row.t_orig, row.t_scalar,
                100.0 * ov_scalar, row.t_coll, 100.0 * ov_best,
                row.ok ? "ok" : "MISMATCH");
  }
  bench::rule(96);
  std::printf(
      "overhead = (t_serial_collapsed - t_serial_original) / t_serial_original.\n"
      "'scalar' is the paper's exact Fig. 4 protocol (element-wise index\n"
      "incrementation): mostly small, largest on fully-collapsed light-body\n"
      "nests (paper: covariance/symm; here symm/utma/skewstencil).\n"
      "'segments' is this library's row-segment execution (§VI-A), which\n"
      "removes that per-iteration cost.\n");
  return bad == 0 ? 0 : 1;
}
