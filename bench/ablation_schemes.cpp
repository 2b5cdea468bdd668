// Ablation: the execution schemes of §V and §VI head to head.
//
//   per-iteration(static)  — Fig. 3: costly recovery every iteration
//   per-thread             — Fig. 4 / §V: one recovery per thread
//   chunked(1024)          — §V second scheme
//   simd-blocks(8)         — §VI-A block precomputation scheme
//   warp-sim(32)           — §VI-B GPU warp pattern on the CPU
//   chunks(1024, dynamic)  — §V chunks claimed from one shared counter
//
// Run on one heavy-body kernel (correlation) and one light-body kernel
// (utma): the per-iteration penalty is invisible under a heavy body and
// dominant under a light one — the entire motivation for §V.

#include <cstdio>

#include "bench_util.hpp"
#include "kernels/data.hpp"
#include "kernels/registry.hpp"
#include "runtime/baselines.hpp"
#include "pipeline/dispatch.hpp"

using namespace nrc;

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  std::printf("== Ablation: execution schemes (sections V and VI) ==\n");
  std::printf("threads=%d scale=%.2f reps=%d\n\n", args.threads, args.scale, args.reps);

  for (const char* name : {"correlation", "utma"}) {
    if (!args.wants(name)) continue;
    auto kernel = make_kernel(name);
    kernel->prepare(args.scale);

    const Collapsed col = collapse(kernel->collapsed_spec());
    const CollapsedEval cn = col.bind(kernel->bound_params());

    // Index-sum body: identical work under every scheme, so differences
    // are pure scheme overhead.  The kernel-body runs are covered by
    // fig9; here the machinery itself is under the microscope.
    auto run_with = [&](auto&& runner) {
      return time_best([&] { runner(); }, args.reps, args.warmup);
    };
    volatile double sink = 0.0;
    auto body = [&](std::span<const i64> idx) {
      double acc = 0.0;
      for (size_t k = 0; k < idx.size(); ++k) acc += static_cast<double>(idx[k]);
      sink = sink + acc;
    };

    std::printf("%s machinery (%lld iterations):\n", name,
                static_cast<long long>(cn.trip_count()));

    const double t_thread =
        run_with([&] { run(cn, Schedule::per_thread({args.threads}), body); });
    const double t_iter = run_with([&] {
      run(cn, Schedule::per_iteration(OmpSchedule::Static, {args.threads}), body);
    });
    const double t_chunk =
        run_with([&] { run(cn, Schedule::chunked(1024, {args.threads}), body); });
    const double t_simd = run_with([&] {
      run(cn, Schedule::simd_blocks(8, {args.threads}),
          [&](int lanes, const i64* const* cols) {
            double acc = 0.0;
            for (int l = 0; l < lanes; ++l)
              for (int k = 0; k < cn.depth(); ++k)
                acc += static_cast<double>(cols[k][l]);
            sink = sink + acc;
          });
    });
    const double t_warp =
        run_with([&] { run(cn, Schedule::warp_sim(32, {args.threads}), body); });
    const double t_dyn = run_with([&] {
      run(cn, Schedule::row_segments_chunked(1024, {args.threads}, OmpSchedule::Dynamic), body);
    });

    auto row = [&](const char* label, double t) {
      std::printf("  %-22s %10.4f s   %6.2fx vs per-thread\n", label, t,
                  t / t_thread);
    };
    row("per-thread (Fig. 4)", t_thread);
    row("per-iteration (Fig. 3)", t_iter);
    row("chunked(1024)", t_chunk);
    row("simd-blocks(8)", t_simd);
    row("warp-sim(32)", t_warp);
    row("chunks(1024, dynamic)", t_dyn);
    std::printf("\n");
  }
  return 0;
}
