// The paper's §II narrative, measured: the correlation nest under every
// strategy discussed in the motivating example —
//   * outer loop schedule(static)        (Fig. 1 + Fig. 2's imbalance)
//   * outer loop schedule(dynamic)
//   * collapsed, recovery per iteration  (Fig. 3)
//   * collapsed, recovery once per thread + incrementation (Fig. 4)
//   * collapsed, the production pick (Schedule::auto_select: guided
//     dynamic claims, one recovery per claim)

#include <cstdio>

#include "bench_util.hpp"
#include "kernels/correlation.hpp"
#include "runtime/baselines.hpp"

using namespace nrc;

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  std::printf("== Motivating example (paper section II): correlation ==\n");
  std::printf("threads=%d scale=%.2f reps=%d\n\n", args.threads, args.scale, args.reps);

  CorrelationKernel kernel;
  kernel.prepare(args.scale);

  auto timed = [&](Variant v) {
    return time_best([&] { kernel.run(v, args.threads, args.sims); }, args.reps,
                     args.warmup);
  };

  const double t_static = timed(Variant::OuterStatic);
  const double ref = kernel.checksum();
  const double t_dynamic = timed(Variant::OuterDynamic);

  // Fig. 3 (per-iteration recovery) and Fig. 4 (per-thread recovery)
  // through the library's executors directly.
  const Collapsed col = collapse(kernel.collapsed_spec());
  const CollapsedEval cn = col.bind(kernel.bound_params());
  const double t_fig3 = timed(Variant::CollapsedDynamic);  // per-iteration recovery
  const double t_fig4 = timed(Variant::CollapsedStaticBlock);  // per-thread, Fig. 4
  const double t_auto = timed(Variant::CollapsedStatic);       // auto_select
  const bool ok = nearly_equal(kernel.checksum(), ref);

  std::printf("%-46s %10.4f s\n", "outer static (Fig. 1 + pragma)", t_static);
  std::printf("%-46s %10.4f s\n", "outer dynamic", t_dynamic);
  std::printf("%-46s %10.4f s\n", "collapsed, per-iteration recovery (Fig. 3)", t_fig3);
  std::printf("%-46s %10.4f s\n", "collapsed, per-thread recovery (Fig. 4)", t_fig4);
  std::printf("%-46s %10.4f s\n", "collapsed, production pick (auto_select)", t_auto);
  std::printf("\nbest collapsed vs outer static : %+.1f%%\n",
              100.0 * (t_static - std::min(t_fig4, t_auto)) / t_static);
  std::printf("best collapsed vs outer dynamic: %+.1f%%\n",
              100.0 * (t_dynamic - std::min(t_fig4, t_auto)) / t_dynamic);
  std::printf("\nresult check: %s\n", ok ? "ok" : "MISMATCH");
  std::printf("trip count: %lld (= (N-1)N/2)\n",
              static_cast<long long>(cn.trip_count()));
  return ok ? 0 : 1;
}
