// Ablation: chunk-size sweep for the §V chunked scheme.
//
// schedule(static, CHUNK) with one costly recovery per chunk trades
// recovery frequency against scheduling granularity and cache
// co-location.  Swept on two self-contained workloads:
//   * a covariance-like heavy body (k-dot product over a shared matrix),
//     where small chunks win by keeping threads co-located in the data;
//   * a utma-like light body, where too-small chunks start paying for
//     the per-chunk recovery.
// chunk = 0 denotes the per-thread block scheme (one recovery/thread).

#include <cstdio>
#include <functional>
#include <vector>

#include "bench_util.hpp"
#include "kernels/data.hpp"
#include "runtime/baselines.hpp"
#include "pipeline/dispatch.hpp"

using namespace nrc;

namespace {

void sweep(const char* name, const CollapsedEval& cn,
           const std::function<void(std::span<const i64>)>& body,
           const bench::Args& args) {
  std::printf("%s: %lld collapsed iterations\n", name,
              static_cast<long long>(cn.trip_count()));
  std::printf("  %-16s %10s %14s\n", "chunk", "time[s]", "vs per-thread");
  const double t_block = time_best(
      [&] { run(cn, Schedule::per_thread({args.threads}), body); }, args.reps,
      args.warmup);
  std::printf("  %-16s %10.4f %13.1f%%\n", "per-thread", t_block, 0.0);
  for (i64 chunk : {i64{64}, i64{256}, i64{1024}, i64{4096}, i64{16384}, i64{65536}}) {
    if (chunk * 2 >= cn.trip_count()) break;
    const double t = time_best(
        [&] { run(cn, Schedule::chunked(chunk, {args.threads}), body); }, args.reps,
        args.warmup);
    std::printf("  %-16lld %10.4f %+13.1f%%\n", static_cast<long long>(chunk), t,
                100.0 * (t_block - t) / t_block);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  std::printf("== Ablation: chunk size for the Section V chunked scheme ==\n");
  std::printf("threads=%d scale=%.2f reps=%d\n\n", args.threads, args.scale, args.reps);

  // Heavy body: covariance-like dot products over one shared matrix.
  {
    const i64 N = static_cast<i64>(1000 * args.scale);
    Matrix data(N, N), cov(N, N);
    data.fill_lcg(23);
    NestSpec nest;
    nest.param("N").loop("i", aff::c(0), aff::v("N")).loop("j", aff::v("i"), aff::v("N"));
    const CollapsedEval cn = collapse(nest).bind({{"N", N}});
    sweep("covariance-like (heavy body)", cn,
          [&](std::span<const i64> ij) {
            const i64 i = ij[0], j = ij[1];
            double acc = 0.0;
            for (i64 k = 0; k < N; ++k) acc += data[k][i] * data[k][j];
            cov[i][j] = acc;
          },
          args);
  }

  // Light body: triangular add.
  {
    const i64 N = static_cast<i64>(3000 * args.scale);
    Matrix a(N, N), b(N, N), c(N, N);
    a.fill_lcg(41);
    b.fill_lcg(43);
    NestSpec nest;
    nest.param("N").loop("i", aff::c(0), aff::v("N")).loop("j", aff::v("i"), aff::v("N"));
    const CollapsedEval cn = collapse(nest).bind({{"N", N}});
    sweep("utma-like (light body)", cn,
          [&](std::span<const i64> ij) {
            c[ij[0]][ij[1]] = a[ij[0]][ij[1]] + b[ij[0]][ij[1]];
          },
          args);
  }

  std::printf(
      "Small chunks deal threads round-robin through the iteration space\n"
      "(cache co-location, like dynamic scheduling); chunks must still be\n"
      "large enough to amortize the per-chunk recovery on light bodies.\n");
  return 0;
}
