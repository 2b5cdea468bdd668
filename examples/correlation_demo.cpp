// The paper's motivating example (§II), narrated end to end:
// build the correlation nest, show the recovery formulas the library
// derives (the same ones the paper prints), then race the scheduling
// strategies discussed in §II.
//
// Build & run:  ./examples/correlation_demo [N] [threads]

#include <cstdio>
#include <cstdlib>

#include "nrcollapse.hpp"

using namespace nrc;

int main(int argc, char** argv) {
  const i64 N = argc > 1 ? std::atoll(argv[1]) : 1000;
  const int threads = argc > 2 ? std::atoi(argv[2]) : 12;

  std::printf("correlation (paper Fig. 1), N = %lld, %d threads\n\n",
              static_cast<long long>(N), threads);

  // The (i, j) sub-nest that will be collapsed; the k-loop stays in the
  // body.
  NestSpec nest;
  nest.param("N")
      .loop("i", aff::c(0), aff::v("N") - 1)
      .loop("j", aff::v("i") + 1, aff::v("N"));
  const Collapsed col = collapse(nest);

  std::printf("-- symbolic artifacts ------------------------------------\n");
  std::printf("%s\n", col.describe().c_str());

  // The generated-code view (paper Fig. 4): what the source-to-source
  // tool would emit for this nest.
  const char* dsl = R"(
name correlation
params N
array double a[N][N]
array double b[N][N]
array double c[N][N]
loop i = 0 .. N-1
loop j = i+1 .. N
collapse 2
body {
  for (long k = 0; k < N; k++)
    a[i][j] += b[k][i] * c[k][j];
  a[j][i] = a[i][j];
}
)";
  const NestProgram prog = parse_nest_program(dsl);
  std::printf("-- generated OpenMP C (Fig. 4 style) ---------------------\n");
  std::printf("%s\n", emit_collapsed_function(prog, col, {}).c_str());

  // Timed comparison of §II's strategies.
  std::printf("-- measured (min of 3 runs each) -------------------------\n");
  const CollapsedEval cn = col.bind({{"N", N}});
  Matrix a(N, N), b(N, N), c(N, N);
  b.fill_lcg(7);
  c.fill_lcg(11);
  auto body = [&](i64 i, i64 j) {
    double acc = 0.0;
    for (i64 k = 0; k < N; ++k) acc += b[k][i] * c[k][j];
    a[i][j] = acc;
    a[j][i] = acc;
  };

  const double t_static = time_best([&] {
#pragma omp parallel for schedule(static) num_threads(threads)
    for (i64 i = 0; i < N - 1; ++i)
      for (i64 j = i + 1; j < N; ++j) body(i, j);
  });
  const double ref = a.checksum();

  const double t_dynamic = time_best([&] {
#pragma omp parallel for schedule(dynamic) num_threads(threads)
    for (i64 i = 0; i < N - 1; ++i)
      for (i64 j = i + 1; j < N; ++j) body(i, j);
  });

  const double t_collapsed = time_best([&] {
    run(cn, Schedule::chunked(default_chunk(cn.trip_count(), threads), {threads}),
        [&](std::span<const i64> ij) { body(ij[0], ij[1]); });
  });
  const bool ok = nearly_equal(a.checksum(), ref);

  std::printf("outer static   : %8.4f s\n", t_static);
  std::printf("outer dynamic  : %8.4f s\n", t_dynamic);
  std::printf("collapsed (SV) : %8.4f s   -> %+.1f%% vs static, %+.1f%% vs dynamic\n",
              t_collapsed, 100.0 * (t_static - t_collapsed) / t_static,
              100.0 * (t_dynamic - t_collapsed) / t_dynamic);
  std::printf("results match  : %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
