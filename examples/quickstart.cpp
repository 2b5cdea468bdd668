// Quickstart: collapse a triangular loop nest and run it in parallel.
//
// The 60-second tour of the library:
//   1. describe the nest        (NestSpec, affine bounds)
//   2. collapse it              (ranking polynomial + inverse, symbolic)
//   3. bind parameters          (fast runtime evaluator)
//   4. execute with OpenMP      (balanced collapsed loop, §V scheme)
//
// Build & run:  ./examples/quickstart [N]

#include <cstdio>
#include <cstdlib>

#include "nrcollapse.hpp"

using namespace nrc;

int main(int argc, char** argv) {
  const i64 N = argc > 1 ? std::atoll(argv[1]) : 2000;

  // -- 1. The nest of the paper's motivating example (Fig. 1):
  //        for (i = 0; i < N-1; i++)
  //          for (j = i+1; j < N; j++) ...
  NestSpec nest;
  nest.param("N")
      .loop("i", aff::c(0), aff::v("N") - 1)
      .loop("j", aff::v("i") + 1, aff::v("N"));

  // -- 2. Collapse: computes the ranking Ehrhart polynomial and the
  //        closed-form recovery of (i, j) from the single index pc.
  const Collapsed col = collapse(nest);
  std::printf("%s\n", col.describe().c_str());

  // -- 3. Bind a concrete size.
  const CollapsedEval cn = col.bind({{"N", N}});
  std::printf("trip count for N=%lld: %lld\n\n", static_cast<long long>(N),
              static_cast<long long>(cn.trip_count()));

  // -- 4. Run in parallel: every thread gets the same number of (i, j)
  //        pairs, regardless of the triangle's skew.  (Per-thread
  //        accumulators; the executor opens its own parallel region.)
  std::vector<double> acc(static_cast<size_t>(omp_get_max_threads()), 0.0);
  run(cn, Schedule::per_thread(), [&](std::span<const i64> ij) {
    acc[static_cast<size_t>(omp_get_thread_num())] +=
        1.0 / static_cast<double>(ij[0] + ij[1] + 1);
  });
  double checksum = 0.0;
  for (double v : acc) checksum += v;
  std::printf("parallel checksum: %.9f\n", checksum);

  // Verify against the plain serial nest.
  double expect = 0.0;
  for (i64 i = 0; i < N - 1; ++i)
    for (i64 j = i + 1; j < N; ++j) expect += 1.0 / static_cast<double>(i + j + 1);
  std::printf("serial   checksum: %.9f  (%s)\n", expect,
              nearly_equal(checksum, expect) ? "match" : "MISMATCH");

  // Paranoia utility: validate the whole domain at a small size.
  const auto rep = validate_collapsed(col, {{"N", 50}});
  std::printf("whole-domain validation at N=50: %s (%lld points)\n",
              rep.ok ? "ok" : rep.first_error.c_str(),
              static_cast<long long>(rep.points_checked));
  return rep.ok && nearly_equal(checksum, expect) ? 0 : 1;
}
