// GPU warp-execution scheme (paper §VI-B), simulated on the CPU.
//
// On a GPU, consecutive collapsed iterations go to consecutive threads
// of a warp for memory coalescing; each thread then recovers its indices
// once and advances W odometer steps per iteration.  This demo runs the
// same access pattern on the CPU and shows (a) that it covers the domain
// exactly and (b) what the W-fold incrementation costs relative to the
// §V per-thread scheme.
//
// Build & run:  ./examples/warp_gpu_demo [N] [warp_size]

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "nrcollapse.hpp"

using namespace nrc;

int main(int argc, char** argv) {
  const i64 N = argc > 1 ? std::atoll(argv[1]) : 1500;
  const int W = argc > 2 ? std::atoi(argv[2]) : 32;

  // Inclusive triangle with a small body (coalescing-friendly).
  NestSpec nest;
  nest.param("N").loop("i", aff::c(0), aff::v("N")).loop("j", aff::v("i"), aff::v("N"));
  const Collapsed col = collapse(nest);
  const CollapsedEval cn = col.bind({{"N", N}});

  Matrix a(N, N), b(N, N), c(N, N);
  a.fill_lcg(3);
  b.fill_lcg(5);
  auto body = [&](std::span<const i64> ij) {
    c[ij[0]][ij[1]] = a[ij[0]][ij[1]] + b[ij[0]][ij[1]];
  };

  std::printf("triangular add, N = %lld (%lld iterations), warp size %d\n",
              static_cast<long long>(N), static_cast<long long>(cn.trip_count()), W);

  c.fill_zero();
  const double t_warp = time_best([&] { run(cn, Schedule::warp_sim(W), body); });
  const double ref = c.checksum();

  c.fill_zero();
  const double t_thread = time_best([&] { run(cn, Schedule::per_thread(), body); });
  const bool ok = nearly_equal(c.checksum(), ref);

  std::printf("warp-sim (recover once, %d increments per step): %8.4f s\n", W, t_warp);
  std::printf("per-thread (§V):                                 %8.4f s\n", t_thread);
  std::printf("warp / per-thread cost ratio: %.2fx  (the W-fold incrementation\n"
              "is the price of coalesced pc assignment, as §VI-B anticipates)\n",
              t_warp / t_thread);
  std::printf("results match: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
