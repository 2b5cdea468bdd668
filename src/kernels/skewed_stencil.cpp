#include "kernels/skewed_stencil.hpp"

namespace nrc {

SkewedStencilKernel::SkewedStencilKernel() {
  info_ = {"skewstencil",
           "trapezoidal skewed stencil sweep (Pluto skewing shape)",
           "trapezoidal",
           /*nest_depth=*/3,
           /*collapse_depth=*/2};
}

void SkewedStencilKernel::prepare(double scale) {
  t_ = scaled(1600, scale);
  n_ = scaled(800, scale);
  out_ = Matrix(t_, n_ + 2 * t_);
  in_.assign(static_cast<size_t>(n_ + 2 * t_ + kTaps), 0.0);
  w_.assign(static_cast<size_t>(kTaps), 0.0);
  unsigned s = 37;
  for (double& v : in_) {
    s = s * 1664525u + 1013904223u;
    v = static_cast<double>(s % 1000u) / 1000.0;
  }
  for (i64 r = 0; r < kTaps; ++r)
    w_[static_cast<size_t>(r)] = 1.0 / static_cast<double>(r + 1);

  NestSpec nest;
  nest.param("T").param("N")
      .loop("i", aff::c(0), aff::v("T"))
      .loop("j", aff::v("i"), aff::v("N") + 2 * aff::v("i"));
  setup_collapse(nest, {{"T", t_}, {"N", n_}});
  timed_reps_ = 20;
}

inline void SkewedStencilKernel::body(i64 i, i64 j) {
  double acc = 0.0;
  const double* base = in_.data() + (j - i);
  for (i64 r = 0; r < kTaps; ++r) acc += base[r] * w_[static_cast<size_t>(r)];
  out_[i][j - i] = acc;
}

// Every variant runs its rows through this one out-of-line copy of the
// row loop, so the plain loops and the collapsed walk time the same
// machine code.  With a copy inlined into each caller, placement alone
// set the 48-tap loop's speed: the collapsed walk's copy ran 7-9% slower
// than the plain loop's at 1 thread, with identical instructions.  The
// 64-byte alignment fixes the loop's offset from a cache-line boundary
// whatever code the linker places around it.
__attribute__((noinline, aligned(64))) void SkewedStencilKernel::row(i64 i, i64 j0, i64 j1) {
  for (i64 j = j0; j < j1; ++j) body(i, j);
}

void SkewedStencilKernel::run(Variant v, int threads, int root_eval_sims) {
  out_.fill_zero();
  auto span_body = [&](std::span<const i64> ij) { body(ij[0], ij[1]); };
  // Row-segment body (§VI-A): the tap loop stays innermost over a
  // contiguous j-run, exactly like the original nest.
  auto seg_body = [&](std::span<const i64> prefix, i64 j0, i64 j1) { row(prefix[0], j0, j1); };
  for (int rep = 0; rep < timed_reps_; ++rep) {
    switch (v) {
      case Variant::SerialOriginal:
        for (i64 i = 0; i < t_; ++i) row(i, i, n_ + 2 * i);
        break;
      case Variant::OuterStatic:
  #pragma omp parallel for schedule(static) num_threads(threads)
        for (i64 i = 0; i < t_; ++i) row(i, i, n_ + 2 * i);
        break;
      case Variant::OuterDynamic:
  #pragma omp parallel for schedule(dynamic) num_threads(threads)
        for (i64 i = 0; i < t_; ++i) row(i, i, n_ + 2 * i);
        break;
      default:
        run_collapsed(v, threads, root_eval_sims, seg_body, span_body);
    }
  }
}

double SkewedStencilKernel::checksum() const { return out_.checksum(); }

}  // namespace nrc
