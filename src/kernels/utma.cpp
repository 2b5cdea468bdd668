#include "kernels/utma.hpp"

namespace nrc {

UtmaKernel::UtmaKernel() {
  info_ = {"utma",
           "upper-triangular 2-matrix add (paper's own kernel, 5000^2 there)",
           "triangular (inclusive diagonal)",
           /*nest_depth=*/2,
           /*collapse_depth=*/2};
}

void UtmaKernel::prepare(double scale) {
  n_ = scaled(3600, scale);
  a_ = Matrix(n_, n_);
  b_ = Matrix(n_, n_);
  c_ = Matrix(n_, n_);
  a_.fill_lcg(41);
  b_.fill_lcg(43);

  NestSpec nest;
  nest.param("N")
      .loop("i", aff::c(0), aff::v("N"))
      .loop("j", aff::v("i"), aff::v("N"));
  setup_collapse(nest, {{"N", n_}});
  timed_reps_ = 16;
}

void UtmaKernel::run(Variant v, int threads, int root_eval_sims) {
  c_.fill_zero();
  auto body = [&](i64 i, i64 j) { c_[i][j] = a_[i][j] + b_[i][j]; };
  auto span_body = [&](std::span<const i64> ij) { body(ij[0], ij[1]); };
  // Row-segment body: the innermost run stays a contiguous loop, so the
  // collapsed code vectorizes exactly like the original nest (§VI-A).
  auto seg_body = [&](std::span<const i64> prefix, i64 j0, i64 j1) {
    const i64 i = prefix[0];
    const double* ai = a_[i];
    const double* bi = b_[i];
    double* ci = c_[i];
    for (i64 j = j0; j < j1; ++j) ci[j] = ai[j] + bi[j];
  };
  for (int rep = 0; rep < timed_reps_; ++rep) {
    switch (v) {
      case Variant::SerialOriginal:
        for (i64 i = 0; i < n_; ++i)
          for (i64 j = i; j < n_; ++j) body(i, j);
        break;
      case Variant::OuterStatic:
  #pragma omp parallel for schedule(static) num_threads(threads)
        for (i64 i = 0; i < n_; ++i)
          for (i64 j = i; j < n_; ++j) body(i, j);
        break;
      case Variant::OuterDynamic:
  #pragma omp parallel for schedule(dynamic) num_threads(threads)
        for (i64 i = 0; i < n_; ++i)
          for (i64 j = i; j < n_; ++j) body(i, j);
        break;
      default:
        run_collapsed(v, threads, root_eval_sims, seg_body, span_body);
    }
  }
}

double UtmaKernel::checksum() const { return c_.checksum(); }

}  // namespace nrc
