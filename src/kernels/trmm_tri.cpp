#include "kernels/trmm_tri.hpp"

namespace nrc {

TrmmTriKernel::TrmmTriKernel() {
  info_ = {"trmm",
           "triangular matrix product, inner range depends on the outer index",
           "triangular (inclusive diagonal)",
           /*nest_depth=*/3,
           /*collapse_depth=*/2};
}

void TrmmTriKernel::prepare(double scale) {
  n_ = scaled(1000, scale);
  a_ = Matrix(n_, n_);
  b_ = Matrix(n_, n_);
  out_ = Matrix(n_, n_);
  a_.fill_lcg(29);
  b_.fill_lcg(31);

  NestSpec nest;
  nest.param("N")
      .loop("i", aff::c(0), aff::v("N"))
      .loop("j", aff::v("i"), aff::v("N"));
  setup_collapse(nest, {{"N", n_}});
  timed_reps_ = 1;
}

inline void TrmmTriKernel::body(i64 i, i64 j) {
  double acc = 0.0;
  for (i64 k = i; k < n_; ++k) acc += a_[k][i] * b_[k][j];
  out_[i][j] = acc;
}

void TrmmTriKernel::run(Variant v, int threads, int root_eval_sims) {
  out_.fill_zero();
  auto span_body = [&](std::span<const i64> ij) { body(ij[0], ij[1]); };
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
        run_collapsed(v, threads, root_eval_sims, span_body, span_body);
    }
  }
}

double TrmmTriKernel::checksum() const { return out_.checksum(); }

}  // namespace nrc
