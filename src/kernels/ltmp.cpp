#include "kernels/ltmp.hpp"

namespace nrc {

LtmpKernel::LtmpKernel() {
  info_ = {"ltmp",
           "lower-triangular matrix product (paper's own kernel, 4000^2 there)",
           "triangular + tetrahedral work distribution",
           /*nest_depth=*/3,
           /*collapse_depth=*/2};
}

void LtmpKernel::prepare(double scale) {
  n_ = scaled(1000, scale);
  a_ = Matrix(n_, n_);
  b_ = Matrix(n_, n_);
  c_ = Matrix(n_, n_);
  a_.fill_lcg(47);
  b_.fill_lcg(53);
  // Zero the strict upper triangles so the inputs really are lower
  // triangular (results only touch k in [j, i]; this keeps the data
  // honest for checksum comparisons).
  for (i64 i = 0; i < n_; ++i)
    for (i64 j = i + 1; j < n_; ++j) {
      a_[i][j] = 0.0;
      b_[i][j] = 0.0;
    }

  NestSpec nest;
  nest.param("N")
      .loop("i", aff::c(0), aff::v("N"))
      .loop("j", aff::c(0), aff::v("i") + 1);
  setup_collapse(nest, {{"N", n_}});
  timed_reps_ = 8;
}

inline void LtmpKernel::body(i64 i, i64 j) {
  double acc = 0.0;
  const double* ai = a_[i];
  for (i64 k = j; k < i + 1; ++k) acc += ai[k] * b_[k][j];
  c_[i][j] = acc;
}

void LtmpKernel::run(Variant v, int threads, int root_eval_sims) {
  c_.fill_zero();
  auto span_body = [&](std::span<const i64> ij) { body(ij[0], ij[1]); };
  for (int rep = 0; rep < timed_reps_; ++rep) {
    switch (v) {
      case Variant::SerialOriginal:
        for (i64 i = 0; i < n_; ++i)
          for (i64 j = 0; j < i + 1; ++j) body(i, j);
        break;
      case Variant::OuterStatic:
  #pragma omp parallel for schedule(static) num_threads(threads)
        for (i64 i = 0; i < n_; ++i)
          for (i64 j = 0; j < i + 1; ++j) body(i, j);
        break;
      case Variant::OuterDynamic:
  #pragma omp parallel for schedule(dynamic) num_threads(threads)
        for (i64 i = 0; i < n_; ++i)
          for (i64 j = 0; j < i + 1; ++j) body(i, j);
        break;
      default:
        run_collapsed(v, threads, root_eval_sims, span_body, span_body);
    }
  }
}

double LtmpKernel::checksum() const { return c_.checksum(); }

}  // namespace nrc
