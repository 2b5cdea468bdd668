#include "kernels/correlation.hpp"

namespace nrc {

CorrelationKernel::CorrelationKernel() {
  info_ = {"correlation",
           "upper-triangular correlation accumulation (paper Fig. 1)",
           "triangular",
           /*nest_depth=*/3,
           /*collapse_depth=*/2};
}

void CorrelationKernel::prepare(double scale) {
  n_ = scaled(1000, scale);
  a_ = Matrix(n_, n_);
  b_ = Matrix(n_, n_);
  c_ = Matrix(n_, n_);
  b_.fill_lcg(7);
  c_.fill_lcg(11);

  NestSpec nest;
  nest.param("N")
      .loop("i", aff::c(0), aff::v("N") - 1)
      .loop("j", aff::v("i") + 1, aff::v("N"));
  setup_collapse(nest, {{"N", n_}});
}

template <class IJ>
inline void CorrelationKernel::body(IJ i, IJ j) {
  double acc = 0.0;
  const i64 n = n_;
  for (i64 k = 0; k < n; ++k) acc += b_[k][i] * c_[k][j];
  a_[i][j] = acc;
  a_[j][i] = acc;
}

void CorrelationKernel::run(Variant v, int threads, int root_eval_sims) {
  a_.fill_zero();
  auto span_body = [&](std::span<const i64> ij) { body(ij[0], ij[1]); };
  switch (v) {
    case Variant::SerialOriginal:
      for (i64 i = 0; i < n_ - 1; ++i)
        for (i64 j = i + 1; j < n_; ++j) body(i, j);
      break;
    case Variant::OuterStatic:
#pragma omp parallel for schedule(static) num_threads(threads)
      for (i64 i = 0; i < n_ - 1; ++i)
        for (i64 j = i + 1; j < n_; ++j) body(i, j);
      break;
    case Variant::OuterDynamic:
#pragma omp parallel for schedule(dynamic) num_threads(threads)
      for (i64 i = 0; i < n_ - 1; ++i)
        for (i64 j = i + 1; j < n_; ++j) body(i, j);
      break;
    default:
      run_collapsed(v, threads, root_eval_sims, span_body, span_body);
  }
}

double CorrelationKernel::checksum() const { return a_.checksum(); }

}  // namespace nrc
