#include "kernels/covariance.hpp"

namespace nrc {

CovarianceKernel::CovarianceKernel() {
  info_ = {"covariance",
           "inclusive-triangular covariance matrix (Polybench shape)",
           "triangular (inclusive diagonal)",
           /*nest_depth=*/3,
           /*collapse_depth=*/2};
}

void CovarianceKernel::prepare(double scale) {
  n_ = scaled(1000, scale);
  data_ = Matrix(n_, n_);
  cov_ = Matrix(n_, n_);
  data_.fill_lcg(23);

  mean_.assign(static_cast<size_t>(n_), 0.0);
  for (i64 k = 0; k < n_; ++k)
    for (i64 j = 0; j < n_; ++j) mean_[static_cast<size_t>(j)] += data_[k][j];
  for (i64 j = 0; j < n_; ++j) mean_[static_cast<size_t>(j)] /= static_cast<double>(n_);

  NestSpec nest;
  nest.param("N")
      .loop("i", aff::c(0), aff::v("N"))
      .loop("j", aff::v("i"), aff::v("N"));
  setup_collapse(nest, {{"N", n_}});
}

inline void CovarianceKernel::body(i64 i, i64 j) {
  double acc = 0.0;
  const double mi = mean_[static_cast<size_t>(i)];
  const double mj = mean_[static_cast<size_t>(j)];
  for (i64 k = 0; k < n_; ++k) acc += (data_[k][i] - mi) * (data_[k][j] - mj);
  acc /= static_cast<double>(n_ - 1);
  cov_[i][j] = acc;
  cov_[j][i] = acc;
}

void CovarianceKernel::run(Variant v, int threads, int root_eval_sims) {
  cov_.fill_zero();
  auto span_body = [&](std::span<const i64> ij) { body(ij[0], ij[1]); };
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

double CovarianceKernel::checksum() const { return cov_.checksum(); }

}  // namespace nrc
