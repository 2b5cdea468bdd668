#include "kernels/tiled.hpp"

namespace nrc {
namespace {
constexpr i64 kTileSize = 32;

NestSpec tile_nest() {
  NestSpec nest;
  nest.param("NT")
      .loop("it", aff::c(0), aff::v("NT"))
      .loop("jt", aff::v("it"), aff::v("NT"));
  return nest;
}
}  // namespace

// ---------------------------------------------------------------------------
// correlation_tiled
// ---------------------------------------------------------------------------

CorrelationTiledKernel::CorrelationTiledKernel() {
  info_ = {"correlation_tiled",
           "correlation with Pluto-style triangular tiling; tile loops collapsed",
           "tiled triangular (trapezoidal tiles)",
           /*nest_depth=*/4,
           /*collapse_depth=*/2};
}

void CorrelationTiledKernel::prepare(double scale) {
  n_ = scaled(1000, scale);
  ts_ = kTileSize;
  nt_ = (n_ + ts_ - 1) / ts_;
  a_ = Matrix(n_, n_);
  b_ = Matrix(n_, n_);
  c_ = Matrix(n_, n_);
  b_.fill_lcg(7);
  c_.fill_lcg(11);
  setup_collapse(tile_nest(), {{"NT", nt_}});
}

inline void CorrelationTiledKernel::tile_body(i64 it, i64 jt) {
  const i64 ilo = it * ts_;
  const i64 ihi = std::min(n_ - 1, (it + 1) * ts_);
  const i64 jhi = std::min(n_, (jt + 1) * ts_);
  for (i64 i = ilo; i < ihi; ++i) {
    const i64 jlo = std::max(jt * ts_, i + 1);
    for (i64 j = jlo; j < jhi; ++j) {
      double acc = 0.0;
      for (i64 k = 0; k < n_; ++k) acc += b_[k][i] * c_[k][j];
      a_[i][j] = acc;
      a_[j][i] = acc;
    }
  }
}

void CorrelationTiledKernel::run(Variant v, int threads, int root_eval_sims) {
  a_.fill_zero();
  auto span_body = [&](std::span<const i64> t) { tile_body(t[0], t[1]); };
  switch (v) {
    case Variant::SerialOriginal:
      for (i64 it = 0; it < nt_; ++it)
        for (i64 jt = it; jt < nt_; ++jt) tile_body(it, jt);
      break;
    case Variant::OuterStatic:
#pragma omp parallel for schedule(static) num_threads(threads)
      for (i64 it = 0; it < nt_; ++it)
        for (i64 jt = it; jt < nt_; ++jt) tile_body(it, jt);
      break;
    case Variant::OuterDynamic:
#pragma omp parallel for schedule(dynamic) num_threads(threads)
      for (i64 it = 0; it < nt_; ++it)
        for (i64 jt = it; jt < nt_; ++jt) tile_body(it, jt);
      break;
    default:
      run_collapsed(v, threads, root_eval_sims, span_body, span_body);
  }
}

double CorrelationTiledKernel::checksum() const { return a_.checksum(); }

// ---------------------------------------------------------------------------
// covariance_tiled
// ---------------------------------------------------------------------------

CovarianceTiledKernel::CovarianceTiledKernel() {
  info_ = {"covariance_tiled",
           "covariance with Pluto-style triangular tiling; tile loops collapsed",
           "tiled triangular (trapezoidal tiles)",
           /*nest_depth=*/4,
           /*collapse_depth=*/2};
}

void CovarianceTiledKernel::prepare(double scale) {
  n_ = scaled(1000, scale);
  ts_ = kTileSize;
  nt_ = (n_ + ts_ - 1) / ts_;
  data_ = Matrix(n_, n_);
  cov_ = Matrix(n_, n_);
  data_.fill_lcg(23);

  mean_.assign(static_cast<size_t>(n_), 0.0);
  for (i64 k = 0; k < n_; ++k)
    for (i64 j = 0; j < n_; ++j) mean_[static_cast<size_t>(j)] += data_[k][j];
  for (i64 j = 0; j < n_; ++j) mean_[static_cast<size_t>(j)] /= static_cast<double>(n_);

  setup_collapse(tile_nest(), {{"NT", nt_}});
}

inline void CovarianceTiledKernel::tile_body(i64 it, i64 jt) {
  const i64 ilo = it * ts_;
  const i64 ihi = std::min(n_, (it + 1) * ts_);
  const i64 jhi = std::min(n_, (jt + 1) * ts_);
  for (i64 i = ilo; i < ihi; ++i) {
    const i64 jlo = std::max(jt * ts_, i);
    const double mi = mean_[static_cast<size_t>(i)];
    for (i64 j = jlo; j < jhi; ++j) {
      const double mj = mean_[static_cast<size_t>(j)];
      double acc = 0.0;
      for (i64 k = 0; k < n_; ++k) acc += (data_[k][i] - mi) * (data_[k][j] - mj);
      acc /= static_cast<double>(n_ - 1);
      cov_[i][j] = acc;
      cov_[j][i] = acc;
    }
  }
}

void CovarianceTiledKernel::run(Variant v, int threads, int root_eval_sims) {
  cov_.fill_zero();
  auto span_body = [&](std::span<const i64> t) { tile_body(t[0], t[1]); };
  switch (v) {
    case Variant::SerialOriginal:
      for (i64 it = 0; it < nt_; ++it)
        for (i64 jt = it; jt < nt_; ++jt) tile_body(it, jt);
      break;
    case Variant::OuterStatic:
#pragma omp parallel for schedule(static) num_threads(threads)
      for (i64 it = 0; it < nt_; ++it)
        for (i64 jt = it; jt < nt_; ++jt) tile_body(it, jt);
      break;
    case Variant::OuterDynamic:
#pragma omp parallel for schedule(dynamic) num_threads(threads)
      for (i64 it = 0; it < nt_; ++it)
        for (i64 jt = it; jt < nt_; ++jt) tile_body(it, jt);
      break;
    default:
      run_collapsed(v, threads, root_eval_sims, span_body, span_body);
  }
}

double CovarianceTiledKernel::checksum() const { return cov_.checksum(); }

}  // namespace nrc
