#include "kernels/syr2k.hpp"

namespace nrc {
namespace {
constexpr double kAlpha = 1.3;
constexpr double kBeta = 0.7;
}  // namespace

Syr2kKernel::Syr2kKernel() {
  info_ = {"syr2k",
           "symmetric rank-2K update, lower triangle (Polybench shape)",
           "triangular (inclusive diagonal)",
           /*nest_depth=*/3,
           /*collapse_depth=*/2};
}

void Syr2kKernel::prepare(double scale) {
  n_ = scaled(900, scale);
  k_ = n_;
  a_ = Matrix(n_, k_);
  b_ = Matrix(n_, k_);
  c_ = Matrix(n_, n_);
  a_.fill_lcg(17);
  b_.fill_lcg(19);

  NestSpec nest;
  nest.param("N")
      .loop("i", aff::c(0), aff::v("N"))
      .loop("j", aff::c(0), aff::v("i") + 1);
  setup_collapse(nest, {{"N", n_}});
  timed_reps_ = 4;
}

inline void Syr2kKernel::body(i64 i, i64 j) {
  double acc = kBeta * c_[i][j];
  const double* ai = a_[i];
  const double* aj = a_[j];
  const double* bi = b_[i];
  const double* bj = b_[j];
  for (i64 k = 0; k < k_; ++k) acc += kAlpha * (ai[k] * bj[k] + bi[k] * aj[k]);
  c_[i][j] = acc;
}

void Syr2kKernel::run(Variant v, int threads, int root_eval_sims) {
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

double Syr2kKernel::checksum() const { return c_.checksum(); }

}  // namespace nrc
