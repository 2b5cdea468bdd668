#include "kernels/symm.hpp"

namespace nrc {
namespace {
constexpr double kAlpha = 1.5;
constexpr double kBeta = 1.2;
}  // namespace

SymmKernel::SymmKernel() {
  info_ = {"symm",
           "triangular symmetric scale-update, fully collapsed light body",
           "triangular (inclusive diagonal)",
           /*nest_depth=*/2,
           /*collapse_depth=*/2};
}

void SymmKernel::prepare(double scale) {
  n_ = scaled(3600, scale);
  a_ = Matrix(n_, n_);
  b_ = Matrix(n_, n_);
  c_ = Matrix(n_, n_);
  a_.fill_lcg(3);
  b_.fill_lcg(5);

  NestSpec nest;
  nest.param("N")
      .loop("i", aff::c(0), aff::v("N"))
      .loop("j", aff::c(0), aff::v("i") + 1);
  setup_collapse(nest, {{"N", n_}});
  timed_reps_ = 12;
}

void SymmKernel::run(Variant v, int threads, int root_eval_sims) {
  c_.fill_zero();
  auto body = [&](i64 i, i64 j) {
    c_[i][j] = kAlpha * a_[i][j] * b_[j][i] + kBeta * c_[i][j];
  };
  auto span_body = [&](std::span<const i64> ij) { body(ij[0], ij[1]); };
  // Row segments keep the innermost run contiguous (vectorizable) —
  // §VI-A applied to the fully-collapsed light body.
  auto seg_body = [&](std::span<const i64> prefix, i64 j0, i64 j1) {
    const i64 i = prefix[0];
    const double* ai = a_[i];
    double* ci = c_[i];
    for (i64 j = j0; j < j1; ++j) ci[j] = kAlpha * ai[j] * b_[j][i] + kBeta * ci[j];
  };
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
        run_collapsed(v, threads, root_eval_sims, seg_body, span_body);
    }
  }
}

double SymmKernel::checksum() const { return c_.checksum(); }

}  // namespace nrc
