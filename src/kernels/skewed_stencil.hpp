#pragma once
// skewstencil — trapezoidal skewed stencil sweep.
//
// The shape Pluto's loop skewing produces: the inner range is both
// shifted by and growing with the outer index, covering the
// "trapezoidal" class of the paper's abstract:
//
//   for (i = 0; i < T; i++)
//     for (j = i; j < N + 2*i; j++) {        // trapezoid
//       double acc = 0;
//       for (r = 0; r < R; r++) acc += in[j - i + r] * w[r];
//       out[i][j - i] = acc;
//     }
//
// (i, j) iterations are independent (each writes a distinct out cell);
// the fixed-length r loop stays in the body.  Row length N + i grows
// linearly, so outer schedule(static) is imbalanced.

#include "kernels/kernel_base.hpp"

namespace nrc {

class SkewedStencilKernel final : public KernelBase {
 public:
  SkewedStencilKernel();
  void prepare(double scale) override;
  void run(Variant v, int threads, int root_eval_sims) override;
  double checksum() const override;

 private:
  void body(i64 i, i64 j);
  void row(i64 i, i64 j0, i64 j1);  ///< body(i, j) for j in [j0, j1)

  static constexpr i64 kTaps = 48;
  i64 t_ = 0;  ///< number of rows (outer trip count)
  i64 n_ = 0;  ///< base row width
  Matrix out_;
  std::vector<double> in_;
  std::vector<double> w_;
};

}  // namespace nrc
